"""Command-line behavior: exit-code taxonomy, formats, file output."""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from conftest import hadamard_chain, ladder
from qsc.cli import main
from qsc.corpus import corpus_text
from qsc.parser import parse_script
from qsc.render import MAX_ASCII_BYTES, render
from qsc.semantics import MAX_WIRES

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parents[1] / "src"
CORPUS = SRC / "qsc" / "corpus"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_passing_script(self):
        code, out, _ = run("check", str(CORPUS / "ent.qsc"))
        assert code == 0 and "all nodes pass" in out

    def test_failing_script(self):
        code, out, _ = run("check", str(DATA / "failing.qsc"))
        assert code == 1 and "WrongDegrees" in out

    def test_parse_error(self):
        code, _, err = run("check", str(DATA / "broken.qsc"))
        assert code == 2 and "ScriptSyntaxError" in err

    @pytest.mark.parametrize("command", ["check", "verify", "render"])
    def test_a_step_the_goal_does_not_use_is_an_input_error(self, tmp_path, command):
        script = tmp_path / "unused.qsc"
        script.write_text("atoms A B\ntheorem t:\n  1: |- A premise\n"
                          "  2: |- B^, A, A by hrule(1)\n  3: |- A^ premise\nqed\n")
        code, out, err = run(command, str(script))
        assert (code, out) == (2, "")
        assert err == (f"{script}:4:3: UnusedStep: step 2 is used by no later step, "
                       "so theorem 't' would drop it\n")

    @pytest.mark.parametrize("command", ["check", "verify", "render"])
    def test_a_theorem_named_twice_is_an_input_error(self, tmp_path, command):
        script = tmp_path / "twice.qsc"
        script.write_text("atoms A\ntheorem t:\n  1: |- A premise\nqed\n"
                          "theorem t:\n  1: |- A premise\nqed\n")
        code, out, err = run(command, str(script))
        assert (code, out) == (2, "")
        assert err == f"{script}:5:9: ScriptSyntaxError: theorem 't' is already defined\n"

    @pytest.mark.parametrize("command", ["check", "verify", "render"])
    def test_missing_file(self, command):
        code, out, err = run(command, "no-such-file.qsc")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read no-such-file.qsc: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["check"], ["verify"], ["render"],
                                      ["render", "--style", "linear"]],
                             ids=["check", "verify", "ascii", "linear"])
    def test_a_leading_byte_order_mark_is_read_past(self, tmp_path, argv):
        plain = CORPUS / "cnot-derivation.qsc"
        marked = tmp_path / plain.name
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(argv[0], str(plain), *argv[1:])
        assert expected[0] == 0
        assert run(argv[0], str(marked), *argv[1:]) == expected

    def test_a_script_that_is_not_utf8(self, tmp_path):
        script = tmp_path / "bad.qsc"
        script.write_bytes(b"\xff\xfe")
        code, out, err = run("check", str(script))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {script}: ") and err.count("\n") == 1

    def test_intuitionistic_mode_accepts_the_corpus(self):
        code, _, _ = run("check", str(CORPUS / "ent.qsc"), "--mode", "intuitionistic")
        assert code == 0

    def test_machine_format(self):
        code, out, _ = run("check", str(CORPUS / "epr.qsc"), "--format", "machine")
        assert code == 0
        assert out.splitlines()[-1].startswith("result\tok")

    def test_nonassoc_attempt_rejected(self):
        code, out, _ = run("check", str(DATA / "nonassoc.qsc"))
        assert code == 1 and "VisibilityViolation" in out


class TestVerify:
    def test_teleportation(self):
        code, out, _ = run("verify", str(CORPUS / "tel.qsc"),
                           "--alpha", "0.6", "--beta", "0.8")
        assert code == 0 and "max residual" in out

    def test_structural_failure_is_a_phase_error(self):
        code, _, err = run("verify", str(DATA / "failing.qsc"))
        assert code == 3 and "structural check" in err

    def test_tolerance_breach(self):
        # within the structural degree tolerance, outside a strict semantic one
        assert run("check", str(DATA / "offbydelta.qsc"))[0] == 0
        assert run("verify", str(DATA / "offbydelta.qsc"))[0] == 0
        code, out, _ = run("verify", str(DATA / "offbydelta.qsc"), "--tol", "1e-12")
        assert code == 1 and "residual breach" in out

    def test_qsplit_projects_the_named_wire(self, tmp_path):
        script = tmp_path / "qsplit-wire.qsc"
        script.write_text("atoms A B\ntheorem t:\n  1: |- Q_A, Q_B premise\n"
                          "  2: |- Q_A, B by qsplit[pos, B](1)\nqed\n")
        assert run("check", str(script))[0] == 0
        code, out, _ = run("verify", str(script), "--format", "machine")
        assert code == 0 and "verify\tt:2\tqsplit\tstate\t0.000e+00" in out

    def test_a_wire_the_conclusion_normalized_away_is_dropped(self, tmp_path):
        # Y &{1, -1} Y cancels to 0, so the projection on X also drops Y
        script = tmp_path / "dropped.qsc"
        script.write_text("atoms X Y\ntheorem t:\n  1: |- Q_X, Y &{1, -1} Y premise\n"
                          "  2: |- X, 0 by qsplit[pos](1)\nqed\n")
        assert run("check", str(script))[0] == 0
        code, out, _ = run("verify", str(script), "--format", "machine")
        assert code == 0 and "verify\tt:2\tqsplit\tstate\t0.000e+00" in out

    def test_an_overlap_names_its_wires_sorted_under_any_hash_seed(self, tmp_path):
        script = tmp_path / "overlap.qsc"
        script.write_text("atoms A B\ntheorem t:\n  1: A, B |- A # B premise\n"
                          "  2: |- A^, B^, A # B by negform(1)\nqed\n")
        argv = ["verify", "--format", "machine", str(script)]
        code, out, _ = run(*argv)
        assert code == 1
        assert "\tWireMismatch: overlapping wires {'A', 'B'}\n" in out
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-m", "qsc.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert (done.returncode, done.stdout) == (1, out), seed

    def test_psi_formation_fails_the_check(self, tmp_path):
        script = tmp_path / "psi.qsc"
        script.write_text("atoms A B\ntheorem t:\n  1: |- A, B^ premise\n"
                          "  2: |- A^, B premise\n"
                          "  3: |- Q_A @ Q_B by atform[psi](1, 2)\nqed\n")
        code, out, _ = run("check", str(script), "--format", "machine")
        assert code == 1 and "check\tt:3\tatform\tfail\tSchemaMismatch" in out
        assert run("verify", str(script))[0] == 3

    def test_a_hypothesis_naming_one_wire_twice_fails_the_check(self, tmp_path):
        script = tmp_path / "twice.qsc"
        script.write_text("atoms A\ntheorem t:\n  1: |- A, A^ premise\nqed\n")
        code, out, _ = run("check", str(script), "--format", "machine")
        assert code == 1 and out.startswith("check\tt:1\tpremise\tfail\tSchemaMismatch\t")
        code, out, err = run("verify", str(script))
        assert code == 3 and out == "" and "structural check" in err

    def test_a_state_wider_than_the_cap_is_an_error_entry(self, tmp_path):
        wires = [f"W{i}" for i in range(MAX_WIRES + 1)]
        script = tmp_path / "wide.qsc"
        script.write_text(f"atoms {' '.join(wires)}\ntheorem t:\n"
                          f"  1: |- {', '.join(wires)} premise\nqed\n")
        assert run("check", str(script))[0] == 0
        code, out, _ = run("verify", str(script), "--format", "machine")
        assert code == 1
        assert out.startswith(f"verify\tt:1\tpremise\terror\t-\tWireMismatch: "
                              f"{MAX_WIRES + 1} wires exceed the cap of {MAX_WIRES}")

    def test_a_nan_residual_fails(self, tmp_path):
        # the degrees overflow the replay; NaN must not hide behind a 0 residual
        script = tmp_path / "nan.qsc"
        script.write_text("atoms A B\ntheorem t:\n"
                          "  1: |-{1} Q_A, Q_B premise\n"
                          "  2: |-{1} Q_A # Q_B by parform(1)\n"
                          "  3: |-{1e308} Q_A{1e308, 1}, Q_B premise\n"
                          "  4: |-{1e308} Q_A{1e308, 1} # Q_B by parform(3)\n"
                          "  5: |- (Q_A # Q_B) &{1, 1e308} (Q_A{1e308, 1} # Q_B)"
                          " by andform(2, 4)\nqed\n")
        assert run("check", str(script))[0] == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run("verify", str(script), "--format", "machine")
        assert code == 1 and "verify\tt:4\tparform\tstate\tnan" in out
        assert "max_residual\tnan\nresult\tfail" in out
        # the NaN residual reports the overflow; numpy adds no warnings
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("steps", [
        "  1: |- Q_A premise\n  2: Q_A |- B^ premise\n",
        "  1: |- A premise\n  2: A |- A by axiom()\n",
        "  1: |- Q_A{0.6,0.8} premise\n  2: Q_A{0.6,0.8} |- A premise\n",
    ], ids=["other-wire", "axiom", "degreed"])
    def test_a_cut_that_is_not_a_measurement_is_an_error_entry(self, tmp_path, steps):
        # the cut checks, but the replay cannot say what it does to the state
        conclusion = "B^" if "B^" in steps else "A"
        script = tmp_path / "cut.qsc"
        script.write_text(f"atoms A B\ntheorem t:\n{steps}"
                          f"  3: |- {conclusion} by cut(1, 2)\nqed\n")
        assert run("check", str(script))[0] == 0
        code, out, _ = run("verify", str(script), "--format", "machine")
        assert code == 1 and "verify\tt:3\tcut\terror\t-\t" in out

    def test_the_at_axiom_and_explicit_reflection_carry_no_state(self):
        path = DATA / "at-reflection.qsc"
        assert run("check", str(path))[0] == 0
        code, out, _ = run("verify", str(path), "--format", "machine")
        kinds = [line.split("\t")[3] for line in out.splitlines() if line.startswith("verify\t")]
        assert code == 0 and kinds == ["nonsemantic"] * 4
        for theorem in parse_script(path.read_text()).theorems:
            tree = theorem.derivation
            assert parse_script(render(tree, "linear")).theorems[0].derivation == tree


class TestRender:
    def test_ascii(self):
        code, out, _ = run("render", str(CORPUS / "cut-parallel.qsc"))
        assert code == 0 and "&R" in out and "[premise]" in out

    def test_linear(self):
        code, out, _ = run("render", str(CORPUS / "epr.qsc"), "--style", "linear")
        assert code == 0 and "by epr(" in out

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.qsc")), ids=lambda p: p.stem)
    def test_the_linear_style_is_one_script_that_checks(self, tmp_path, path):
        # one atoms line, and each theorem under its own name
        code, out, _ = run("render", str(path), "--style", "linear")
        assert code == 0 and out.count("atoms ") == 1
        rendered = tmp_path / path.name
        rendered.write_text(out)
        assert run("check", str(rendered))[0] == 0
        original, back = parse_script(path.read_text()), parse_script(out)
        assert [t.name for t in back.theorems] == [t.name for t in original.theorems]
        for before, after in zip(original.theorems, back.theorems):
            assert after.derivation == before.derivation

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run("render", str(CORPUS / "epr.qsc"), "--out", str(target))
        assert code == 0 and out == ""
        assert "epr" in target.read_text()

    def test_an_ascii_drawing_past_the_bound_is_an_input_error(self, tmp_path):
        # 43 steps whose shared premises the drawing repeats: about 22 MB
        script = tmp_path / "ladder.qsc"
        script.write_text(ladder(14))
        target = tmp_path / "report.txt"
        code, out, err = run("render", str(script), "--out", str(target))
        assert code == 2 and out == "" and not target.exists()
        assert err == ("error: theorem ladder: ascii drawing of 57 lines x 393212 columns "
                       f"is past {MAX_ASCII_BYTES} bytes; use --style linear\n")
        code, out, _ = run("render", str(script), "--style", "linear")
        assert code == 0 and "43: |- Q_A by parallel[and](41, 42)" in out


@pytest.mark.parametrize("command", [["check", str(CORPUS / "ent.qsc")],
                                     ["verify", str(CORPUS / "ent.qsc")],
                                     ["render", str(CORPUS / "ent.qsc")],
                                     ["corpus"], ["teleport"]],
                         ids=["check", "verify", "render", "corpus", "teleport"])
def test_an_unwritable_out_is_an_input_error(tmp_path, command):
    target = tmp_path / "no-such-dir" / "report.txt"
    code, out, err = run(*command, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def _cli(*argv, **popen):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    popen = {"stderr": subprocess.PIPE, **popen}
    return subprocess.Popen([sys.executable, "-m", "qsc.cli", *map(str, argv)], env=env,
                            text=True, **popen)


# the 2,000-step report is about 123 kB, more than a pipe holds
@pytest.mark.parametrize("command, first", [(["check"], "theorem chain: goal |- A^\n"),
                                            (["render"], "-- theorem chain\n")],
                         ids=["check", "render"])
def test_a_reader_that_leaves_early_is_an_output_error(tmp_path, command, first):
    script = tmp_path / "chain.qsc"
    script.write_text(hadamard_chain(2_000))
    child = _cli(*command, script, stdout=subprocess.PIPE)
    assert child.stdout.readline() == first
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_is_an_output_error():
    with open("/dev/full", "w") as full:
        child = _cli("check", CORPUS / "tel.qsc", stdout=full)
        err = child.stderr.read()
    assert child.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


REFUSALS = [(["check", DATA / "broken.qsc"], 2), (["verify", DATA / "failing.qsc"], 3)]


def _refused_with_stderr(command, code, **popen):
    child = _cli(*command, stdout=subprocess.PIPE, **popen)
    out = child.stdout.read()
    child.stdout.close()
    assert child.wait(timeout=120) == code
    assert out == run(*map(str, command))[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command, code", REFUSALS, ids=["check", "verify"])
def test_a_refusal_keeps_its_code_when_stderr_is_full(command, code):
    with open("/dev/full", "w") as full:
        _refused_with_stderr(command, code, stderr=full)


@pytest.mark.parametrize("command, code", REFUSALS, ids=["check", "verify"])
def test_a_refusal_keeps_its_code_when_stderr_is_closed(command, code):
    _refused_with_stderr(command, code, stderr=None, preexec_fn=lambda: os.close(2))


class TestCorpus:
    def test_full_run(self):
        code, out, _ = run("corpus")
        assert code == 0 and "13/13" in out

    def test_machine_layout(self):
        code, out, _ = run("corpus", "--format", "machine")
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines if l.startswith("entry\t")]) == 13
        assert lines[-1] == "result\t13/13"

    @pytest.fixture
    def divergent_ent(self, monkeypatch):
        # only ent.qsc has this step; the swapped clause fails its check
        monkeypatch.setattr("qsc.corpus.corpus_text", lambda filename: corpus_text(filename)
                            .replace("cnot[a'](4)", "cnot[b'](4)"))

    def test_a_divergent_entry_is_named_after_the_report(self, divergent_ent):
        code, out, err = run("corpus", "--format", "machine")
        assert code == 1 and out.splitlines()[-1] == "result\t12/13"
        assert "entry\tent\tfail\t" in out
        assert err == "divergent entries: ent\n"

    def test_a_divergent_run_with_an_unwritable_out_names_only_the_out(
            self, divergent_ent, tmp_path):
        target = tmp_path / "no-such-dir" / "report.txt"
        code, out, err = run("corpus", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


class TestTeleport:
    def test_default_pair(self):
        code, out, _ = run("teleport")
        assert code == 0 and out.count("1.000000000") >= 4

    def test_basis_input(self):
        code, out, _ = run("teleport", "--alpha", "1", "--beta", "0")
        assert code == 0

    def test_complex_amplitudes(self):
        code, _, _ = run("teleport", "--alpha", "0.6i", "--beta", "0.8")
        assert code == 0

    def test_unnormalized_rejected(self):
        code, _, err = run("teleport", "--alpha", "1", "--beta", "1")
        assert code == 2 and "expected 1" in err

    def test_machine_rows(self):
        code, out, _ = run("teleport", "--format", "machine")
        rows = [l for l in out.splitlines() if l.startswith("outcome\t")]
        assert code == 0 and len(rows) == 4


# A loose --tol admits no bindings that a denotation would refuse:
# normalization is judged at one tolerance.
@pytest.mark.parametrize("command", [["verify", str(CORPUS / "h-rule.qsc")], ["corpus"],
                                     ["teleport"]])
@pytest.mark.parametrize("values", [["--beta", "0.9"], ["--tol", "1e-3", "--beta", "0.80001"],
                                    ["--alpha", "nan"], ["--alpha", "1.7e308+1.7e308i"]])
def test_unnormalized_bindings_are_an_input_error(command, values):
    code, out, err = run(*command, *values)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["check", str(CORPUS / "ent.qsc"), "--alpha", "2"],
                                  ["check", str(CORPUS / "ent.qsc"), "--beta", "2"],
                                  ["check", str(CORPUS / "ent.qsc"), "--tol", "5"],
                                  ["teleport", "--mode", "basic"]])
def test_an_option_the_command_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


def test_a_value_that_is_not_complex_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--alpha", "abc"])
    assert exc.value.code == 2
    assert "not a complex number: 'abc'" in capsys.readouterr().err


# teleport's branches all have probability 0.25 and fidelity 1, so only a
# tolerance that compares nothing could fail them
@pytest.mark.parametrize("command", [["verify", str(CORPUS / "tel.qsc")], ["corpus"],
                                     ["teleport"]])
@pytest.mark.parametrize("tol", ["nan", "-1", "-0.5", "abc"])
def test_a_tolerance_that_is_not_at_least_zero_is_a_usage_error(capsys, command, tol):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tol", tol])
    assert exc.value.code == 2
    assert f"not a tolerance (a number >= 0): {tol!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", str(CORPUS / "tel.qsc"), "--tol", "0"],
                                  ["teleport", "--tol", "inf"]])
def test_a_tolerance_of_zero_or_infinity_is_read(argv):
    assert run(*argv)[0] == 0
