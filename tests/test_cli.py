"""Command-line behavior: exit-code taxonomy, formats, file output."""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from qsc.cli import main
from qsc.semantics import MAX_WIRES

DATA = pathlib.Path(__file__).parent / "data"
CORPUS = pathlib.Path(__file__).parents[1] / "src" / "qsc" / "corpus"


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

    def test_missing_file(self):
        code, _, err = run("check", "no-such-file.qsc")
        assert code == 2 and "cannot read" in err

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

    def test_psi_formation_fails_the_check(self, tmp_path):
        script = tmp_path / "psi.qsc"
        script.write_text("atoms A B\ntheorem t:\n  1: |- A, B^ premise\n"
                          "  2: |- A^, B premise\n"
                          "  3: |- Q_A @ Q_B by atform[psi](1, 2)\nqed\n")
        code, out, _ = run("check", str(script), "--format", "machine")
        assert code == 1 and "check\tt:3\tatform\tfail\tSchemaMismatch" in out
        assert run("verify", str(script))[0] == 3

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


class TestRender:
    def test_ascii(self):
        code, out, _ = run("render", str(CORPUS / "cut-parallel.qsc"))
        assert code == 0 and "&R" in out and "[premise]" in out

    def test_linear(self):
        code, out, _ = run("render", str(CORPUS / "epr.qsc"), "--style", "linear")
        assert code == 0 and "by epr(" in out

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run("render", str(CORPUS / "epr.qsc"), "--out", str(target))
        assert code == 0 and out == ""
        assert "epr" in target.read_text()


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
@pytest.mark.parametrize("values", [["--beta", "0.9"], ["--tol", "1e-3", "--beta", "0.80001"]])
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
