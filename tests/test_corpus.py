"""The bundled corpus: all entries pass, faults localize, output is stable."""

from __future__ import annotations

import numpy as np
import pytest

from qsc.corpus import CORPUS, DEFAULT_BINDINGS, corpus_text, run_corpus, run_entry
from qsc.kernel import LogicMode, check_derivation
from qsc.parser import parse_script, script_labels
from qsc.semantics import denote_assertion
from qsc.syntax import SQRT1_2

S = SQRT1_2
NAMES = [entry.name for entry in CORPUS]


def test_corpus_has_the_thirteen_expected_entries():
    assert NAMES == [
        "cut-destroys-cat-1", "cut-destroys-cat-0", "cut-parallel",
        "epr", "epr-parallel", "h-rule", "h-parallel",
        "cnot-derivation", "cnot-action", "cnot-parallel",
        "ent", "nogo", "tel",
    ]


@pytest.mark.parametrize("entry", CORPUS, ids=NAMES)
def test_entry_passes_in_basic_mode(entry):
    result = run_entry(entry, LogicMode.BASIC)
    assert result.check_ok, f"{entry.name} fails the structural check"
    assert result.goal_ok, f"{entry.name} reaches the wrong conclusion"
    assert result.verify_ok, f"{entry.name} breaks soundness"
    assert result.semantic_ok is not False, result.semantic_note
    assert result.ok


def test_basic_pass_set_is_contained_in_intuitionistic():
    basic = {r.name: r.ok for r in run_corpus(LogicMode.BASIC)}
    intu = {r.name: r.ok for r in run_corpus(LogicMode.INTUITIONISTIC_LEFT)}
    assert all(intu[name] for name, ok in basic.items() if ok)
    assert sum(intu.values()) == sum(basic.values()) == 13


def test_swapped_cnot_clause_fails_only_the_ent_entry():
    text = corpus_text("ent.qsc").replace("cnot[a'](4)", "cnot[b'](4)")
    script = parse_script(text)
    report = check_derivation(script.theorems[0].derivation, LogicMode.BASIC,
                              script_labels(script))
    assert not report.ok
    failing = [e for e in report.entries if not e.verdict.ok]
    assert failing[0].path == "ent:6" and failing[0].rule == "cnot"
    # every other entry keeps passing
    others = [r for r in run_corpus() if r.name != "ent"]
    assert all(r.ok for r in others) and len(others) == 12


def test_teleportation_conclusion_state():
    entry = next(e for e in CORPUS if e.name == "tel")
    script = parse_script(corpus_text(entry.filename))
    goal = script.theorems[-1].goal
    state = denote_assertion(goal, DEFAULT_BINDINGS)
    target = np.zeros(4, dtype=complex)
    target[0], target[3] = 0.6, 0.8
    aligned = state.vector() if state.wires == ("C", "B") else None
    assert aligned is not None
    assert np.allclose(aligned, target, atol=1e-9)


def test_machine_corpus_report_is_deterministic():
    from qsc.cli import main
    import io, contextlib

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["corpus", "--format", "machine"])
        return code, buf.getvalue()

    first, second = run(), run()
    assert first == second
    assert first[0] == 0
    assert first[1].encode() == second[1].encode()


# The runner ends every entry in a row, whatever the bindings.
def test_missing_bindings_fail_only_the_entry_that_needs_them():
    results = run_corpus(bindings={})
    assert len(results) == 13
    assert [r.name for r in results if not r.ok] == ["tel"]


def test_unnormalized_bindings_fail_every_entry():
    results = run_corpus(bindings={"alpha": 0.6, "beta": 0.9})
    assert len(results) == 13 and not any(r.ok for r in results)
