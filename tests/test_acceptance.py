"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances are pinned here and nowhere else: 1e-9 for state
residuals and fidelities, 1e-12 for exact algebraic identities, exact
equality where the arithmetic is closed under the float grid.
"""

from __future__ import annotations

import pathlib
import random
import time

import numpy as np
import pytest

import conftest as gen
from qsc.corpus import CORPUS, corpus_text, load_entry
from qsc.kernel import LogicMode, check_derivation
from qsc.parser import (
    ScriptError,
    UnknownRule,
    parse_script,
    script_labels,
    tokenize,
)
from qsc.render import render
from qsc.semantics import (
    H_MATRIX,
    M0_MATRIX,
    M1_MATRIX,
    QState,
    denote_assertion,
    entanglement_entropy,
    fidelity,
    residual,
    teleport_oracle,
    verify_soundness,
)
from qsc.syntax import SQRT1_2, And, Atom, Qubit, normalize

TOL = 1e-9
EXACT = 1e-12
S = SQRT1_2
DATA = pathlib.Path(__file__).parent / "data"
BINDINGS = {"alpha": 0.6 + 0j, "beta": 0.8 + 0j}


def report(number: int, label: str) -> None:
    print(f"PASS  criterion {number}: {label}")


def theorem_goal_state(name: str, bindings=None) -> QState:
    entry = next(e for e in CORPUS if e.name == name)
    script = load_entry(entry)
    return denote_assertion(script.theorems[-1].goal, bindings)


def test_c01_corpus_completeness():
    start = time.perf_counter()
    checked = 0
    for entry in CORPUS:
        script = load_entry(entry)
        for theorem in script.theorems:
            assert check_derivation(theorem.derivation, LogicMode.BASIC).ok, \
                f"{entry.name}/{theorem.name} fails in basic mode"
            checked += 1
    elapsed = time.perf_counter() - start
    assert len(CORPUS) == 13
    assert elapsed < 1.0, f"corpus check took {elapsed:.3f}s"
    report(1, f"13/13 corpus derivations check in basic mode "
              f"({checked} theorems, {elapsed * 1000:.0f} ms)")


def test_c02_ent_semantics():
    # independent oracle: explicit matrix-vector product, no package operators
    cnot_ba = np.array([[1, 0, 0, 0],
                        [0, 1, 0, 0],
                        [0, 0, 0, 1],
                        [0, 0, 1, 0]], dtype=complex)
    plus_b = np.array([1, 1], dtype=complex) / np.sqrt(2)
    zero_a = np.array([1, 0], dtype=complex)
    expected = cnot_ba @ np.kron(plus_b, zero_a)
    assert np.allclose(expected, [S, 0, 0, S])
    goal = theorem_goal_state("ent")
    fid = fidelity(goal, QState(("B", "A"), expected))
    assert fid >= 1.0 - TOL
    report(2, f"entanglement-theorem conclusion matches the gate oracle "
              f"(fidelity {fid:.12f})")


def test_c03_no_go_separability():
    separable = QState(("B", "A"), np.kron([S, S], [S, S]).astype(complex))
    goal = theorem_goal_state("nogo")
    fid = fidelity(goal, separable)
    assert fid >= 1.0 - TOL
    entropies = [entanglement_entropy(goal, w) for w in goal.wires]
    assert all(e <= TOL for e in entropies)
    report(3, f"parallel controlled-not concludes a separable pair "
              f"(fidelity {fid:.12f}, entropies {entropies[0]:.1e}/{entropies[1]:.1e})")


def test_c04_parallel_mirrors_are_exact_identities():
    for name in ("cut-parallel", "epr-parallel"):
        entry = next(e for e in CORPUS if e.name == name)
        script = load_entry(entry)
        theorem = script.theorems[-1]
        premise = theorem.steps[0].sequent
        conclusion = theorem.goal
        assert np.array_equal(denote_assertion(conclusion).vector(),
                              denote_assertion(premise).vector())
        sound = verify_soundness(theorem.derivation, LogicMode.BASIC, TOL)
        assert sound.ok and sound.max_residual == 0.0
    report(4, "parallel cut and parallel EPR leave the state unchanged "
              "(residual exactly 0: one- and two-qubit mirrors)")


def test_c05_parallel_hadamard_collapse():
    plus = Qubit("A", (complex(S), complex(S)))
    minus = Qubit("A", (complex(S), complex(-S)))
    assert normalize(And(plus, minus)) == Atom("A", negated=True)
    goal = theorem_goal_state("h-parallel")
    r = residual(goal, QState(("A",), np.array([1, 0], dtype=complex)))
    assert r <= TOL
    entry = next(e for e in CORPUS if e.name == "h-parallel")
    sound = verify_soundness(load_entry(entry).theorems[-1].derivation,
                             LogicMode.BASIC, TOL)
    assert sound.ok
    report(5, f"parallel Hadamard branches collapse to the zero bit "
              f"(residual {r:.1e})")


def test_c06_teleportation():
    entry = next(e for e in CORPUS if e.name == "tel")
    script = load_entry(entry)
    theorem = script.theorems[-1]
    assert check_derivation(theorem.derivation, LogicMode.BASIC).ok
    goal = denote_assertion(theorem.goal, BINDINGS)
    target = QState(("C", "B"), np.array([0.6, 0, 0, 0.8], dtype=complex))
    assert residual(goal, target) <= TOL
    assert np.allclose(goal.vector(), target.amps, atol=TOL)
    outcomes = teleport_oracle(0.6, 0.8)
    assert len(outcomes) == 4
    for o in outcomes:
        assert abs(o.probability - 0.25) <= TOL
        assert abs(o.fidelity - 1.0) <= TOL
    report(6, "teleportation conclusion is the degreed entangled state and "
              "the oracle returns four perfect quarter-probability outcomes")


def test_c07_substructurality_fuzz():
    banned = ("contraction", "weakening", "permutation")
    pool = ("|- A", "A |- A", "|- A & A^", "|- Q_A @ Q_B", "B, A |-")
    rng = random.Random(20250809)
    rejected = 0
    for case in range(1000):
        n_steps = rng.randrange(1, 5)
        slot = rng.randrange(n_steps)
        lines = ["atoms A B", f"theorem fuzz_{case}:"]
        for i in range(n_steps):
            if i == slot:
                refs = str(i) if i else ""
                lines.append(f"  {i + 1}: {rng.choice(pool)} "
                             f"by {rng.choice(banned)}({refs})")
            else:
                lines.append(f"  {i + 1}: {rng.choice(pool)} premise")
        lines.append("qed")
        with pytest.raises(UnknownRule):
            parse_script("\n".join(lines))
        rejected += 1
    assert rejected == 1000
    report(7, "contraction/weakening/permutation rejected in 1000/1000 "
              "fuzzed scripts")


def test_c08_no_associativity_through_right_context():
    script = parse_script((DATA / "nonassoc.qsc").read_text())
    result = check_derivation(script.theorems[0].derivation, LogicMode.BASIC,
                              script_labels(script))
    assert not result.ok
    failing = [e for e in result.entries if not e.verdict.ok]
    assert failing[0].rule == "atform"
    assert failing[0].verdict.code == "VisibilityViolation"
    report(8, "triple-entanglement attempt fails: the third qubit is an "
              "active context on the right of the formation rule")


def test_c09_algebraic_identities():
    mirror = M0_MATRIX + M1_MATRIX
    assert np.array_equal(mirror, np.eye(2))
    assert np.array_equal(np.kron(mirror, mirror), np.eye(4))
    assert np.max(np.abs(H_MATRIX @ H_MATRIX - np.eye(2))) <= EXACT
    ent = denote_assertion(parse_script(
        "atoms A B\ntheorem t:\n  1: |- Q_A @ Q_B premise\nqed\n"
    ).theorems[0].goal)
    expanded = denote_assertion(parse_script(
        "atoms A B\ntheorem t:\n  1: |- (A # B) & (A^ # B^) premise\nqed\n"
    ).theorems[0].goal)
    assert ent.wires == expanded.wires
    assert np.array_equal(ent.vector(), expanded.vector())
    report(9, "mirror operators are entrywise identities, H is self-inverse "
              "within 1e-12, and the entangled assertion equals its "
              "conjunctive expansion exactly")


def test_c10_format_laws():
    # round-trip: every corpus theorem and 1000 generated trees
    trees = 0
    for entry in CORPUS:
        script = load_entry(entry)
        for theorem in script.theorems:
            text = render(theorem.derivation, "linear")
            assert parse_script(text).theorems[0].derivation == theorem.derivation
            trees += 1
    for seed in range(1000):
        tree = gen.random_tree(random.Random(seed))
        assert parse_script(render(tree, "linear")).theorems[0].derivation == tree
        trees += 1

    # mutation corpus: single-token deletions over all corpus sources.
    # Deletions that stay inside the grammar by its own optionality points
    # (postfix ^, a sole step reference, a formula standing alone on one
    # side of a sequent) cannot be parse errors; every one of those must
    # instead fail the kernel check.
    mutants = rejected = survivors = 0
    for entry in CORPUS:
        tokens = [t.text for t in tokenize(corpus_text(entry.filename)) if t.text]
        for i in range(len(tokens)):
            mutant = " ".join(tokens[:i] + tokens[i + 1:])
            mutants += 1
            try:
                script = parse_script(mutant)
            except ScriptError as exc:
                assert exc.span.line >= 1 and exc.span.column >= 1
                rejected += 1
                continue
            survivors += 1
            assert not all(check_derivation(t.derivation, LogicMode.BASIC).ok
                           for t in script.theorems), \
                f"mutant of {entry.name} (deleted {tokens[i]!r}) still checks"
    assert rejected + survivors == mutants and rejected > 0
    report(10, f"render/parse identity on {trees} trees; {rejected} grammar-"
               f"breaking deletions rejected with spans, all {survivors} "
               f"grammatical survivors fail the kernel check")
