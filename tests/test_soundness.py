"""Check and verify agree: the replay runs on the check's own entries.

Every derivation the kernel accepts verifies within tolerance (the
calculus's soundness, made executable), and no tree, checked or not, makes
``verify_soundness`` raise.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

import conftest as gen
from qsc.corpus import CORPUS, load_entry
from qsc.kernel import RULES, Derivation, LogicMode, check_derivation, postorder
from qsc.parser import script_labels
from qsc.semantics import verify_soundness
from qsc.syntax import And, Atom, Ent, Par, Qubit

RULES_COVERED = {"premise", "hrule", "hinverse", "cnot", "qsplit", "parallel",
                 "atform", "atimplrefl", "cut", "epr", "semidistrib", "parform"}


def test_verify_reports_on_every_random_tree():
    for seed in range(3000):
        tree = gen.random_tree(random.Random(seed))
        checked = check_derivation(tree, LogicMode.BASIC)
        verified = verify_soundness(tree, LogicMode.BASIC)
        assert [e.path for e in verified.entries] == [e.path for e in checked.entries]
        for c, v in zip(checked.entries, verified.entries):
            if not c.verdict.ok:
                assert (v.kind, v.note) == ("error", f"check failed: {c.verdict.code}")
        assert verified.ok <= checked.ok
        assert verified.check_ok == checked.ok


@pytest.mark.parametrize("block", range(20))
def test_every_generated_derivation_checks_and_verifies(block):
    for seed in range(block * 50, block * 50 + 50):
        tree = gen.valid_tree(random.Random(seed))
        checked = check_derivation(tree, LogicMode.BASIC)
        assert checked.ok, (seed, [(e.path, e.verdict) for e in checked.entries])
        verified = verify_soundness(tree, LogicMode.BASIC)
        assert verified.ok and verified.max_residual <= 1e-9, (seed, verified.entries)


def test_the_generator_reaches_every_rule_and_cnot_clause():
    rules, clauses, atform_params = set(), set(), set()
    for seed in range(1000):
        tree = gen.valid_tree(random.Random(seed))
        for entry in check_derivation(tree, LogicMode.BASIC).entries:
            rules.add(entry.rule)
            if entry.rule == "cnot":
                clauses.add(entry.node.params)
            if entry.rule in ("atform", "qsplit", "parallel"):
                atform_params.add(entry.node.params[:1])
    assert rules == RULES_COVERED
    assert {("a",), ("b",), ("a'",), ("b'",)} <= clauses
    assert {("phi",), ("pos",), ("neg",), ("and",), ("at",)} <= atform_params


def test_every_passing_verdict_names_one_action_kind():
    trees = [t.derivation for entry in CORPUS for t in load_entry(entry).theorems]
    trees += [gen.valid_tree(random.Random(seed)) for seed in range(1000)]
    kinds = set()
    for tree in trees:
        for e in check_derivation(tree, LogicMode.BASIC).entries:
            if e.verdict.ok:
                kinds.add(e.verdict.action[:1])
    assert kinds == {(), ("keep",), ("join",), ("gate",), ("project",)}


def _unit_pairs():
    yield from [(1, 0), (0, 1), (0, 1j), (1j, 0)]
    rng = random.Random(2018)
    for _ in range(50):
        a, b = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2))
        norm = math.hypot(abs(a), abs(b))
        yield a / norm, b / norm


def test_teleportation_verifies_for_every_input_qubit():
    script = load_entry(next(e for e in CORPUS if e.name == "tel"))
    tree, labels = script.theorems[0].derivation, script_labels(script)
    for alpha, beta in _unit_pairs():
        report = verify_soundness(tree, bindings={"alpha": alpha, "beta": beta},
                                  labels=labels)
        assert report.ok and report.max_residual <= 1e-9, (alpha, beta, report.entries)


# ---------------------------------------------------------------------------
# Near misses: one node of a valid derivation changed, with its premises
# kept.  Whatever the kernel accepts of these must still verify.

PARAM_WORDS = ("pos", "neg", "phi", "psi", "and", "at", "a", "b", "a'", "b'",
               "0", "1", "2") + gen.ATOM_NAMES


def degree_mutants(degrees):
    """A degree pair swapped, negated and multiplied by i."""
    a, b = degrees
    yield from ((b, a), (-a, -b), (1j * a, 1j * b))


def formula_mutants(f):
    """``f`` with one polarity flipped, one wire renamed, one degree pair
    dropped or changed, an atom and a qubit swapped, or an & or @ made #."""
    if isinstance(f, Atom):
        yield Atom(f.name, not f.negated)
        yield from (Atom(w, f.negated) for w in gen.ATOM_NAMES if w != f.name)
        yield Qubit(f.name)
    elif isinstance(f, Qubit):
        yield from (Qubit(w, f.degrees) for w in gen.ATOM_NAMES if w != f.name)
        yield from (Atom(f.name, negated) for negated in (False, True))
        if f.degrees is not None:
            yield Qubit(f.name)
            yield from (Qubit(f.name, d) for d in degree_mutants(f.degrees))
    elif isinstance(f, (And, Par, Ent)):
        if isinstance(f, And) and f.degrees is not None:
            yield And(f.left, f.right)
            yield from (And(f.left, f.right, d) for d in degree_mutants(f.degrees))
        if not isinstance(f, Par):
            yield Par(f.left, f.right)
        yield from (dataclasses.replace(f, left=g) for g in formula_mutants(f.left))
        yield from (dataclasses.replace(f, right=g) for g in formula_mutants(f.right))


def node_mutants(node):
    """Near misses of one node, by what they change."""
    conclusion = node.conclusion
    c = conclusion.consequent
    consequents = [c[:i] + (g,) + c[i + 1:] for i, f in enumerate(c) for g in formula_mutants(f)]
    consequents += [c[:i] + (c[i + 1], c[i]) + c[i + 2:] for i in range(len(c) - 1)]
    for consequent in consequents:
        yield "conclusion", dataclasses.replace(
            node, conclusion=dataclasses.replace(conclusion, consequent=consequent))
    if conclusion.degree is not None:
        yield "conclusion", dataclasses.replace(
            node, conclusion=dataclasses.replace(conclusion, degree=None))
    for i, param in enumerate(node.params):
        others = ((w for w in PARAM_WORDS if w != param) if isinstance(param, str)
                  else formula_mutants(param))
        for other in others:
            yield "parameter", dataclasses.replace(
                node, params=node.params[:i] + (other,) + node.params[i + 1:])
    if node.params:
        yield "parameter", dataclasses.replace(node, params=())
    for rule in sorted(RULES - {node.rule}):
        yield "rule", Derivation(rule, conclusion, node.premises, node.params)


@pytest.mark.parametrize("block", range(3))
def test_near_misses_of_valid_derivations_verify_when_they_check(block):
    accepted = dict.fromkeys(("conclusion", "parameter", "rule"), 0)
    for seed in range(block * 100, block * 100 + 100):
        tree = gen.valid_tree(random.Random(seed))
        for node, _ in postorder(tree):
            if not node.premises:
                continue
            for kind, mutant in node_mutants(node):
                checked = check_derivation(mutant, LogicMode.BASIC)
                verified = verify_soundness(mutant, LogicMode.BASIC)
                if checked.ok:
                    accepted[kind] += 1
                    assert verified.ok and verified.max_residual <= 1e-9, (
                        seed, kind, mutant.rule, mutant.conclusion, verified.entries)
    assert all(accepted.values()), accepted
