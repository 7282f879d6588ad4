"""Check and verify agree: the replay runs on the check's own entries.

Every derivation the kernel accepts verifies within tolerance (the
calculus's soundness, made executable), and no tree, checked or not, makes
``verify_soundness`` raise.
"""

from __future__ import annotations

import math
import random

import pytest

import conftest as gen
from qsc.corpus import CORPUS, load_entry
from qsc.kernel import LogicMode, check_derivation
from qsc.parser import script_labels
from qsc.semantics import verify_soundness

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
