"""Check and verify agree: the replay runs on the check's own entries.

Every derivation the kernel accepts verifies within tolerance (the
calculus's soundness, made executable), and no tree, checked or not, makes
``verify_soundness`` raise.
"""

from __future__ import annotations

import random

import pytest

import conftest as gen
from qsc.kernel import LogicMode, check_derivation
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
