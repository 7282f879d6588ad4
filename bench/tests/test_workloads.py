"""Generated inputs are valid by construction, and each altered step is the
first one the kernel rejects, with the code its rule's schema implies."""

import pytest

import run
import workloads
from qsc import (LogicMode, check_derivation, denote_assertion, parse_script,
                 script_labels, verify_soundness)
from qsc.syntax import sequent_equivalent
from qsc.parser import parse_sequent

SEEDS = (0, 1, 7)


def small(name, seed):
    if name == "chain":
        return workloads.chain_workload(seed, steps=12, count=3)
    if name == "wide":
        return workloads.wide_workload(seed, wires=6, count=3)
    return workloads.corpus_workload(seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["corpus", "chain", "wide"])
def test_accepted_scripts_check_verify_and_reach_their_goals(name, seed):
    workload = small(name, seed)
    for case in workload.cases:
        script = parse_script(case.text)
        labels = script_labels(script)
        assert case.steps == sum(len(t.steps) for t in script.theorems)
        for theorem in script.theorems:
            assert check_derivation(theorem.derivation, LogicMode.BASIC, labels).ok
            sound = verify_soundness(theorem.derivation, LogicMode.BASIC, 1e-9,
                                     workload.bindings, labels)
            assert sound.ok and sound.max_residual <= 1e-9
        for goal in case.goals:
            stated = script.theorem(goal.theorem).goal
            assert sequent_equivalent(stated, parse_sequent(goal.text, script.atoms))
            if goal.target is not None:
                state = denote_assertion(stated, workload.bindings)
                assert workloads.states_match(state.wires, state.vector(), goal.target)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["corpus", "chain", "wide"])
def test_altered_step_is_the_first_rejected(name, seed):
    for case in small(name, seed).cases:
        changed = [(a, b) for a, b in zip(case.text.splitlines(),
                                           case.reject_text.splitlines()) if a != b]
        assert len(changed) == 1
        script = parse_script(case.reject_text)
        labels = script_labels(script)
        for theorem in script.theorems:
            report = check_derivation(theorem.derivation, LogicMode.BASIC, labels)
            if theorem.name != case.reject_theorem:
                assert report.ok
                continue
            first = next(e for e in report.entries if not e.verdict.ok)
            assert first.path == f"{case.reject_theorem}:{case.reject_step}"
            assert first.verdict.code == case.reject_code


def test_every_corpus_file_has_an_alterable_step():
    for case in workloads.corpus_workload(0).cases:
        assert workloads.alteration_candidates(case.text), case.name


@pytest.mark.parametrize("sequent, rule, altered", [
    ("|- B, A^", "cnot", "|- B, A"),
    ("|- B, A & A^", "parallel", "|- B^, A & A^"),
    ("|-{beta} C @ Q_B", "cut", "|-{beta} C^ @ Q_B"),
    ("Q_B |- B", "andrefl", "Q_B |- B^"),
    ("|- (W01 # W02^) # W03, W04", "parform", "|- (W01 # W02^) # W03, W04^"),
    ("|- A^ &{0.5, 0.5} A", "hrule", "|- A^ &{0.5, -0.5} A"),
    ("|- A^ &{0.5, -0.5} A", "hrule", "|- A^ &{0.5, 0.5} A"),
    ("|- Q_A @ Q_B", "parallel", None),
])
def test_altered_sequent(sequent, rule, altered):
    assert workloads.altered_sequent(sequent, rule) == altered


def test_chain_and_wide_sizes_are_fixed():
    chain = workloads.chain_workload(3)
    assert {c.steps for c in chain.cases} == {2 * (workloads.CHAIN_STEPS + 1)}
    wide = workloads.wide_workload(3)
    assert {c.steps for c in wide.cases} == {2 * workloads.WIDE_WIRES + 3}
    assert len(chain.cases) == len(chain.cli_args) == workloads.CHAIN_SCRIPTS
    assert len(wide.cases) == len(wide.cli_args) == workloads.WIDE_SCRIPTS


def test_same_seed_same_inputs():
    for name, make in workloads.WORKLOADS.items():
        a, b = make(5), make(5)
        assert [c.text for c in a.cases] == [c.text for c in b.cases]
        assert [c.reject_text for c in a.cases] == [c.reject_text for c in b.cases]
        assert a.cli_args == b.cli_args


def test_depth_and_tree_equality_without_recursion():
    script = parse_script(workloads.chain_workload(0, steps=1500, count=1).cases[0].text)
    tree = script.theorems[0].derivation
    assert run.depth(tree) == 1500
    assert run.same_tree(tree, parse_script(script.source).theorems[0].derivation)
    assert not run.same_tree(tree, script.theorems[1].derivation)
