"""Byte-for-byte golden outputs, path agreement and the replay's garbage.

The golden files under ``data/golden`` pin the machine reports, both render
layouts and the corpus table for the bundled corpus, the tree paths the
checker gives unlabelled trees, the root verdict, action included, of
each near miss of a generated valid derivation, and the parse outcome of
each text-level fuzz mutant.  Regenerate them only for an intended change
of output, with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import gc
import hashlib
import pathlib
import random

import pytest

import conftest as gen
from qsc.corpus import CORPUS, DEFAULT_BINDINGS, load_entry
from qsc.kernel import LogicMode, check_derivation, postorder
from qsc.parser import ScriptError, parse_script, script_labels
from qsc.render import render
from qsc.semantics import QState, verify_soundness
from test_cli import CORPUS as CORPUS_DIR, run
from test_fuzz import MUTANTS, mutant
from test_soundness import node_mutants

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
COMMANDS = {
    "check": ("check", "--format", "machine"),
    "verify": ("verify", "--format", "machine"),
    "ascii": ("render", "--style", "ascii"),
    "linear": ("render", "--style", "linear"),
}
RANDOM_SEEDS = range(50)
NEAR_MISS_SEEDS = range(10)


def random_tree_paths() -> str:
    lines = []
    for seed in RANDOM_SEEDS:
        report = check_derivation(gen.random_tree(random.Random(seed)), LogicMode.BASIC)
        for e in report.entries:
            lines.append(f"{seed}\t{e.path}\t{e.rule}\t{e.verdict.code}\t{e.verdict.message}")
    return "\n".join(lines) + "\n"


def near_miss_verdicts() -> str:
    lines = []
    for seed in NEAR_MISS_SEEDS:
        for node, _ in postorder(gen.valid_tree(random.Random(seed))):
            for kind, mutant in node_mutants(node) if node.premises else ():
                v = check_derivation(mutant, LogicMode.BASIC).entries[-1].verdict
                lines.append(f"{seed}\t{kind}\t{mutant.rule}\t{v.code}\t{v.message}\t{v.action!r}")
    return "\n".join(lines) + "\n"


def parse_outcomes() -> str:
    """One line per fuzz mutant: the refusal's class, span and message, or
    a digest of both renders of every theorem when it parses."""
    lines = []
    rng = random.Random(0)
    for i in range(MUTANTS):
        try:
            script = parse_script(mutant(rng))
        except ScriptError as exc:
            lines.append(f"{i}\t{type(exc).__name__}\t{exc.span}\t{exc.message}")
            continue
        drawings = "".join(render(t.derivation, style) for t in script.theorems
                           for style in ("ascii", "linear"))
        lines.append(f"{i}\tparsed\t{hashlib.sha256(drawings.encode()).hexdigest()[:16]}")
    return "\n".join(lines) + "\n"


CASES = ([f"{e.name}.{kind}" for e in CORPUS for kind in COMMANDS]
         + ["corpus.machine", "random-tree-paths", "near-miss-verdicts", "parse-outcomes"])


def golden_output(case: str):
    """Exit code and text of one pinned output."""
    if case == "corpus.machine":
        return run("corpus", "--format", "machine")[:2]
    if case == "random-tree-paths":
        return 0, random_tree_paths()
    if case == "near-miss-verdicts":
        return 0, near_miss_verdicts()
    if case == "parse-outcomes":
        return 0, parse_outcomes()
    name, kind = case.rsplit(".", 1)
    return run(*COMMANDS[kind], str(CORPUS_DIR / f"{name}.qsc"))[:2]


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case):
    code, text = golden_output(case)
    assert code == 0
    assert text == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_check_and_verify_list_the_same_paths(entry):
    script = load_entry(entry)
    labels = script_labels(script)
    for theorem in script.theorems:
        checked = check_derivation(theorem.derivation, LogicMode.BASIC, labels)
        verified = verify_soundness(theorem.derivation, LogicMode.BASIC, labels=labels)
        assert [e.path for e in checked.entries] == [e.path for e in verified.entries]


def test_verify_soundness_leaves_no_state_for_the_cyclic_collector():
    theorem = load_entry(CORPUS[-1]).theorems[-1]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        assert verify_soundness(theorem.derivation, bindings=DEFAULT_BINDINGS).ok
        gc.collect()
        leaked = [x for x in gc.garbage if isinstance(x, QState)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(golden_output(case)[1], encoding="utf-8")
