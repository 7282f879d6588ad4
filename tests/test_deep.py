"""Derivations far deeper than the interpreter's recursion limit.

Every walk over a derivation goes through ``kernel.postorder``, which keeps
its own stack; these chains are deeper than the default limit of 1,000
frames, and the tests leave that limit as it is.  Formulas are walked
recursively, so the parser bounds them to ``MAX_FORMULA_TOKENS`` tokens.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import hadamard_chain
from qsc.kernel import LogicMode, check_derivation
from qsc.parser import parse_script, script_labels
from qsc.render import render_ascii, render_linear
from qsc.semantics import verify_soundness

SRC = pathlib.Path(__file__).parents[1] / "src"


@pytest.fixture(scope="module")
def long_chain():
    return parse_script(hadamard_chain(10_000))


def test_long_chain_checks(long_chain):
    report = check_derivation(long_chain.theorems[0].derivation, LogicMode.BASIC,
                              script_labels(long_chain))
    assert report.ok and len(report.entries) == 10_001
    assert report.entries[0].path == "chain:1" and report.entries[-1].path == "chain:10001"


def test_long_chain_verifies(long_chain):
    report = verify_soundness(long_chain.theorems[0].derivation, LogicMode.BASIC,
                              labels=script_labels(long_chain))
    assert report.ok and report.max_residual <= 1e-9
    assert [e.kind for e in report.entries].count("state") == 10_000


def test_long_chain_linear_render_parses_back(long_chain):
    tree = long_chain.theorems[0].derivation
    reparsed = parse_script(render_linear(tree)).theorems[0].derivation
    assert reparsed == tree


def test_deep_trees_compare_and_hash_without_recursion():
    def chain(steps):
        return parse_script(hadamard_chain(steps)).theorems[0].derivation

    tree = chain(1_200)
    reparsed = parse_script(render_linear(tree)).theorems[0].derivation
    assert reparsed == tree and hash(reparsed) == hash(tree)
    assert tree != chain(1_199)
    # same root, different leaf: the walk reaches the bottom of both trees
    assert tree != chain(1_198)


def test_chain_ascii_render_has_two_lines_per_step():
    depth = 600
    tree = parse_script(hadamard_chain(depth)).theorems[0].derivation
    lines = render_ascii(tree).splitlines()
    assert len(lines) == 2 * depth + 1
    assert lines[0].strip() == "|- A^   [premise]" and lines[-1].strip() == "|- A^"


def _cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qsc.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


# the ascii drawing of 1,200 steps is about 109 kB, within render.MAX_ASCII_BYTES
@pytest.mark.parametrize("argv", [["check"], ["verify"], ["render", "--style", "linear"],
                                  ["render", "--style", "ascii"]],
                         ids=["check", "verify", "render-linear", "render-ascii"])
def test_cli_on_a_deep_chain(tmp_path, argv):
    script = tmp_path / "chain.qsc"
    script.write_text(hadamard_chain(1_200))
    done = _cli(*argv, script)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_cli_draws_a_10000_step_chain_in_ascii(tmp_path):
    script = tmp_path / "chain.qsc"
    script.write_text(hadamard_chain(10_000))
    done = _cli("render", "--style", "ascii", script)
    assert done.returncode == 0, done.stderr
    # each theorem's header, its drawing, then a blank line
    drawings = [d.splitlines()[1:] for d in done.stdout.split("\n\n") if d]
    assert [len(d) for d in drawings] == [2 * 10_000 + 1]
    assert drawings[0][-1].strip() == "|- A^"


# One premise formula in two shapes, nested parentheses and a flat chain of
# terms: 255 tokens are within MAX_FORMULA_TOKENS, the longer ones are not.
def _deep_formula(shape, n):
    return "(" * n + "A" + ")" * n if shape == "parens" else " # ".join(["A"] * n)


@pytest.mark.parametrize("command", ["check", "verify", "render"])
@pytest.mark.parametrize("shape, n", [("parens", 250), ("terms", 500)])
def test_cli_on_a_formula_past_the_bound(tmp_path, shape, n, command):
    script = tmp_path / "deep.qsc"
    script.write_text(f"atoms A\ntheorem t:\n  1: |- {_deep_formula(shape, n)} premise\nqed\n")
    done = _cli(command, script)
    assert done.returncode == 2 and done.stdout == ""
    assert re.fullmatch(rf"{re.escape(str(script))}:3:\d+: ScriptSyntaxError: .*\n",
                        done.stderr), done.stderr


@pytest.mark.parametrize("command", ["check", "verify", "render"])
@pytest.mark.parametrize("shape, n", [("parens", 127), ("terms", 128)])
def test_cli_on_a_formula_within_the_bound(tmp_path, shape, n, command):
    script = tmp_path / "deep.qsc"
    script.write_text(f"atoms A\ntheorem t:\n  1: |- {_deep_formula(shape, n)} premise\nqed\n")
    done = _cli(command, script)
    # 128 terms on one wire overlap, which verify reports as an error entry
    assert done.returncode == (1 if (command, shape) == ("verify", "terms") else 0)
    assert "Traceback" not in done.stderr


def test_a_parenthesis_costs_the_parser_four_frames():
    # 127 levels at 4 frames each need a recursion limit of about 520; at
    # 5 frames a level they would need about 650
    code = ("import sys\nfrom qsc.parser import parse_formula\nsys.setrecursionlimit(600)\n"
            "print(repr(parse_formula('(' * 127 + 'A' + ')' * 127)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "Atom(name='A', negated=False)\n"), done.stderr
