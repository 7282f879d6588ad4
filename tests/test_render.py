"""The ascii drawing: the same bytes as the quadratic renderer it replaced,
and a refusal, before any line is built, of drawings past the byte bound.

``reference_ascii`` is that earlier renderer, kept verbatim: it re-pads
every line above a node at every level, so it takes time quadratic in its
output, but its bytes are the ones the golden files pin.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from typing import Dict, List

import pytest

import conftest as gen
from qsc import RenderTooLarge
from qsc.kernel import Derivation, postorder
from qsc.parser import parse_script
from qsc.render import MAX_ASCII_BYTES, render_ascii, rule_label
from qsc.syntax import Atom, Sequent, sequent_str

# the module; ``qsc.render`` as an attribute is the function
RENDER = importlib.import_module("qsc.render")


# ---------------------------------------------------------------------------
# The reference renderer

def _stack(blocks: List[List[str]], gap: int = 4) -> List[str]:
    height = max(len(b) for b in blocks)
    widths = [max((len(line) for line in b), default=0) for b in blocks]
    padded = []
    for b, w in zip(blocks, widths):
        rows = [" " * w] * (height - len(b)) + [line.ljust(w) for line in b]
        padded.append(rows)
    return [(" " * gap).join(row).rstrip() for row in zip(*padded)]


def _center(line: str, width: int) -> str:
    return " " * ((width - len(line)) // 2) + line


def _ascii_block(node: Derivation, premise_blocks: List[List[str]]) -> List[str]:
    """The node's block, drawn under the blocks of its premises."""
    conclusion = sequent_str(node.conclusion)
    if not node.premises:
        return [f"{conclusion}   [{rule_label(node)}]"]
    above = _stack(premise_blocks)
    width = max(max(map(len, above)), len(conclusion))
    bar = "-" * width + f" {rule_label(node)}"
    return [_center(line, width) for line in above] + [bar, _center(conclusion, width)]


def reference_ascii(tree: Derivation) -> str:
    # A shared premise is drawn again under each parent.  Its block is kept
    # only until the last parent that draws it is built.
    nodes = [node for node, _ in postorder(tree)]
    last_parent = {id(p): node for node in nodes for p in node.premises}
    blocks: Dict[int, List[str]] = {}
    for node in nodes:
        blocks[id(node)] = _ascii_block(node, [blocks[id(p)] for p in node.premises])
        for p in node.premises:
            if last_parent[id(p)] is node:
                blocks.pop(id(p), None)
    return "\n".join(line.rstrip() for line in blocks[id(tree)]) + "\n"


# ---------------------------------------------------------------------------
# Trees

def tree_of(text: str) -> Derivation:
    return parse_script(text).theorems[0].derivation


def comb(levels: int) -> Derivation:
    """Two-premise nodes, each over the comb below and a leaf of its own;
    the comb is the left premise on even levels and the right one on odd."""
    node = Derivation("premise", Sequent((), (Atom("A"),)))
    for i in range(levels):
        leaf = Derivation("premise", Sequent((), (Atom(f"B{i}", i % 3 == 0),)))
        premises = (node, leaf) if i % 2 == 0 else (leaf, node)
        node = Derivation("andform", Sequent((), (Atom("A", i % 2 == 1),) * (i % 3 + 1)),
                          premises)
    return node


# ---------------------------------------------------------------------------
# Same bytes

def test_valid_trees_draw_as_before():
    for seed in range(1000):
        tree = gen.valid_tree(random.Random(seed))
        assert render_ascii(tree) == reference_ascii(tree), seed


def test_a_comb_draws_as_before():
    tree = comb(300)
    assert render_ascii(tree) == reference_ascii(tree)


@pytest.mark.parametrize("rungs", range(1, 13))
def test_a_ladder_draws_as_before(rungs):
    # each rung's premise is shared by its two qsplit branches
    tree = tree_of(gen.ladder(rungs))
    assert render_ascii(tree) == reference_ascii(tree)


def test_a_1000_step_chain_draws_as_before():
    text = render_ascii(tree_of(gen.hadamard_chain(1000)))
    assert len(text) == 7_081_049
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "02d1606f60bdaad735705a377efc22ee29a243caf4d5b642272b57a727f927fe")


# ---------------------------------------------------------------------------
# The bound

@pytest.mark.parametrize("text", [gen.ladder(14), gen.hadamard_chain(10_000)],
                         ids=["ladder-14", "chain-10000"])
def test_a_drawing_past_the_bound_is_refused(text):
    with pytest.raises(RenderTooLarge) as refused:
        render_ascii(tree_of(text))
    assert refused.value.lines * (refused.value.columns + 1) > MAX_ASCII_BYTES
    # refused from the layout alone: render_ascii had drawn no block yet
    frame = refused.tb.tb_next.tb_frame
    assert frame.f_code is render_ascii.__code__ and "blocks" not in frame.f_locals


def test_the_refusal_names_the_exact_size(monkeypatch):
    monkeypatch.setattr(RENDER, "MAX_ASCII_BYTES", 0)
    trees = [gen.valid_tree(random.Random(seed)) for seed in range(200)]
    for tree in trees + [comb(40), tree_of(gen.ladder(5)), tree_of(gen.hadamard_chain(300))]:
        with pytest.raises(RenderTooLarge) as refused:
            render_ascii(tree)
        lines = reference_ascii(tree).splitlines()
        assert refused.value.lines == len(lines)
        assert refused.value.columns == max(map(len, lines))


def test_the_bound_is_within_two_percent_of_the_bytes_on_chains_and_ladders():
    for tree in (tree_of(gen.hadamard_chain(1000)), tree_of(gen.ladder(12))):
        lines = render_ascii(tree).splitlines()
        size = sum(len(line) + 1 for line in lines)
        assert size <= len(lines) * (max(map(len, lines)) + 1) <= 1.02 * size
