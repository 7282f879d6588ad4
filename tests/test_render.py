"""The ascii drawing: the same bytes as a plain quadratic renderer of the
same layout, and a refusal, before any row is built, of drawings past the
byte bound.

``reference_ascii`` draws each block as a list of lines and re-pads every
line above a node at every level, so it takes time quadratic in its output.
It states the layout directly: a bar spans its premises' bodies and the
gaps between them, and a rule label, or a leaf's ``[label]``, hangs past
the body it follows and widens no bar below.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import tracemalloc
from typing import Dict, List, Tuple

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
# The reference renderer.  A block is its lines and its body: the width of
# its bar, or of a leaf's conclusion.

Block = Tuple[List[str], int]


def _stack(blocks: List[Block], gap: int = 4) -> Block:
    """Blocks side by side, each ``gap`` columns past the widest line on its
    left, bottom-aligned; the body runs from the first block's body to the
    end of the last one's."""
    height = max(len(lines) for lines, _ in blocks)
    widths = [max(map(len, lines)) for lines, _ in blocks]
    padded = [[" " * w] * (height - len(lines)) + [line.ljust(w) for line in lines]
              for (lines, _), w in zip(blocks, widths)]
    lines = [(" " * gap).join(row).rstrip() for row in zip(*padded)]
    return lines, sum(w + gap for w in widths[:-1]) + blocks[-1][1]


def _center(line: str, length: int, width: int) -> str:
    return " " * ((width - length) // 2) + line


def _ascii_block(node: Derivation, premise_blocks: List[Block]) -> Block:
    """The node's block, drawn under the blocks of its premises."""
    conclusion = sequent_str(node.conclusion)
    if not node.premises:
        return [f"{conclusion}   [{rule_label(node)}]"], len(conclusion)
    above, span = _stack(premise_blocks)
    width = max(span, len(conclusion))
    bar = "-" * width + f" {rule_label(node)}"
    return ([_center(line, span, width) for line in above]
            + [bar, _center(conclusion, len(conclusion), width)], width)


def reference_ascii(tree: Derivation) -> str:
    # A shared premise is drawn again under each parent.  Its block is kept
    # only until the last parent that draws it is built.
    nodes = [node for node, _ in postorder(tree)]
    last_parent = {id(p): node for node in nodes for p in node.premises}
    blocks: Dict[int, Block] = {}
    for node in nodes:
        blocks[id(node)] = _ascii_block(node, [blocks[id(p)] for p in node.premises])
        for p in node.premises:
            if last_parent[id(p)] is node:
                blocks.pop(id(p), None)
    return "\n".join(blocks[id(tree)][0]) + "\n"


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
# Same bytes as the reference ("before" is the reference renderer's drawing)

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
    assert len(text) == 90_539
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "21c22aa9e8b282e34f7a34559ac98d77351f3ba28216f587605ecdad27a9906c")


def test_a_chain_is_as_wide_at_every_depth():
    # no label widens the bars below it, so depth adds lines, not columns
    widths = {n: max(map(len, render_ascii(tree_of(gen.hadamard_chain(n))).splitlines()))
              for n in (50, 100, 400, 1000)}
    assert len(set(widths.values())) == 1, widths


@pytest.mark.parametrize("join, label", [("", "&R"), ("[and]", "&R"), ("[at]", "@form"),
                                         ("[xyz]", "parallel(xyz)")])
def test_a_join_is_labelled_as_the_kernel_reads_it(join, label):
    # the kernel refuses an unknown join, so it is not drawn as a known one
    tree = tree_of(f"atoms A\ntheorem t:\n  1: |- A premise\n  2: |- A^ premise\n"
                   f"  3: |- Q_A by parallel{join}(1, 2)\nqed\n")
    assert rule_label(tree) == label
    assert render_ascii(tree).splitlines()[1].endswith(f"- {label}")


# ---------------------------------------------------------------------------
# The bound

@pytest.mark.parametrize("text", [gen.ladder(14)], ids=["ladder-14"])
def test_a_drawing_past_the_bound_is_refused(text):
    # 43 steps, but each rung's shared premise is drawn under both branches
    with pytest.raises(RenderTooLarge) as refused:
        render_ascii(tree_of(text))
    assert refused.value.lines * (refused.value.columns + 1) > MAX_ASCII_BYTES
    # refused from the sizing pass alone: render_ascii had built no row yet
    frame = refused.tb.tb_next.tb_frame
    assert frame.f_code is render_ascii.__code__ and "rows" not in frame.f_locals


def test_a_deep_ladder_is_refused_in_little_memory():
    # 40 rungs would draw trillions of columns; the sizing pass keeps only
    # integers and each node's own short texts, so the refusal allocates
    # no bar or row of that width
    tree = tree_of(gen.ladder(40))
    tracemalloc.start()
    try:
        with pytest.raises(RenderTooLarge) as refused:
            render_ascii(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused.value.columns > 2**40 and peak < 2**20, (refused.value.columns, peak)


def test_the_refusal_names_the_exact_size(monkeypatch):
    monkeypatch.setattr(RENDER, "MAX_ASCII_BYTES", 0)
    trees = [gen.valid_tree(random.Random(seed)) for seed in range(200)]
    for tree in trees + [comb(40), tree_of(gen.ladder(5)), tree_of(gen.hadamard_chain(300))]:
        with pytest.raises(RenderTooLarge) as refused:
            render_ascii(tree)
        lines = reference_ascii(tree).splitlines()
        assert refused.value.lines == len(lines)
        assert refused.value.columns == max(map(len, lines))


def test_the_bound_is_within_twenty_percent_of_the_bytes_on_chains_and_ladders():
    # The bound counts every line at the widest one's length.  On a chain
    # that is a bar and its label; the bars and the long sequents come near
    # it, but every other sequent is a short one, centred, so the bound is
    # 1.19 times the bytes at 1,000 steps.  On a ladder it is 1.03.
    for tree, factor in ((tree_of(gen.hadamard_chain(1000)), 1.2),
                         (tree_of(gen.ladder(12)), 1.05)):
        lines = render_ascii(tree).splitlines()
        size = sum(len(line) + 1 for line in lines)
        assert size <= len(lines) * (max(map(len, lines)) + 1) <= factor * size
