"""Rendering of derivation trees.

Two styles: ``linear`` emits the numbered-step script form (and parses back
to an equal tree); ``ascii`` draws the two-dimensional layout with premises
stacked over horizontal inference bars labeled by rule.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Tuple

from .kernel import Derivation, last_parents, postorder
from .syntax import Formula, formula_str, formula_wires, sequent_str

_DISPLAY = {
    "ataxiom": "@ax",
    "andform": "&R",
    "andrefl": "&L",
    "parform": "#R",
    "negform": "neg-form",
    "negrefl": "neg-refl",
    "atform": "@form",
    "atimplrefl": "@impl-refl",
    "atexplrefl": "@expl-refl",
    "semidistrib": "semidist",
    "hrule": "H",
    "hinverse": "H^-1",
    "cnot": "CNOT",
    "epr": "EPR",
}


def rule_label(node: Derivation) -> str:
    if node.rule == "parallel":
        join = str(node.params[0]) if node.params else "and"
        return "&R" if join == "and" else "@form"
    label = _DISPLAY.get(node.rule, node.rule)
    extras = [str(p) for p in node.params if not isinstance(p, Formula)]
    if extras and node.rule in ("cnot", "qsplit", "atimplrefl", "atform"):
        return f"{label}({','.join(extras)})"
    return label


def render(tree: Derivation, style: str = "ascii") -> str:
    if style == "ascii":
        return render_ascii(tree)
    if style == "linear":
        return render_linear(tree)
    raise ValueError(f"unknown render style {style!r} (ascii or linear)")


# ---------------------------------------------------------------------------
# Linear style

def _param_text(node: Derivation) -> str:
    if not node.params:
        return ""
    parts = [formula_str(p) if isinstance(p, Formula) else str(p)
             for p in node.params]
    return f"[{', '.join(parts)}]"


def render_linear(tree: Derivation) -> str:
    """Emit a complete script whose single theorem rebuilds the tree."""
    wires: set = set()
    numbering: Dict[int, int] = {}
    lines: List[str] = []
    for node, _ in postorder(tree):
        i = len(numbering) + 1
        numbering[id(node)] = i
        stated = sequent_str(node.conclusion)
        if node.rule == "premise":
            lines.append(f"  {i}: {stated} premise")
        else:
            refs_text = ", ".join(str(numbering[id(p)]) for p in node.premises)
            lines.append(f"  {i}: {stated} by {node.rule}{_param_text(node)}({refs_text})")
        for f in node.conclusion.antecedent + node.conclusion.consequent + node.params:
            if isinstance(f, Formula):
                wires.update(formula_wires(f))
    atoms = " ".join(sorted(wires)) if wires else "A"
    return f"atoms {atoms}\n\ntheorem t:\n" + "\n".join(lines) + "\nqed\n"


# ---------------------------------------------------------------------------
# ASCII style.  A node's block is its premises' blocks side by side over a
# bar labeled by rule, its conclusion centered under the bar.  Until the end
# a block is three lists, one entry per row: the row's shift (its leading
# spaces), its length past the shift, and its ``(column, text)`` pieces with
# columns counted from the shift.  Centering a row changes only its shift.

MAX_ASCII_BYTES = 16 * 2**20


class RenderTooLarge(Exception):
    """An ascii drawing past ``MAX_ASCII_BYTES``, refused before any line."""

    def __init__(self, lines: int, columns: int):
        super().__init__(f"{lines} lines x {columns} columns is past {MAX_ASCII_BYTES} bytes")
        self.lines, self.columns = lines, columns


def _layout(tree: Derivation) -> Tuple[list, Dict[int, Tuple[int, int]]]:
    """Distinct nodes in post-order with conclusion and label; exact block sizes."""
    nodes = []
    size: Dict[int, Tuple[int, int]] = {}
    for node, _ in postorder(tree):
        conclusion, label = sequent_str(node.conclusion), rule_label(node)
        if node.premises:
            sizes = [size[id(p)] for p in node.premises]
            stack = sum([w for _, w in sizes]) + 4 * (len(sizes) - 1)
            size[id(node)] = (max(sizes)[0] + 2, max(stack, len(conclusion)) + 1 + len(label))
        else:
            size[id(node)] = (1, len(conclusion) + 5 + len(label))
        nodes.append((node, conclusion, label))
    return nodes, size


def _stack(blocks: List[tuple], sizes: List[Tuple[int, int]]) -> tuple:
    """Two or more premise blocks side by side, 4 columns apart, bottom-aligned."""
    heights = [h for h, _ in sizes]
    height, tallest = max(heights), heights.index(max(heights))
    offsets = list(accumulate((w + 4 for _, w in sizes), initial=0))
    # above the second tallest block, the rows are the tallest one's, moved
    alone = height - sorted(heights)[-2]
    shifts, lengths, pieces = blocks[tallest]
    shifts = [s + offsets[tallest] for s in shifts[:alone]]
    lengths, pieces = lengths[:alone], pieces[:alone]
    # below, two or more blocks meet and their pieces join
    for r in range(alone, height):
        meet = [(off + b[0][i], b[1][i], b[2][i])
                for b, h, off in zip(blocks, heights, offsets) if (i := r - height + h) >= 0]
        base = meet[0][0]
        shifts.append(base)
        lengths.append(meet[-1][0] + meet[-1][1] - base)
        pieces.append([(s - base + col, text) for s, _, row in meet for col, text in row])
    return shifts, lengths, pieces


def render_ascii(tree: Derivation) -> str:
    """The two-dimensional drawing; ``RenderTooLarge`` past ``MAX_ASCII_BYTES``."""
    nodes, size = _layout(tree)
    height, width = size[id(tree)]
    if height * (width + 1) > MAX_ASCII_BYTES:
        raise RenderTooLarge(height, width)
    # a shared premise is drawn under each parent; its block goes after the last
    last_parent = last_parents(node for node, _, _ in nodes)
    blocks: Dict[int, tuple] = {}
    for node, conclusion, label in nodes:
        if not node.premises:
            line = f"{conclusion}   [{label}]"
            blocks[id(node)] = ([0], [len(line)], [((0, line),)])
            continue
        above = [blocks[id(p)] for p in node.premises]
        shifts, lengths, pieces = (above[0] if len(above) == 1 else
                                   _stack(above, [size[id(p)] for p in node.premises]))
        inner = size[id(node)][1] - 1 - len(label)
        bar = "-" * inner + f" {label}"
        blocks[id(node)] = ([(inner + s - n) // 2 for s, n in zip(shifts, lengths)]
                            + [0, (inner - len(conclusion)) // 2],
                            lengths + [len(bar), len(conclusion)],
                            pieces + [((0, bar),), ((0, conclusion),)])
        for p in node.premises:
            if last_parent[id(p)] is node:
                blocks.pop(id(p), None)
    shifts, _, pieces = blocks[id(tree)]
    parts: List[str] = []
    for shift, row in zip(shifts, pieces):
        at = -shift
        for col, text in row:
            parts += (" " * (col - at), text)
            at = col + len(text)
        parts.append("\n")
    return "".join(parts)
