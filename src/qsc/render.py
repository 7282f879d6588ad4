"""Rendering of derivation trees.

Two styles: ``linear`` emits the numbered-step script form (and parses back
to an equal tree); ``ascii`` draws the two-dimensional layout with premises
stacked over horizontal inference bars, each rule label hanging to the right
of its bar.  A chain's drawing is as wide at every depth.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from .kernel import Derivation, postorder
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
# bar labeled by rule, its conclusion centered under the bar.  A block's
# body is the columns its bar spans (a leaf's, its conclusion); its overhang
# is the `` label`` after the bar, or a leaf's ``   [label]``.  A bar spans
# its premises' bodies and the gaps between them, so no label widens a bar
# below it.  Side-by-side premises sit 4 columns past the full extent of the
# block on their left, overhang included, and the premises as one unit and
# the conclusion are each centered under the bar.  One pass sizes each
# distinct node's block; one more puts each drawn row piece at its column.

MAX_ASCII_BYTES = 16 * 2**20


class RenderTooLarge(Exception):
    """An ascii drawing past ``MAX_ASCII_BYTES``, refused before any line."""

    def __init__(self, lines: int, columns: int):
        super().__init__(f"{lines} lines x {columns} columns is past {MAX_ASCII_BYTES} bytes")
        self.lines, self.columns = lines, columns


class _Block(NamedTuple):
    height: int
    body: int
    width: int                  # the body and the overhang
    offsets: List[int]          # each premise's column
    shift: int                  # the conclusion's column
    conclusion: str             # a leaf's whole line
    label: str                  # after the bar; a leaf's is in its line


def _layout(tree: Derivation) -> Dict[int, _Block]:
    """Each distinct node's block, columns counted from its left edge."""
    blocks: Dict[int, _Block] = {}
    for node, _ in postorder(tree):
        conclusion, label = sequent_str(node.conclusion), rule_label(node)
        if not node.premises:
            line = f"{conclusion}   [{label}]"
            blocks[id(node)] = _Block(1, len(conclusion), len(line), [], 0, line, label)
            continue
        above = [blocks[id(p)] for p in node.premises]
        offsets = [0]
        for b in above[:-1]:
            offsets.append(offsets[-1] + b.width + 4)
        span = offsets[-1] + above[-1].body
        body = max(span, len(conclusion))
        shift = (body - span) // 2
        blocks[id(node)] = _Block(
            max([b.height for b in above]) + 2, body,
            max(body + 1 + len(label), shift + offsets[-1] + above[-1].width),
            [shift + o for o in offsets], (body - len(conclusion)) // 2,
            conclusion, label)
    return blocks


def render_ascii(tree: Derivation) -> str:
    """The two-dimensional drawing; ``RenderTooLarge`` past ``MAX_ASCII_BYTES``."""
    blocks = _layout(tree)
    root = blocks[id(tree)]
    height = root.height
    if height * (root.width + 1) > MAX_ASCII_BYTES:
        raise RenderTooLarge(height, root.width)
    # Each drawn occurrence (a shared premise is drawn under each parent)
    # puts its rows' texts at absolute columns.  Left subtrees go first, so
    # each row's pieces come left to right and are padded as they come.
    bars = {key: "-" * b.body + f" {b.label}" for key, b in blocks.items() if b.offsets}
    rows: List[List[str]] = [[] for _ in range(height)]
    ends = [0] * height
    todo = [(tree, 0, height - 1)]
    while todo:
        node, column, row = todo.pop()
        _, _, _, offsets, shift, conclusion, _ = blocks[id(node)]
        start = column + shift
        rows[row] += (" " * (start - ends[row]), conclusion)
        ends[row] = start + len(conclusion)
        if offsets:
            row, bar = row - 1, bars[id(node)]
            rows[row] += (" " * (column - ends[row]), bar)
            ends[row] = column + len(bar)
            for p, o in zip(reversed(node.premises), reversed(offsets)):
                todo.append((p, column + o, row - 1))
    return "".join(["".join(row) + "\n" for row in rows])
