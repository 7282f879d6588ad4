"""Rendering of derivation trees.

Two styles: ``linear`` emits the numbered-step script form (and parses back
to an equal tree); ``ascii`` draws the two-dimensional layout with premises
stacked over horizontal inference bars labeled by rule.
"""

from __future__ import annotations

from typing import Dict, List

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
# ASCII style

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


def render_ascii(tree: Derivation) -> str:
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
