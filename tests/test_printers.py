"""The text printers, byte for byte against plain references.

``reference_formula_str`` and ``reference_sequent_str`` print the way the
printers always have: a child binding looser than its parent, or as loose
on the right, is parenthesized, and a sequent's non-empty parts (its
antecedent, its turnstile and its consequent) are joined by one space.
``reference_wires`` walks a formula recursively into a set.  The linear
render's ``atoms`` line is every wire of every node's sequent and formula
parameters, sorted, or ``A`` when the tree names none.
"""

from __future__ import annotations

import random

from hypothesis import given

import conftest as gen
from qsc.kernel import Derivation, postorder
from qsc.render import render_linear
from qsc.syntax import (
    NULL,
    And,
    Atom,
    Ent,
    Formula,
    Null,
    Par,
    Qubit,
    Sequent,
    SymDegree,
    degree_str,
    formula_str,
    formula_wires,
    sequent_str,
)

SEEDS = range(2000)
_LEVELS = {Ent: (0, "@"), And: (1, "&"), Par: (2, "#")}  # loosest first


def _pair(degrees) -> str:
    return "" if degrees is None else "{" + ",".join(map(degree_str, degrees)) + "}"


def reference_formula_str(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name + ("^" if f.negated else "")
    if isinstance(f, Null):
        return "0"
    if isinstance(f, Qubit):
        return f"Q_{f.name}{_pair(f.degrees)}"
    level, op = _LEVELS[type(f)]
    if isinstance(f, And):
        op += _pair(f.degrees)
    left, right = reference_formula_str(f.left), reference_formula_str(f.right)
    if _LEVELS.get(type(f.left), (3,))[0] < level:
        left = f"({left})"
    if _LEVELS.get(type(f.right), (3,))[0] <= level:
        right = f"({right})"
    return f"{left} {op} {right}"


def reference_sequent_str(s) -> str:
    left = ", ".join(reference_formula_str(f) for f in s.antecedent)
    right = ", ".join(reference_formula_str(f) for f in s.consequent)
    stile = "|-" if s.degree is None else f"|-{{{degree_str(s.degree)}}}"
    return " ".join(p for p in (left, stile, right) if p)


def reference_wires(f: Formula) -> set:
    if isinstance(f, (Atom, Qubit)):
        return {f.name}
    if isinstance(f, (And, Par, Ent)):
        return reference_wires(f.left) | reference_wires(f.right)
    return set()


def sequents():
    return [gen.random_sequent(random.Random(seed)) for seed in SEEDS]


def test_the_sequents_cover_empty_sides_and_every_degree_kind():
    population = sequents()
    assert any(not s.antecedent and s.consequent for s in population)
    assert any(s.antecedent and not s.consequent for s in population)
    assert any(not s.antecedent and not s.consequent for s in population)
    turnstiles = [s.degree for s in population if s.degree is not None]
    assert {d.name for d in turnstiles if isinstance(d, SymDegree)} == {"alpha", "beta"}
    assert any(not isinstance(d, SymDegree) for d in turnstiles)
    assert "{alpha," in "".join(map(reference_sequent_str, population))


def test_sequents_print_as_before():
    for seed, s in zip(SEEDS, sequents()):
        assert sequent_str(s) == reference_sequent_str(s), seed
        for f in s.antecedent + s.consequent:
            assert formula_str(f) == reference_formula_str(f), seed


def test_the_wires_of_sequents_are_their_atoms_and_qubits():
    for seed, s in zip(SEEDS, sequents()):
        formulas = s.antecedent + s.consequent
        expected = set().union(*map(reference_wires, formulas))
        assert formula_wires(*formulas) == expected, seed
        for f in formulas:
            assert formula_wires(f) == reference_wires(f), seed


@given(gen.formulas())
def test_formulas_print_as_before(f):
    assert formula_str(f) == reference_formula_str(f)
    assert formula_wires(f) == reference_wires(f)


def reference_atoms_line(tree) -> str:
    wires: set = set()
    for node, _ in postorder(tree):
        for f in node.conclusion.antecedent + node.conclusion.consequent + node.params:
            if isinstance(f, Formula):
                wires |= reference_wires(f)
    return "atoms " + (" ".join(sorted(wires)) or "A")


def test_the_linear_atoms_line_names_every_wire_of_the_tree():
    trees = ([gen.random_tree(random.Random(seed)) for seed in range(300)]
             + [gen.valid_tree(random.Random(seed)) for seed in range(100)])
    for tree in trees:
        assert render_linear(tree).split("\n", 1)[0] == reference_atoms_line(tree)


def test_a_cut_formula_names_its_wires_and_a_tree_without_wires_names_a():
    leaf = Derivation("premise", Sequent((), (Atom("A"),)))
    cut = Derivation("cut", Sequent((), (Atom("A"),)), (leaf, leaf), (Qubit("Z"),))
    assert render_linear(cut).startswith("atoms A Z\n")
    assert render_linear(Derivation("premise", Sequent((), (NULL,)))).startswith("atoms A\n")
