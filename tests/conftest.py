"""Shared strategies and deterministic generators for the test suite."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from qsc.kernel import Derivation
from qsc.syntax import (
    NULL,
    SQRT1_2,
    And,
    Atom,
    Ent,
    Par,
    Qubit,
    Sequent,
    SymDegree,
)

ATOM_NAMES = ("A", "B", "C")


# ---------------------------------------------------------------------------
# Hypothesis strategies

def atoms():
    return st.builds(Atom,
                     st.sampled_from(ATOM_NAMES),
                     st.booleans())


def concrete_degrees():
    finite = st.floats(min_value=-1.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False)
    return st.builds(complex, finite, finite)


def degrees():
    return st.one_of(concrete_degrees(),
                     st.sampled_from([SymDegree("alpha"), SymDegree("beta")]))


def degree_pairs():
    return st.one_of(st.none(), st.tuples(degrees(), degrees()))


def qubits():
    return st.builds(Qubit, st.sampled_from(ATOM_NAMES), degree_pairs())


def formulas(max_depth: int = 3):
    base = st.one_of(atoms(), st.just(NULL), qubits())

    def extend(children):
        return st.one_of(
            st.builds(And, children, children, degree_pairs()),
            st.builds(Par, children, children),
            st.builds(Ent, st.one_of(atoms(), qubits()),
                      st.one_of(atoms(), qubits())),
        )

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


# ---------------------------------------------------------------------------
# Deep derivations

def hadamard_chain(steps: int) -> str:
    """Script of one theorem: the bit A^, then ``steps`` alternating H, H^-1.

    Each step's only premise is the step before, so the derivation is a
    path ``steps + 1`` nodes deep.
    """
    cat = f"A^ &{{{SQRT1_2!r}, {SQRT1_2!r}}} A"
    lines = ["atoms A", "theorem chain:", "  1: |- A^ premise"]
    for i in range(1, steps + 1):
        rule, stated = ("hrule", cat) if i % 2 else ("hinverse", "A^")
        lines.append(f"  {i + 1}: |- {stated} by {rule}({i})")
    return "\n".join(lines + ["qed", ""])


# ---------------------------------------------------------------------------
# Deterministic random generators (used where the criteria pin an exact
# population size; hypothesis controls its own example counts).

def random_degree(rng: random.Random):
    if rng.random() < 0.2:
        return SymDegree(rng.choice(("alpha", "beta")))
    if rng.random() < 0.3:
        return complex(round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6))
    return complex(round(rng.uniform(-1, 1), 6))


def random_degree_pair(rng: random.Random):
    if rng.random() < 0.5:
        return None
    return (random_degree(rng), random_degree(rng))


def random_formula(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        if roll < 0.05:
            return NULL
        if roll < 0.2:
            return Qubit(rng.choice(ATOM_NAMES), random_degree_pair(rng))
        return Atom(rng.choice(ATOM_NAMES), rng.random() < 0.5)
    if roll < 0.65:
        return And(random_formula(rng, depth + 1), random_formula(rng, depth + 1),
                   random_degree_pair(rng))
    if roll < 0.85:
        return Par(random_formula(rng, depth + 1), random_formula(rng, depth + 1))
    side = lambda: (Atom(rng.choice(ATOM_NAMES), rng.random() < 0.5)
                    if rng.random() < 0.4
                    else Qubit(rng.choice(ATOM_NAMES), random_degree_pair(rng)))
    return Ent(side(), side())


def random_sequent(rng: random.Random):
    ants = tuple(random_formula(rng) for _ in range(rng.randrange(0, 3)))
    cons = tuple(random_formula(rng) for _ in range(rng.randrange(0, 3)))
    degree = random_degree(rng) if rng.random() < 0.2 else None
    return Sequent(ants, cons, degree)


_RULE_PARAMS = {
    "cut": "formula",
    "cnot": ("a", "b", "a'", "b'"),
    "qsplit": ("pos", "neg"),
    "atimplrefl": ("pos", "neg"),
    "atform": ("phi", "psi"),
    "parallel": ("and", "at"),
    "negform": ("A", "B"),
    "negrefl": ("A", "B"),
    "parform": ("0", "1"),
}

_GEN_RULES = ("axiom", "premise", "andform", "andrefl", "parform", "negform",
              "negrefl", "cut", "atform", "atimplrefl", "semidistrib",
              "qsplit", "hrule", "hinverse", "cnot", "epr", "parallel")


def random_tree(rng: random.Random, depth: int = 0) -> Derivation:
    """A grammatically valid derivation tree (not necessarily a correct one)."""
    if depth >= 3 or rng.random() < 0.4:
        rule = rng.choice(("axiom", "premise"))
        return Derivation(rule, random_sequent(rng))
    rule = rng.choice([r for r in _GEN_RULES if r not in ("axiom", "premise")])
    n_premises = {"andform": 2, "cut": 2, "atform": 2, "epr": 2, "parallel": 2}.get(rule, 1)
    premises = tuple(random_tree(rng, depth + 1) for _ in range(n_premises))
    params = ()
    vocab = _RULE_PARAMS.get(rule)
    if vocab == "formula":
        params = (random_formula(rng),)
    elif vocab is not None and rng.random() < 0.8:
        params = (rng.choice(vocab),)
    return Derivation(rule, random_sequent(rng), premises, params)
