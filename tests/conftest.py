"""Shared strategies and deterministic generators for the test suite."""

from __future__ import annotations

import math
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


def ladder(rungs: int, wires: int = 1) -> str:
    """Script of one theorem: Q_A beside ``wires - 1`` more qubits, then
    ``rungs`` times both qsplit branches of the last Q_A joined by
    parallel[and] back into Q_A.

    Each rung's two branches share its premise, so the ascii drawing, which
    draws a shared premise under each parent, doubles with every rung.
    """
    names = [chr(ord("A") + k) for k in range(wires)]
    rest = "".join(f", Q_{w}" for w in names[1:])
    lines = [f"atoms {' '.join(names)}", "theorem ladder:", f"  1: |- Q_A{rest} premise"]
    top = 1
    for _ in range(rungs):
        lines += [f"  {top + 1}: |- A{rest} by qsplit[pos, A]({top})",
                  f"  {top + 2}: |- A^{rest} by qsplit[neg, A]({top})",
                  f"  {top + 3}: |- Q_A{rest} by parallel[and]({top + 1}, {top + 2})"]
        top += 3
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


# ---------------------------------------------------------------------------
# A forward generator of valid derivations: each step applies one rule's
# schema to the steps before it, so every tree it returns checks.

_CAT = {False: (complex(SQRT1_2), complex(-SQRT1_2)),   # H|1> = |->
        True: (complex(SQRT1_2), complex(SQRT1_2))}     # H|0> = |+>
# CNOT clause by the premise's (control negated, target negated)
_CLAUSE = {(False, False): "a", (True, False): "b", (False, True): "a'", (True, True): "b'"}


def _leaf(antecedent, consequent) -> Derivation:
    return Derivation("premise", Sequent(tuple(antecedent), tuple(consequent)))


def _asserts(premises, rule, consequent, params=()) -> Derivation:
    return Derivation(rule, Sequent((), tuple(consequent)), tuple(premises), params)


def _hadamard_chain(rng: random.Random, wire: str) -> Derivation:
    """A bit, then alternating H and H^-1."""
    negated = rng.random() < 0.5
    node = _leaf((), (Atom(wire, negated),))
    for step in range(rng.randrange(0, 5)):
        if step % 2 == 0:
            node = _asserts((node,), "hrule", (Qubit(wire, _CAT[negated]),))
        else:
            node = _asserts((node,), "hinverse", (Atom(wire, negated),))
    return node


def _cnot_chain(rng: random.Random, control: str, target: str,
                last: tuple) -> Derivation:
    """CNOT steps on two bits, ending on the polarities ``last``, a pair
    (control negated, target negated)."""
    # CNOT is its own inverse: walk back from the last pair to the first
    pairs = [last]
    for _ in range(rng.randrange(0, 4)):
        c, t = pairs[-1]
        pairs.append((c, t if c else not t))  # a positive control flips
    pairs.reverse()
    node = _leaf((), (Atom(control, pairs[0][0]), Atom(target, pairs[0][1])))
    for before, (c, t) in zip(pairs, pairs[1:]):
        params = (_CLAUSE[before],) if rng.random() < 0.7 else ()
        node = _asserts((node,), "cnot", (Atom(control, c), Atom(target, t)), params)
    return node


def _split_join(rng: random.Random, wires) -> Derivation:
    """Both qsplit branches of one named wire, joined by parallel[and]."""
    source = _leaf((), tuple(Qubit(w) for w in wires))
    i = rng.randrange(len(wires))
    branches = []
    for negated in rng.sample((False, True), 2):
        consequent = list(source.conclusion.consequent)
        consequent[i] = Atom(wires[i], negated)
        branches.append(_asserts((source,), "qsplit", consequent,
                                 ("neg" if negated else "pos", wires[i])))
    consequent = list(source.conclusion.consequent)
    consequent[i] = And(branches[0].conclusion.consequent[i],
                        branches[1].conclusion.consequent[i])
    return _asserts(branches, "parallel", consequent, ("and",))


def _entangled(rng: random.Random, x: str, y: str) -> Derivation:
    """Q_x @ Q_y formed from |- x, y and |- x^, y^, each a CNOT chain."""
    branches = [_cnot_chain(rng, x, y, (negated, negated))
                for negated in rng.sample((False, True), 2)]
    rule, params = rng.choice((("atform", ("phi",)), ("atform", ()),
                               ("parallel", ("at",))))
    return _asserts(branches, rule, (Ent(Qubit(x), Qubit(y)),), params)


def _measured(rng: random.Random, x: str, y: str) -> Derivation:
    """One branch of Q_x @ Q_y: implicit @-reflection, or a measurement of
    one party by a collapse cut, then perhaps semi-distributivity, or by
    the EPR rule."""
    pair = _entangled(rng, x, y)
    measured, partner = rng.sample((x, y), 2)
    outcome = Atom(measured, rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.2:
        return _asserts((pair,), "atimplrefl",
                        (Atom(x, outcome.negated), Atom(y, outcome.negated)),
                        ("neg" if outcome.negated else "pos",))
    right = _leaf((Qubit(measured),), (outcome,))
    if roll < 0.45:
        return _asserts((pair, right), "epr",
                        (Par(outcome, Atom(partner, outcome.negated)),))
    collapsed = Ent(outcome, Qubit(y)) if measured == x else Ent(Qubit(x), outcome)
    node = _asserts((pair, right), "cut", (collapsed,))
    if rng.random() < 0.5:
        node = _asserts((node,), "semidistrib", (outcome, Atom(partner, outcome.negated)))
    return node


def _joint_measured(rng: random.Random, x: str, y: str) -> Derivation:
    """TEL's first steps: |- (Q_x @ Q_y), Q_z{a,b} cut with Q_w, Q_z |-{d} z
    for w one of x and y, where d is Q_z's amplitude on the outcome, then
    perhaps semi-distributivity."""
    z = next(w for w in ATOM_NAMES if w not in (x, y))
    # a unit pair with neither amplitude near 0, so Q_z stays a qubit
    t, phase = rng.uniform(0.1, 1.4), rng.uniform(0, 2 * math.pi)
    amps = (complex(math.cos(t)), complex(math.cos(phase), math.sin(phase)) * math.sin(t))
    pair = Ent(Qubit(x), Qubit(y))
    consequent = rng.sample((pair, Qubit(z, amps)), 2)
    measured = rng.choice((x, y))
    outcome = Atom(z, rng.random() < 0.5)
    degree = amps[0] if outcome.negated else amps[1]
    measured_copies = tuple(Qubit(w) for w in rng.sample((measured, z), 2))
    right = Derivation("premise", Sequent(measured_copies, (outcome,), degree))
    collapsed = Ent(outcome, Qubit(y)) if measured == x else Ent(Qubit(x), outcome)
    node = Derivation("cut", Sequent((), (collapsed,), degree), (_leaf((), consequent), right))
    if rng.random() < 0.5:
        partner = Atom(y if measured == x else x, outcome.negated)
        node = Derivation("semidistrib", Sequent((), (outcome, partner), degree), (node,))
    return node


def _cut_split(rng: random.Random, wires) -> Derivation:
    """A measurement of one qubit of a register, by a standard cut."""
    source = _leaf((), tuple(Qubit(w) for w in wires))
    i = rng.randrange(len(wires))
    outcome = Atom(wires[i], rng.random() < 0.5)
    consequent = list(source.conclusion.consequent)
    consequent[i] = outcome
    return _asserts((source, _leaf((Qubit(wires[i]),), (outcome,))), "cut", consequent)


def valid_tree(rng: random.Random) -> Derivation:
    """A derivation built forward from the rule schemas, so it checks."""
    wires = rng.sample(ATOM_NAMES, rng.randrange(1, 4))
    x, y = rng.sample(ATOM_NAMES, 2)
    kind = rng.randrange(6)
    if kind == 0:
        return _hadamard_chain(rng, wires[0])
    if kind == 1:
        last = (rng.random() < 0.5, rng.random() < 0.5)
        node = _cnot_chain(rng, x, y, last)
        if rng.random() < 0.3:
            node = _asserts((node,), "parform", (Par(*node.conclusion.consequent),))
        return node
    if kind == 2:
        return _split_join(rng, wires)
    if kind == 3:
        return _measured(rng, x, y)
    if kind == 4:
        return _joint_measured(rng, x, y)
    return _cut_split(rng, wires)
