"""Formulas, sequents and assertion degrees of the qubit sequent calculus.

The object language has atoms with a primitive (involutive) negation, the
null proposition ``0``, an additive conjunction ``&`` that may carry a pair
of complex assertion degrees, the right multiplicative disjunction ``#``
(par), qubit propositions ``Q_X`` (sugar for the complementary pair
``X & X^``), and the entanglement connective ``@`` relating two qubit
propositions (one side of which may already be collapsed to a literal).

There are deliberately no operations that duplicate or erase formulas in a
sequent: contraction and weakening simply cannot be expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

# Amplitudes closer than this count as the same degree; 1/sqrt(2) is
# irrational, so every concrete degree is a float approximation anyway.
DEGREE_TOL = 1e-9

SQRT1_2 = 2.0 ** -0.5  # implicit amplitude of an undegreed conjunct
EVEN_DEGREES = (complex(SQRT1_2), complex(SQRT1_2))  # the degrees of an undegreed pair

SYMBOLIC_NAMES = ("alpha", "beta")


class NonAtomicNegation(Exception):
    """Negation is primitive and defined on atoms only."""


@dataclass(frozen=True)
class SymDegree:
    """Symbolic assertion degree; only the reserved pair alpha/beta exists.

    The pair is constrained by |alpha|^2 + |beta|^2 = 1, which is checked
    wherever concrete values are bound (see quantum semantics).
    """

    name: str

    def __post_init__(self):
        if self.name not in SYMBOLIC_NAMES:
            raise ValueError(f"unknown symbolic degree {self.name!r}; "
                             f"only {SYMBOLIC_NAMES} are reserved")

    def __repr__(self):
        return self.name


Degree = Union[complex, SymDegree]
DegreePair = Tuple[Degree, Degree]

ALPHA = SymDegree("alpha")
BETA = SymDegree("beta")


def _negligible(z: complex) -> bool:
    """|z| <= DEGREE_TOL; a modulus past the float range is not negligible."""
    try:
        return abs(z) <= DEGREE_TOL
    except OverflowError:
        return False


def degree_eq(a: Optional[Degree], b: Optional[Degree]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, SymDegree) or isinstance(b, SymDegree):
        return isinstance(a, SymDegree) and isinstance(b, SymDegree) and a.name == b.name
    # equal first: an infinite degree minus itself is nan, never negligible
    return a == b or _negligible(complex(a) - complex(b))


def degree_pair_eq(a: Optional[DegreePair], b: Optional[DegreePair]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return degree_eq(a[0], b[0]) and degree_eq(a[1], b[1])


def is_concrete(degree: Optional[Degree]) -> bool:
    return degree is not None and not isinstance(degree, SymDegree)


class Formula:
    """Base class; all variants are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    """A propositional atom, possibly carrying the primitive negation.

    ``A^`` is the bit |0> reading of wire A, plain ``A`` the bit |1>.
    Double negation is unrepresentable: the flag just toggles.
    """

    name: str
    negated: bool = False


@dataclass(frozen=True)
class Null(Formula):
    """The null proposition ``0`` (distinct from an empty consequent)."""


NULL = Null()


@dataclass(frozen=True)
class And(Formula):
    """Additive conjunction, optionally with one degree per conjunct."""

    left: Formula
    right: Formula
    degrees: Optional[DegreePair] = None


@dataclass(frozen=True)
class Par(Formula):
    """Right multiplicative disjunction (written ``#``)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Qubit(Formula):
    """The qubit proposition ``Q_X``, i.e. the pair X with X^.

    ``degrees`` stores (amplitude on X^, amplitude on X); absent degrees
    mean the equal-amplitude pair (1/sqrt2, 1/sqrt2).
    """

    name: str
    degrees: Optional[DegreePair] = None


@dataclass(frozen=True)
class Ent(Formula):
    """The entanglement connective ``@``.

    Operands are qubit propositions; during a derivation one party may be
    collapsed to a literal (the mixed form produced by a measurement cut).
    """

    left: Formula
    right: Formula

    def __post_init__(self):
        for side in (self.left, self.right):
            if not isinstance(side, (Qubit, Atom)):
                raise ValueError("@ relates qubit propositions "
                                 "(or a collapsed literal), got "
                                 f"{type(side).__name__}")


@dataclass(frozen=True)
class Sequent:
    """An assertion 'antecedent |- consequent', optionally degree-annotated.

    Either side may be empty; the empty consequent is the falsehood reading
    and is *not* identified with asserting the null proposition.
    """

    antecedent: Tuple[Formula, ...] = ()
    consequent: Tuple[Formula, ...] = ()
    degree: Optional[Degree] = None


def negate(f: Formula) -> Formula:
    """Toggle the primitive negation of an atom; involutive by construction."""
    if isinstance(f, Atom):
        return Atom(f.name, not f.negated)
    raise NonAtomicNegation(f"negation is defined on atoms only, not {type(f).__name__}")


def party_wire(f: Formula) -> Optional[str]:
    """Wire name of a single-wire qubit-like formula (atom or qubit)."""
    if isinstance(f, (Atom, Qubit)):
        return f.name
    return None


def qubit_amplitudes(f: Formula) -> Optional[DegreePair]:
    """(amp on X^, amp on X) of a single-wire formula, None if not one."""
    if isinstance(f, Atom):
        return (complex(1), complex(0)) if f.negated else (complex(0), complex(1))
    if isinstance(f, Qubit):
        return EVEN_DEGREES if f.degrees is None else f.degrees
    return None


def _canonical_qubit(name: str, amp0: Degree, amp1: Degree) -> Formula:
    """Fold per-polarity amplitudes back into the smallest formula."""
    if is_concrete(amp0) and is_concrete(amp1):
        a0, a1 = complex(amp0), complex(amp1)
        if _negligible(a0) and _negligible(a1):
            return NULL
        if _negligible(a1):
            return Atom(name, negated=True)
        if _negligible(a0):
            return Atom(name, negated=False)
        if _negligible(a0 - SQRT1_2) and _negligible(a1 - SQRT1_2):
            return Qubit(name)
    return Qubit(name, (amp0, amp1))


def normalize(f: Formula) -> Formula:
    """Rewrite a formula to its canonical form.

    Applied bottom-up to fixpoint: idempotence (X & X to X), cancellation
    of opposite degrees to the null proposition, folding of a complementary
    pair on one wire into the qubit proposition (Q_X abbreviates X & X^),
    amplitude-wise combination of two single-wire conjuncts, and ordering
    of @ operands by wire name (commutativity).
    """
    if isinstance(f, Atom) or isinstance(f, Null):
        return f
    if isinstance(f, Qubit):
        if f.degrees is not None:
            return _canonical_qubit(f.name, f.degrees[0], f.degrees[1])
        return f
    if isinstance(f, Par):
        return Par(normalize(f.left), normalize(f.right))
    if isinstance(f, Ent):
        # degenerate degrees could collapse a party out of the qubit/literal
        # domain; such operands are kept as written
        left, right = (g if isinstance(g := normalize(p), (Qubit, Atom)) else p
                       for p in (f.left, f.right))
        lw, rw = party_wire(left), party_wire(right)
        if lw is not None and rw is not None and rw < lw:
            left, right = right, left
        return Ent(left, right)
    if isinstance(f, And):
        left, right = normalize(f.left), normalize(f.right)
        degrees = f.degrees
        if formula_eq(left, right):
            if degrees is None:
                return left
            if is_concrete(degrees[0]) and is_concrete(degrees[1]):
                total = complex(degrees[0]) + complex(degrees[1])
                if _negligible(total):
                    return NULL
                # surviving amplitude is tracked by the denotation layer
                return left
            return And(left, right, degrees)
        lw, rw = party_wire(left), party_wire(right)
        if lw is not None and lw == rw:
            la, ra = qubit_amplitudes(left), qubit_amplitudes(right)
            dl, dr = degrees if degrees is not None else EVEN_DEGREES
            parts = (dl, dr) + la + ra
            if all(is_concrete(d) for d in parts):
                amp0 = complex(dl) * complex(la[0]) + complex(dr) * complex(ra[0])
                amp1 = complex(dl) * complex(la[1]) + complex(dr) * complex(ra[1])
                return _canonical_qubit(lw, amp0, amp1)
        return And(left, right, degrees)
    raise TypeError(f"not a formula: {f!r}")


def formula_eq(f: Formula, g: Formula) -> bool:
    """Structural identity with degree comparison up to tolerance."""
    if type(f) is not type(g):
        return False
    if isinstance(f, Atom):
        return f.name == g.name and f.negated == g.negated
    if isinstance(f, Null):
        return True
    if isinstance(f, Qubit):
        return f.name == g.name and degree_pair_eq(f.degrees, g.degrees)
    if isinstance(f, And):
        return (degree_pair_eq(f.degrees, g.degrees)
                and formula_eq(f.left, g.left)
                and formula_eq(f.right, g.right))
    if isinstance(f, (Par, Ent)):
        return formula_eq(f.left, g.left) and formula_eq(f.right, g.right)
    raise TypeError(f"not a formula: {f!r}")


def equivalent(f: Formula, g: Formula) -> bool:
    """True iff the normal forms of f and g are structurally identical."""
    return formula_eq(normalize(f), normalize(g))


def sequent_equivalent(s: Sequent, t: Sequent) -> bool:
    """True iff the degrees agree and the normal forms of the formulas are
    structurally identical, position by position."""
    return (len(s.antecedent) == len(t.antecedent)
            and len(s.consequent) == len(t.consequent)
            and degree_eq(s.degree, t.degree)
            and all(map(equivalent, s.antecedent, t.antecedent))
            and all(map(equivalent, s.consequent, t.consequent)))


def formula_wires(*formulas: Formula) -> set:
    """Wire names occurring in the formulas; ``0`` names none."""
    wires: set = set()
    todo = list(formulas)
    for g in todo:  # the walk appends each connective's operands as it goes
        cls = g.__class__
        if cls is Atom or cls is Qubit:
            wires.add(g.name)
        elif cls is Par or cls is And or cls is Ent:
            todo += (g.left, g.right)
    return wires


# ---------------------------------------------------------------------------
# Text form (shared by the renderer, reports and error messages).

# The binary connectives and their spelling, loosest first; each groups to
# the left.  The parser and ``formula_str`` both read precedence from here.
CONNECTIVES = ((Ent, "@"), (And, "&"), (Par, "#"))
_LEVEL = {cls: level for level, (cls, _) in enumerate(CONNECTIVES)}


def degree_str(d: Degree) -> str:
    if isinstance(d, SymDegree):
        return d.name
    c = complex(d)
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{c.imag!r}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def _degree_pair_str(degrees: Optional[DegreePair]) -> str:
    """``{a,b}``, or nothing for the undegreed pair."""
    return "" if degrees is None else f"{{{degree_str(degrees[0])},{degree_str(degrees[1])}}}"


def formula_str(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name + "^" if f.negated else f.name
    if isinstance(f, Qubit):
        return "Q_" + f.name if f.degrees is None else f"Q_{f.name}{_degree_pair_str(f.degrees)}"
    if isinstance(f, Null):
        return "0"
    level = _LEVEL.get(type(f))
    if level is None:
        raise TypeError(f"not a formula: {f!r}")
    op = CONNECTIVES[level][1]
    if isinstance(f, And):
        op += _degree_pair_str(f.degrees)
    # a child binding looser, or as loose on the right, is parenthesized;
    # an atom, qubit or 0 binds tighter than every connective
    left, right = formula_str(f.left), formula_str(f.right)
    if _LEVEL.get(type(f.left), len(CONNECTIVES)) < level:
        left = f"({left})"
    if _LEVEL.get(type(f.right), len(CONNECTIVES)) <= level:
        right = f"({right})"
    return f"{left} {op} {right}"


def sequent_str(s: Sequent) -> str:
    text = "|-" if s.degree is None else f"|-{{{degree_str(s.degree)}}}"
    if s.antecedent:
        text = ", ".join(map(formula_str, s.antecedent)) + " " + text
    if s.consequent:
        text += " " + ", ".join(map(formula_str, s.consequent))
    return text
