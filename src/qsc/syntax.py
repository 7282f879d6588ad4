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


def degree_eq(a: Optional[Degree], b: Optional[Degree]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, SymDegree) or isinstance(b, SymDegree):
        return isinstance(a, SymDegree) and isinstance(b, SymDegree) and a.name == b.name
    return abs(complex(a) - complex(b)) <= DEGREE_TOL


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


def _qubit_amplitudes(f: Formula) -> Optional[DegreePair]:
    """(amp on X^, amp on X) of a single-wire formula, None if not one."""
    if isinstance(f, Atom):
        return (complex(1), complex(0)) if f.negated else (complex(0), complex(1))
    if isinstance(f, Qubit):
        if f.degrees is None:
            return (complex(SQRT1_2), complex(SQRT1_2))
        return f.degrees
    return None


def _canonical_qubit(name: str, amp0: Degree, amp1: Degree) -> Formula:
    """Fold per-polarity amplitudes back into the smallest formula."""
    if is_concrete(amp0) and is_concrete(amp1):
        a0, a1 = complex(amp0), complex(amp1)
        if abs(a0) <= DEGREE_TOL and abs(a1) <= DEGREE_TOL:
            return NULL
        if abs(a1) <= DEGREE_TOL:
            return Atom(name, negated=True)
        if abs(a0) <= DEGREE_TOL:
            return Atom(name, negated=False)
        if abs(a0 - SQRT1_2) <= DEGREE_TOL and abs(a1 - SQRT1_2) <= DEGREE_TOL:
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
                if abs(total) <= DEGREE_TOL:
                    return NULL
                # surviving amplitude is tracked by the denotation layer
                return left
            return And(left, right, degrees)
        lw, rw = party_wire(left), party_wire(right)
        if lw is not None and lw == rw:
            la, ra = _qubit_amplitudes(left), _qubit_amplitudes(right)
            dl, dr = degrees if degrees is not None else (complex(SQRT1_2), complex(SQRT1_2))
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


def sequent_eq(s: Sequent, t: Sequent) -> bool:
    """Positional equality of two sequents, formulas compared structurally."""
    return (len(s.antecedent) == len(t.antecedent)
            and len(s.consequent) == len(t.consequent)
            and degree_eq(s.degree, t.degree)
            and all(formula_eq(a, b) for a, b in zip(s.antecedent, t.antecedent))
            and all(formula_eq(a, b) for a, b in zip(s.consequent, t.consequent)))


def normalize_sequent(s: Sequent) -> Sequent:
    return Sequent(tuple(normalize(f) for f in s.antecedent),
                   tuple(normalize(f) for f in s.consequent),
                   s.degree)


def sequent_equivalent(s: Sequent, t: Sequent) -> bool:
    return sequent_eq(normalize_sequent(s), normalize_sequent(t))


def formula_wires(f: Formula) -> Tuple[str, ...]:
    """Wire names occurring in a formula, in left-to-right first appearance."""
    seen: list[str] = []

    def walk(g: Formula) -> None:
        if isinstance(g, (Atom, Qubit)):
            if g.name not in seen:
                seen.append(g.name)
        elif isinstance(g, (And, Par, Ent)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Text form (shared by the renderer, reports and error messages).

_PREC_ENT = 1
_PREC_AND = 2
_PREC_PAR = 3
_PREC_PRIMARY = 4


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


def _prec(f: Formula) -> int:
    if isinstance(f, Ent):
        return _PREC_ENT
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Par):
        return _PREC_PAR
    return _PREC_PRIMARY


def formula_str(f: Formula) -> str:
    def child(g: Formula, parent_prec: int, right: bool) -> str:
        text = formula_str(g)
        p = _prec(g)
        if p < parent_prec or (p == parent_prec and right):
            return f"({text})"
        return text

    if isinstance(f, Atom):
        return f.name + ("^" if f.negated else "")
    if isinstance(f, Null):
        return "0"
    if isinstance(f, Qubit):
        if f.degrees is None:
            return f"Q_{f.name}"
        return f"Q_{f.name}{{{degree_str(f.degrees[0])},{degree_str(f.degrees[1])}}}"
    if isinstance(f, And):
        op = "&" if f.degrees is None else \
            f"&{{{degree_str(f.degrees[0])},{degree_str(f.degrees[1])}}}"
        return f"{child(f.left, _PREC_AND, False)} {op} {child(f.right, _PREC_AND, True)}"
    if isinstance(f, Par):
        return f"{child(f.left, _PREC_PAR, False)} # {child(f.right, _PREC_PAR, True)}"
    if isinstance(f, Ent):
        return f"{child(f.left, _PREC_ENT, False)} @ {child(f.right, _PREC_ENT, True)}"
    raise TypeError(f"not a formula: {f!r}")


def sequent_str(s: Sequent) -> str:
    left = ", ".join(formula_str(f) for f in s.antecedent)
    right = ", ".join(formula_str(f) for f in s.consequent)
    stile = "|-" if s.degree is None else f"|-{{{degree_str(s.degree)}}}"
    parts = [p for p in (left, stile, right) if p]
    return " ".join(parts)
