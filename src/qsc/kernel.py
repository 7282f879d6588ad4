"""Rule-by-rule checker for derivation trees.

This is a checker, not a prover: every node of a derivation names the rule
it claims to instantiate, its premises, and its conclusion, and the kernel
only verifies that the stated conclusion matches the rule schema applied to
the stated premises.  There are no contraction, weakening or permutation
rules; scripts naming them are rejected before they ever reach the kernel.

Two context disciplines are supported.  ``basic`` enforces visibility (no
active context) on the cut rule's right premise and on the left conjunction
reflection; ``intuitionistic`` admits a left context in those two places
and is strictly more permissive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple, Union

from .syntax import (
    SQRT1_2,
    And,
    Atom,
    Ent,
    Formula,
    Par,
    Qubit,
    Sequent,
    degree_eq,
    formula_eq,
    formula_str,
    negate,
    normalize,
    party_wire,
    sequent_equivalent,
    sequent_str,
)


class LogicMode(enum.Enum):
    BASIC = "basic"
    INTUITIONISTIC_LEFT = "intuitionistic"


Param = Union[str, Formula]


@dataclass(frozen=True, eq=False)
class Derivation:
    """One node of a derivation tree; ``==`` and ``hash`` do not recurse."""

    rule: str
    conclusion: Sequent
    premises: Tuple["Derivation", ...] = ()
    params: Tuple[Param, ...] = ()

    def _key(self):
        return (self.rule, self.conclusion, self.params, len(self.premises))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is not b and (id(a), id(b)) not in seen:
                if a._key() != b._key():
                    return False
                seen.add((id(a), id(b)))
                stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Verdict:
    """A rule check's outcome.

    On a pass, ``action`` is the rule instance the checker matched, as the
    state-vector replay reads it: ``("keep",)`` passes the first premise's
    state on, ``("join",)`` joins the two premises' states as branches,
    ``("cut",)`` measures the first premise's state with the projector the
    second premise denotes, ``("gate", name, wires)`` applies the gate
    ``"H"`` or ``"CNOT"`` to the first premise's state, and
    ``("project", wires, bit)`` projects it onto ``bit`` on every one of
    ``wires``.  Leaves and rules without a state reading carry ``()``.
    """

    ok: bool
    code: str = "ok"
    message: str = ""
    action: tuple = ()

    @staticmethod
    def passed(message: str = "", action: tuple = ()) -> "Verdict":
        return Verdict(True, "ok", message, action)

    @staticmethod
    def failed(code: str, message: str) -> "Verdict":
        return Verdict(False, code, message)


@dataclass
class NodeEntry:
    path: str
    rule: str
    sequent: Sequent
    verdict: Verdict
    node: Derivation = field(repr=False, compare=False, default=None)


@dataclass
class CheckReport:
    ok: bool
    mode: LogicMode
    entries: list  # of NodeEntry, deterministic post-order


def _fail(code: str, message: str) -> Verdict:
    return Verdict.failed(code, message)


_KEEP, _JOIN = ("keep",), ("join",)


def _conclusion_check(stated: Sequent, expected: Sequent,
                      code: str = "ConclusionMismatch", action: tuple = ()) -> Verdict:
    if sequent_equivalent(stated, expected):
        return Verdict.passed(action=action)
    return _fail(code, f"stated '{sequent_str(stated)}' does not match "
                       f"schema conclusion '{sequent_str(expected)}'")


def _contexts_match(a: Sequence[Formula], b: Sequence[Formula]) -> bool:
    return len(a) == len(b) and all(
        formula_eq(normalize(x), normalize(y)) for x, y in zip(a, b))


def _literal(f: Formula) -> Optional[Atom]:
    return f if isinstance(f, Atom) else None


def _full_qubit(f: Formula) -> Optional[Qubit]:
    g = normalize(f)
    return g if isinstance(g, Qubit) else None


def _splice(items: Tuple, index: int, replacement: Sequence) -> Tuple:
    return items[:index] + tuple(replacement) + items[index + 1:]


# ---------------------------------------------------------------------------
# Leaves

def check_axiom(node: Derivation) -> Verdict:
    c = node.conclusion
    if (len(c.antecedent) == 1 and len(c.consequent) == 1
            and isinstance(c.antecedent[0], Atom)
            and formula_eq(c.antecedent[0], c.consequent[0])
            and c.degree is None):
        return Verdict.passed()
    return _fail("SchemaMismatch", "axiom must have the shape 'X |- X' with X atomic")


def check_ataxiom(node: Derivation) -> Verdict:
    c = node.conclusion
    if len(c.antecedent) != 1 or len(c.consequent) != 2 or c.degree is not None:
        return _fail("SchemaMismatch", "@-axiom has the shape 'Q_X @ Q_Y |- x, y'")
    ent = normalize(c.antecedent[0])
    x, y = _literal(c.consequent[0]), _literal(c.consequent[1])
    if not isinstance(ent, Ent) or x is None or y is None:
        return _fail("SchemaMismatch", "@-axiom has the shape 'Q_X @ Q_Y |- x, y'")
    if _full_qubit(ent.left) is None or _full_qubit(ent.right) is None:
        return _fail("SchemaMismatch", "@-axiom requires both parties entangled")
    wires = {party_wire(ent.left), party_wire(ent.right)}
    if {x.name, y.name} != wires:
        return _fail("SchemaMismatch", "@-axiom literals must name the entangled wires")
    return Verdict.passed()


# ---------------------------------------------------------------------------
# Conjunction rules

def check_andform(premises: Tuple[Sequent, Sequent], conclusion: Sequent) -> Verdict:
    p1, p2 = premises
    if not _contexts_match(p1.antecedent, p2.antecedent):
        return _fail("ContextMismatch", "left contexts of the two premises differ")
    n = len(p1.consequent)
    if n == 0 or len(p2.consequent) != n:
        return _fail("ContextMismatch", "premise consequents must have equal nonzero length")
    if (p1.degree is None) != (p2.degree is None):
        return _fail("DegreeMismatch", "either both premises carry a degree or neither")
    degrees = None if p1.degree is None else (p1.degree, p2.degree)
    diffs = [i for i in range(n)
             if not formula_eq(normalize(p1.consequent[i]), normalize(p2.consequent[i]))]
    if len(diffs) > 1:
        return _fail("ContextMismatch",
                     "premises may differ in exactly one consequent position")
    candidates = diffs if diffs else list(range(n))
    for i in candidates:
        joined = And(p1.consequent[i], p2.consequent[i], degrees)
        expected = Sequent(p1.antecedent, _splice(p1.consequent, i, (joined,)))
        if sequent_equivalent(conclusion, expected):
            return Verdict.passed(action=_JOIN)
    joined = And(p1.consequent[candidates[0]], p2.consequent[candidates[0]], degrees)
    expected = Sequent(p1.antecedent, _splice(p1.consequent, candidates[0], (joined,)))
    return _conclusion_check(conclusion, expected, action=_JOIN)


def check_andrefl(premise: Sequent, conclusion: Sequent, mode: LogicMode) -> Verdict:
    if premise.degree is not None or conclusion.degree is not None:
        return _fail("SchemaMismatch", "conjunction reflection is undegreed")
    if not _contexts_match(premise.consequent, conclusion.consequent):
        return _fail("SchemaMismatch", "consequent must pass through unchanged")
    if len(premise.antecedent) != len(conclusion.antecedent) or not premise.antecedent:
        return _fail("SchemaMismatch", "one antecedent formula is replaced in place")
    diffs = [i for i in range(len(premise.antecedent))
             if not formula_eq(normalize(premise.antecedent[i]),
                               normalize(conclusion.antecedent[i]))]
    if len(diffs) != 1:
        return _fail("SchemaMismatch", "exactly one antecedent formula changes")
    i = diffs[0]
    active = _literal(premise.antecedent[i])
    if active is None:
        return _fail("SchemaMismatch", "the reflected formula must be a literal")
    if mode is LogicMode.BASIC and len(premise.antecedent) != 1:
        return _fail("VisibilityViolation",
                     "basic mode admits no context beside the reflected formula")
    expected_formula = And(Atom(active.name), Atom(active.name, negated=True))
    expected = Sequent(_splice(premise.antecedent, i, (expected_formula,)),
                       premise.consequent)
    return _conclusion_check(conclusion, expected, "SchemaMismatch")


# ---------------------------------------------------------------------------
# Par formation

def check_parform(premise: Sequent, conclusion: Sequent,
                  params: Tuple[Param, ...]) -> Verdict:
    n = len(premise.consequent)
    if n < 2:
        return _fail("SchemaMismatch", "par formation needs two consequent formulas")
    if params:
        try:
            i = int(str(params[0]))
        except ValueError:
            return _fail("SchemaMismatch", f"bad par position {params[0]!r}")
        if not 0 <= i < n - 1:
            return _fail("SchemaMismatch", f"par position {i} out of range")
        positions = [i]
    else:
        positions = list(range(n - 1))
    for i in positions:
        joined = Par(premise.consequent[i], premise.consequent[i + 1])
        expected = Sequent(premise.antecedent,
                           premise.consequent[:i] + (joined,) + premise.consequent[i + 2:],
                           premise.degree)
        if sequent_equivalent(conclusion, expected):
            return Verdict.passed(action=_KEEP)
    return _fail("ConclusionMismatch",
                 "conclusion does not join two adjacent consequent formulas with #")


# ---------------------------------------------------------------------------
# Negation moves, read permissively: the whole antecedent crosses the
# turnstile, and only the atoms named in the rule parameters are negated on
# the way (bystanders pass through unchanged).

def _neg_move(formulas: Sequence[Formula], names) -> Optional[Tuple[Formula, ...]]:
    out = []
    for f in formulas:
        lit = _literal(f)
        if lit is None:
            return None
        out.append(negate(lit) if lit.name in names else lit)
    return tuple(out)


def _neg_params(params: Tuple[Param, ...], formulas: Sequence[Formula]):
    if params:
        return frozenset(str(p) for p in params)
    return frozenset(f.name for f in formulas if isinstance(f, Atom))


def check_negform(premise: Sequent, conclusion: Sequent,
                  params: Tuple[Param, ...]) -> Verdict:
    if not premise.antecedent:
        return _fail("SchemaMismatch", "negation formation moves antecedent formulas")
    if premise.degree is not None or conclusion.degree is not None:
        return _fail("SchemaMismatch", "negation moves are undegreed")
    names = _neg_params(params, premise.antecedent)
    moved = _neg_move(premise.antecedent, names)
    if moved is None:
        return _fail("SchemaMismatch", "only atoms can cross the turnstile")
    expected = Sequent((), moved + premise.consequent)
    return _conclusion_check(conclusion, expected, "SchemaMismatch")


def check_negrefl(premise: Sequent, conclusion: Sequent,
                  params: Tuple[Param, ...]) -> Verdict:
    if premise.antecedent or not premise.consequent:
        return _fail("SchemaMismatch", "negation reflection moves the consequent across")
    if premise.degree is not None or conclusion.degree is not None:
        return _fail("SchemaMismatch", "negation moves are undegreed")
    names = _neg_params(params, premise.consequent)
    moved = _neg_move(premise.consequent, names)
    if moved is None:
        return _fail("SchemaMismatch", "only atoms can cross the turnstile")
    expected = Sequent(moved, ())
    return _conclusion_check(conclusion, expected, "SchemaMismatch")


# ---------------------------------------------------------------------------
# Cut.  Three recognized shapes:
#   standard     (Gamma |- ... A ... ; [Delta,] A |- Xi)  =>  spliced join
#   collapse     (Gamma |- (Q_X @ Q_Y) ; Q_X |- w)        =>  Gamma |- (w @ Q_Y)
#   bell         (|- (Q_X @ Q_Y), Q_Z ; Q_X, Q_Z |-{d} w) =>  |-{d} (w @ Q_Y)
# The last two realize measurements inside an entangled assertion; the bell
# shape is the joint two-qubit measurement of the teleportation proof and
# carries the outcome's assertion degree onto the conclusion.

def _measurement(right: Sequent) -> tuple:
    """The projection the right premise of a cut or EPR step denotes, or
    ``()``: one or two undegreed qubits measured into an outcome literal on
    one of their wires."""
    measured = [normalize(f) for f in right.antecedent]
    outcome = _literal(right.consequent[0]) if len(right.consequent) == 1 else None
    if (outcome is None or not 1 <= len(measured) <= 2
            or not all(isinstance(m, Qubit) and m.degrees is None for m in measured)):
        return ()
    wires = tuple(m.name for m in measured)
    return ("project", wires, int(not outcome.negated)) if outcome.name in wires else ()


def _find_formula(formulas: Sequence[Formula], target: Formula) -> Optional[int]:
    t = normalize(target)
    for i, f in enumerate(formulas):
        if formula_eq(normalize(f), t):
            return i
    return None


def _ent_party_index(ent: Ent, wire: str) -> Optional[str]:
    if isinstance(ent.left, Qubit) and ent.left.name == wire:
        return "left"
    if isinstance(ent.right, Qubit) and ent.right.name == wire:
        return "right"
    return None


def _collapse_ent(ent: Ent, wire: str, outcome: Atom) -> Optional[Ent]:
    side = _ent_party_index(ent, wire)
    if side is None:
        return None
    if side == "left":
        return Ent(outcome, ent.right)
    return Ent(ent.left, outcome)


def check_cut(left: Sequent, right: Sequent, conclusion: Sequent,
              mode: LogicMode, params: Tuple[Param, ...]) -> Verdict:
    cut_formula = None
    for p in params:
        if isinstance(p, Formula):
            cut_formula = p

    right_qubits = [f for f in right.antecedent if isinstance(normalize(f), Qubit)]

    # Bell-measurement shape (two measured qubits on the right premise).
    if cut_formula is None and len(right.antecedent) == 2 \
            and len(right_qubits) == 2 and len(right.consequent) == 1:
        outcome = _literal(right.consequent[0])
        if outcome is not None:
            verdict = _check_bell_cut(left, right, conclusion, outcome)
            if verdict is not None:
                return verdict

    # Collapse shape (measurement of one party of an entangled assertion).
    if cut_formula is None and len(right.antecedent) == 1 \
            and len(right.consequent) == 1:
        measured = normalize(right.antecedent[0])
        outcome = _literal(right.consequent[0])
        if isinstance(measured, Qubit) and outcome is not None \
                and outcome.name == measured.name \
                and _find_formula(left.consequent, measured) is None:
            for i, f in enumerate(left.consequent):
                g = normalize(f)
                if isinstance(g, Ent):
                    collapsed = _collapse_ent(g, measured.name, outcome)
                    if collapsed is not None:
                        expected = Sequent(left.antecedent,
                                           _splice(left.consequent, i, (collapsed,)),
                                           right.degree)
                        return _conclusion_check(conclusion, expected, action=_measurement(right))

    # Standard cut.
    if cut_formula is None:
        shared = [f for f in right.antecedent
                  if _find_formula(left.consequent, f) is not None]
        if len(shared) != 1:
            return _fail("CutFormulaMismatch",
                         "cannot identify a unique cut formula; name it explicitly")
        cut_formula = shared[0]
    left_pos = _find_formula(left.consequent, cut_formula)
    right_pos = _find_formula(right.antecedent, cut_formula)
    if left_pos is None:
        return _fail("CutFormulaMismatch",
                     f"left premise does not conclude '{formula_str(cut_formula)}'")
    if right_pos is None:
        return _fail("CutFormulaMismatch",
                     f"right premise does not assume '{formula_str(cut_formula)}'")
    context = right.antecedent[:right_pos] + right.antecedent[right_pos + 1:]
    if context and mode is LogicMode.BASIC:
        return _fail("VisibilityViolation",
                     "basic mode admits no active context around the cut formula")
    degree = right.degree if right.degree is not None else left.degree
    expected = Sequent(left.antecedent + context,
                       _splice(left.consequent, left_pos, right.consequent),
                       degree)
    return _conclusion_check(conclusion, expected, action=_measurement(right))


def _check_bell_cut(left: Sequent, right: Sequent, conclusion: Sequent,
                    outcome: Atom) -> Optional[Verdict]:
    q1, q2 = (normalize(f) for f in right.antecedent)
    ents = [(i, normalize(f)) for i, f in enumerate(left.consequent)
            if isinstance(normalize(f), Ent)]
    for i, ent in ents:
        for measured, spectator in ((q1, q2), (q2, q1)):
            if outcome.name != spectator.name:
                continue
            collapsed = _collapse_ent(ent, measured.name, outcome)
            if collapsed is None:
                continue
            # the spectator matches by wire: the measured copy is undegreed
            # even when the assertion carries the unknown state's degrees
            j = next((k for k, f in enumerate(left.consequent)
                      if k != i and isinstance(normalize(f), Qubit)
                      and normalize(f).name == spectator.name), None)
            if j is None:
                continue
            consequent = list(left.consequent)
            consequent[i] = collapsed
            del consequent[j]
            expected = Sequent(left.antecedent, tuple(consequent), right.degree)
            return _conclusion_check(conclusion, expected, action=_measurement(right))
    return None


# ---------------------------------------------------------------------------
# Entanglement connective rules

def _pairs_as_phi(p1: Sequent, p2: Sequent) -> bool:
    """Whether the @-formation premises assert complementary literal pairs
    of matching polarities, the one reading ('phi') of the @ connective."""
    if len(p1.consequent) != 2 or len(p2.consequent) != 2:
        return False
    lits = [(_literal(p1.consequent[0]), _literal(p1.consequent[1])),
            (_literal(p2.consequent[0]), _literal(p2.consequent[1]))]
    if any(x is None for pair in lits for x in pair):
        return False
    (x1, y1), (x2, y2) = lits
    if x1.name != x2.name or y1.name != y2.name or x1.name == y1.name:
        return False
    if x1.negated == x2.negated or y1.negated == y2.negated:
        return False
    return x1.negated == y1.negated


def check_atform(premises: Tuple[Sequent, Sequent], conclusion: Sequent,
                 params: Tuple[Param, ...]) -> Verdict:
    p1, p2 = premises
    if not _contexts_match(p1.antecedent, p2.antecedent):
        return _fail("ContextMismatch", "left contexts of the two premises differ")
    for p in premises:
        if len(p.consequent) > 2:
            return _fail("VisibilityViolation",
                         "extra right formulas act as a context on the right "
                         "of the @-formation premises")
        if len(p.consequent) < 2:
            return _fail("SchemaMismatch", "@-formation premises assert a pair")
    if not _pairs_as_phi(p1, p2):
        return _fail("SchemaMismatch",
                     "premises must assert complementary literal pairs "
                     "of matching polarities (phi)")
    if params and str(params[0]) not in ("", "phi"):
        return _fail("SchemaMismatch", f"@ has the phi reading only, not {params[0]}")
    if (p1.degree is None) != (p2.degree is None):
        return _fail("DegreeMismatch", "either both premises carry a degree or neither")
    x1 = _literal(p1.consequent[0])
    y1 = _literal(p1.consequent[1])
    if p1.degree is None:
        qx: Formula = Qubit(x1.name)
        qy: Formula = Qubit(y1.name)
        candidates = [Ent(qx, qy)]
    else:
        deg_neg = p1.degree if x1.negated else p2.degree
        deg_pos = p2.degree if x1.negated else p1.degree
        candidates = [Ent(Qubit(x1.name, (deg_neg, deg_pos)), Qubit(y1.name))]
        deg_neg_y = p1.degree if y1.negated else p2.degree
        deg_pos_y = p2.degree if y1.negated else p1.degree
        candidates.append(Ent(Qubit(x1.name), Qubit(y1.name, (deg_neg_y, deg_pos_y))))
    if len(conclusion.consequent) != 1 or conclusion.degree is not None:
        if len(conclusion.consequent) > 1:
            return _fail("VisibilityViolation",
                         "the @-formation conclusion asserts the entangled pair alone")
        return _fail("SchemaMismatch", "conclusion must assert the entangled pair")
    for cand in candidates:
        expected = Sequent(p1.antecedent, (cand,))
        if sequent_equivalent(conclusion, expected):
            return Verdict.passed("convention=phi", _JOIN)
    return _conclusion_check(conclusion, Sequent(p1.antecedent, (candidates[0],)))


def check_atimplrefl(premise: Sequent, conclusion: Sequent,
                     params: Tuple[Param, ...]) -> Verdict:
    if len(premise.consequent) != 1:
        return _fail("VisibilityViolation",
                     "implicit @-reflection acts on the entangled assertion alone")
    ent = normalize(premise.consequent[0])
    if not isinstance(ent, Ent):
        return _fail("SchemaMismatch", "premise must assert an entangled pair")
    lq, rq = _full_qubit(ent.left), _full_qubit(ent.right)
    if lq is None or rq is None:
        return _fail("SchemaMismatch", "both parties must still be qubits")
    branch = str(params[0]) if params else "pos"
    if branch not in ("pos", "neg"):
        return _fail("SchemaMismatch", f"unknown branch {branch!r}")
    negated = branch == "neg"
    expected = Sequent(premise.antecedent,
                       (Atom(lq.name, negated), Atom(rq.name, negated)),
                       premise.degree)
    # operand order as stated in the premise, before commutative reordering
    stated = premise.consequent[0]
    if isinstance(stated, Ent):
        lw = party_wire(stated.left)
        rw = party_wire(stated.right)
        expected = Sequent(premise.antecedent,
                           (Atom(lw, negated), Atom(rw, negated)),
                           premise.degree)
    action = ("project", tuple(a.name for a in expected.consequent), int(not negated))
    if sequent_equivalent(conclusion, expected):
        return Verdict.passed(action=action)
    swapped = Sequent(expected.antecedent,
                      (expected.consequent[1], expected.consequent[0]),
                      expected.degree)
    return _conclusion_check(conclusion, swapped, action=action)


def check_atexplrefl(premises: Tuple[Sequent, Sequent],
                     conclusion: Sequent) -> Verdict:
    p1, p2 = premises
    x = _literal(p1.antecedent[0]) if len(p1.antecedent) == 1 else None
    y = _literal(p2.antecedent[0]) if len(p2.antecedent) == 1 else None
    if x is None or y is None or x.name == y.name or x.negated != y.negated:
        return _fail("SchemaMismatch",
                     "explicit @-reflection takes same-polarity literal assumptions")
    expected = Sequent((Ent(Qubit(x.name), Qubit(y.name)),),
                       p1.consequent + p2.consequent)
    return _conclusion_check(conclusion, expected, "SchemaMismatch")


def check_semidistrib(premise: Sequent, conclusion: Sequent) -> Verdict:
    mixed = []
    for i, f in enumerate(premise.consequent):
        g = normalize(f)
        if isinstance(g, Ent):
            sides = (g.left, g.right)
            lits = [s for s in sides if isinstance(s, Atom)]
            qubits = [s for s in sides if isinstance(s, Qubit)]
            if len(lits) == 1 and len(qubits) == 1:
                mixed.append((i, lits[0], qubits[0]))
            elif len(qubits) == 2:
                return _fail("SchemaMismatch",
                             "semi-distributivity needs one collapsed party")
    if len(mixed) != 1:
        return _fail("SchemaMismatch",
                     "premise must contain exactly one mixed @ formula")
    i, lit, qubit = mixed[0]
    partner = Atom(qubit.name, lit.negated)
    expected = Sequent(premise.antecedent,
                       _splice(premise.consequent, i, (lit, partner)),
                       premise.degree)
    return _conclusion_check(conclusion, expected, "SchemaMismatch", _KEEP)


# ---------------------------------------------------------------------------
# Qubit split: the display step combining the conjunction-reflection axioms
# Q_X |- X and Q_X |- X^ with par/& distribution.  One script step selects
# one branch; the axioms may be given explicitly or left implicit.

def check_qsplit(premises: Tuple[Sequent, ...], conclusion: Sequent,
                 params: Tuple[Param, ...]) -> Verdict:
    if len(premises) not in (1, 3):
        return _fail("BranchFailure", "qsplit takes the source sequent "
                                      "(optionally with both reflection axioms)")
    source = premises[0]
    branch = str(params[0]) if params else "pos"
    if branch not in ("pos", "neg"):
        return _fail("SchemaMismatch", f"unknown branch {branch!r}")
    qubits = [(i, normalize(f)) for i, f in enumerate(source.consequent)
              if isinstance(normalize(f), Qubit)]
    candidates = [(i, q) for i, q in qubits if q.degrees is None]
    if len(params) > 1:
        candidates = [(i, q) for i, q in candidates if q.name == str(params[1])]
    if len(candidates) != 1:
        return _fail("SchemaMismatch",
                     "source must contain exactly one undegreed qubit "
                     "(or name the wire as a second parameter)")
    i, qubit = candidates[0]
    if len(premises) == 3:
        shapes = set()
        for axiom in premises[1:]:
            lit = _literal(axiom.consequent[0]) if len(axiom.consequent) == 1 else None
            ant = normalize(axiom.antecedent[0]) if len(axiom.antecedent) == 1 else None
            if (lit is None or not isinstance(ant, Qubit)
                    or ant.name != qubit.name or lit.name != qubit.name
                    or axiom.degree is not None):
                return _fail("SchemaMismatch",
                             "expected the two reflection axioms "
                             f"'Q_{qubit.name} |- {qubit.name}' and "
                             f"'Q_{qubit.name} |- {qubit.name}^'")
            shapes.add(lit.negated)
        if shapes != {True, False}:
            return _fail("SchemaMismatch", "both reflection axioms are required")
    outcome = Atom(qubit.name, negated=(branch == "neg"))
    expected = Sequent(source.antecedent,
                       _splice(source.consequent, i, (outcome,)),
                       source.degree)
    return _conclusion_check(conclusion, expected, "SchemaMismatch",
                             ("project", (qubit.name,), int(not outcome.negated)))


# ---------------------------------------------------------------------------
# Structural rules for the quantum gates

_H_PLUS = (complex(SQRT1_2), complex(SQRT1_2))
_H_MINUS = (complex(SQRT1_2), complex(-SQRT1_2))


def check_hrule(premise: Sequent, conclusion: Sequent) -> Verdict:
    lit = _literal(premise.consequent[0]) if (
        not premise.antecedent and len(premise.consequent) == 1
        and premise.degree is None) else None
    if lit is None:
        return _fail("SchemaMismatch", "H acts on a single asserted bit")
    target = _H_PLUS if lit.negated else _H_MINUS
    if conclusion.antecedent or len(conclusion.consequent) != 1 \
            or conclusion.degree is not None:
        return _fail("SchemaMismatch", "H concludes a single degreed qubit assertion")
    stated = normalize(conclusion.consequent[0])
    if not isinstance(stated, Qubit) or stated.name != lit.name:
        return _fail("SchemaMismatch", "conclusion must assert the qubit of the same wire")
    stated_degrees = stated.degrees or _H_PLUS
    if not (degree_eq(stated_degrees[0], target[0])
            and degree_eq(stated_degrees[1], target[1])):
        return _fail("WrongDegrees",
                     f"H maps |{'0' if lit.negated else '1'}> to degrees "
                     f"({target[0].real:+.6f}, {target[1].real:+.6f})")
    return Verdict.passed(action=("gate", "H", (lit.name,)))


def check_hinverse(premise: Sequent, conclusion: Sequent) -> Verdict:
    if premise.antecedent or len(premise.consequent) != 1 or premise.degree is not None:
        return _fail("SchemaMismatch", "H^-1 acts on a single qubit assertion")
    stated = normalize(premise.consequent[0])
    if not isinstance(stated, Qubit):
        return _fail("SchemaMismatch", "H^-1 acts on a degreed qubit assertion")
    degrees = stated.degrees or _H_PLUS
    if degree_eq(degrees[0], _H_PLUS[0]) and degree_eq(degrees[1], _H_PLUS[1]):
        outcome = Atom(stated.name, negated=True)
    elif degree_eq(degrees[0], _H_MINUS[0]) and degree_eq(degrees[1], _H_MINUS[1]):
        outcome = Atom(stated.name, negated=False)
    else:
        return _fail("WrongDegrees", "premise is neither the |+> nor the |-> cat state")
    return _conclusion_check(conclusion, Sequent((), (outcome,)), "SchemaMismatch",
                             ("gate", "H", (stated.name,)))


_CNOT_CLAUSES = {
    # clause: (control negated, target negated) of the premise
    "a": (False, False),
    "b": (True, False),
    "a'": (False, True),
    "b'": (True, True),
}


def check_cnot(premise: Sequent, conclusion: Sequent,
               params: Tuple[Param, ...]) -> Verdict:
    if premise.antecedent or len(premise.consequent) != 2 or premise.degree is not None:
        return _fail("SchemaMismatch",
                     "CNOT acts on '|- control, target' with both wires atomic")
    control, target = (_literal(f) for f in premise.consequent)
    if control is None or target is None or control.name == target.name:
        return _fail("SchemaMismatch",
                     "CNOT needs two literals on distinct wires (control first)")
    if params:
        clause = str(params[0])
        if clause not in _CNOT_CLAUSES:
            return _fail("SchemaMismatch", f"unknown CNOT clause {clause!r}")
        if _CNOT_CLAUSES[clause] != (control.negated, target.negated):
            return _fail("SchemaMismatch",
                         f"premise polarities do not match clause ({clause})")
    # control true (|1>, positive literal) flips the target
    new_target = negate(target) if not control.negated else target
    expected = Sequent((), (control, new_target))
    return _conclusion_check(conclusion, expected, "SchemaMismatch",
                             ("gate", "CNOT", (control.name, target.name)))


# ---------------------------------------------------------------------------
# The EPR meta-rule, a macro over collapse-cut, semi-distributivity and
# par formation; each sub-step is re-checked with the same code paths as
# the named rules.

def epr_expansion(left: Sequent, right: Sequent) -> Optional[Tuple[Sequent, Sequent, Sequent]]:
    """The two intermediate sequents and final conclusion of the macro."""
    if len(left.consequent) != 1 or len(right.antecedent) != 1 \
            or len(right.consequent) != 1:
        return None
    ent = normalize(left.consequent[0])
    measured = normalize(right.antecedent[0])
    outcome = _literal(right.consequent[0])
    if not isinstance(ent, Ent) or not isinstance(measured, Qubit) or outcome is None:
        return None
    if outcome.name != measured.name:
        return None
    collapsed = _collapse_ent(ent, measured.name, outcome)
    if collapsed is None:
        return None
    partner_qubit = collapsed.right if isinstance(collapsed.left, Atom) else collapsed.left
    partner = Atom(partner_qubit.name, outcome.negated)
    mid1 = Sequent(left.antecedent, (collapsed,), right.degree)
    mid2 = Sequent(left.antecedent, (outcome, partner), right.degree)
    final = Sequent(left.antecedent, (Par(outcome, partner),), right.degree)
    return mid1, mid2, final


def check_epr(left: Sequent, right: Sequent, conclusion: Sequent,
              mode: LogicMode) -> Verdict:
    expansion = epr_expansion(left, right)
    if expansion is None:
        return _fail("SchemaMismatch",
                     "EPR needs an entangled assertion and a measurement "
                     "of one of its parties")
    mid1, mid2, final = expansion
    sub = check_cut(left, right, mid1, mode, ())
    if not sub.ok:
        return _fail(sub.code, f"collapse step: {sub.message}")
    sub = check_semidistrib(mid1, mid2)
    if not sub.ok:
        return _fail(sub.code, f"semi-distributivity step: {sub.message}")
    sub = check_parform(mid2, final, ())
    if not sub.ok:
        return _fail(sub.code, f"par formation step: {sub.message}")
    return _conclusion_check(conclusion, final, action=_measurement(right))


# ---------------------------------------------------------------------------
# Parallel join of two branches

def check_parallel(premises: Tuple[Sequent, Sequent], conclusion: Sequent,
                   params: Tuple[Param, ...]) -> Verdict:
    join = str(params[0]) if params else "and"
    if join == "and":
        verdict = check_andform(premises, conclusion)
    elif join == "at":
        verdict = check_atform(premises, conclusion, ())
    else:
        return _fail("SchemaMismatch", f"unknown join connective {join!r}")
    if verdict.ok:
        return verdict
    if verdict.code in ("VisibilityViolation",):
        return verdict
    return _fail("JoinMismatch", verdict.message)


# ---------------------------------------------------------------------------
# Tree driver

# Rule names as they appear in proof scripts, each with its fewest and most
# premises and its checker, which takes the node, the conclusions of its
# premises and the mode.  The structural rules C, W and P of ordinary
# sequent calculi are intentionally absent.
_RULE_TABLE = {
    "premise": (0, 0, lambda n, ps, mode: Verdict.passed("hypothesis")),
    "axiom": (0, 0, lambda n, ps, mode: check_axiom(n)),
    "ataxiom": (0, 0, lambda n, ps, mode: check_ataxiom(n)),
    "andform": (2, 2, lambda n, ps, mode: check_andform(ps, n.conclusion)),
    "andrefl": (1, 1, lambda n, ps, mode: check_andrefl(ps[0], n.conclusion, mode)),
    "parform": (1, 1, lambda n, ps, mode: check_parform(ps[0], n.conclusion, n.params)),
    "negform": (1, 1, lambda n, ps, mode: check_negform(ps[0], n.conclusion, n.params)),
    "negrefl": (1, 1, lambda n, ps, mode: check_negrefl(ps[0], n.conclusion, n.params)),
    "cut": (2, 2, lambda n, ps, mode: check_cut(ps[0], ps[1], n.conclusion, mode, n.params)),
    "atform": (2, 2, lambda n, ps, mode: check_atform(ps, n.conclusion, n.params)),
    "atimplrefl": (1, 1, lambda n, ps, mode: check_atimplrefl(ps[0], n.conclusion, n.params)),
    "atexplrefl": (2, 2, lambda n, ps, mode: check_atexplrefl(ps, n.conclusion)),
    "semidistrib": (1, 1, lambda n, ps, mode: check_semidistrib(ps[0], n.conclusion)),
    "qsplit": (1, 3, lambda n, ps, mode: check_qsplit(ps, n.conclusion, n.params)),
    "hrule": (1, 1, lambda n, ps, mode: check_hrule(ps[0], n.conclusion)),
    "hinverse": (1, 1, lambda n, ps, mode: check_hinverse(ps[0], n.conclusion)),
    "cnot": (1, 1, lambda n, ps, mode: check_cnot(ps[0], n.conclusion, n.params)),
    "epr": (2, 2, lambda n, ps, mode: check_epr(ps[0], ps[1], n.conclusion, mode)),
    "parallel": (2, 2, lambda n, ps, mode: check_parallel(ps, n.conclusion, n.params)),
}

RULES = frozenset(_RULE_TABLE)


def check_node(node: Derivation, mode: LogicMode) -> Verdict:
    rule = node.rule
    if rule not in RULES:
        return _fail("UnknownRule", f"no rule named {rule!r} exists in this calculus")
    lo, hi, checker = _RULE_TABLE[rule]
    if not lo <= len(node.premises) <= hi:
        return _fail("BranchFailure",
                     f"{rule} expects {lo if lo == hi else f'{lo}..{hi}'} "
                     f"premise(s), got {len(node.premises)}")
    return checker(node, tuple(p.conclusion for p in node.premises), mode)


def postorder(tree: Derivation,
              labels: Optional[dict] = None) -> Iterator[Tuple[Derivation, str]]:
    """Every distinct node of a derivation once, premises first, with its path.

    Premises come left to right, and a premise shared by several parents
    comes where the pre-order walk first reaches it.  The path is the
    node's label when ``labels`` (keyed by node identity) has one, else
    its tree path at that first visit: premise indices joined by dots,
    ``"root"`` for the root.  The walk keeps its own stack, so the depth
    of a derivation is bounded only by memory.
    """
    seen = {id(tree)}
    path = ""  # tree path of the node on top of the stack
    # each frame: a node, its premises still to visit, the length of its
    # parent's path (one path string, cut back on the way up, keeps the
    # memory linear in the depth)
    stack = [(tree, enumerate(tree.premises), 0)]
    while stack:
        node, premises, cut = stack[-1]
        for i, premise in premises:
            if id(premise) not in seen:
                seen.add(id(premise))
                stack.append((premise, enumerate(premise.premises), len(path)))
                path = f"{path}.{i}" if path else str(i)
                break
        else:
            stack.pop()
            if labels and id(node) in labels:
                yield node, str(labels[id(node)])
            else:
                yield node, path or "root"
            path = path[:cut]


def check_derivation(tree: Derivation, mode: LogicMode = LogicMode.BASIC,
                     labels: Optional[dict] = None) -> CheckReport:
    """Validate every node of a derivation tree, post-order.

    ``labels`` optionally maps node objects (by identity) to display names
    used for the report paths; nodes without labels get tree paths.
    Verdicts are aggregated, never raised.
    """
    entries: list[NodeEntry] = []
    failed_paths: dict[int, str] = {}  # node -> first failed path in its subtree
    for node, p in postorder(tree, labels):
        failed = next((failed_paths[id(x)] for x in node.premises
                       if id(x) in failed_paths), None)
        verdict = check_node(node, mode)
        if verdict.ok and failed is not None and node.rule in ("parallel", "epr"):
            verdict = _fail("BranchFailure", f"branch at {failed} failed")
        entries.append(NodeEntry(p, node.rule, node.conclusion, verdict, node))
        if not verdict.ok:
            failed_paths[id(node)] = p
        elif failed is not None:
            failed_paths[id(node)] = failed
    return CheckReport(all(e.verdict.ok for e in entries),
                       mode, entries)
