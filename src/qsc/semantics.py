"""State-vector semantics for assertions and rules.

Assertions (sequents with empty antecedent) denote labeled complex state
vectors; measurement-shaped sequents denote projectors; the inference rules
denote gates, projectors or branch superpositions.  ``verify_soundness``
replays a checked derivation in this model and reports, per node, the
residual between the rule's predicted conclusion state and the denotation
of the stated conclusion.

Conventions fixed here and relied on by the corpus and by the tests:
a negated atom is the bit |0> and the degree written on it multiplies |0>;
wire order follows left-to-right appearance in a consequent; states are
compared after normalization and up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .kernel import Derivation, LogicMode, postorder
from .syntax import (
    SQRT1_2,
    And,
    Atom,
    Degree,
    Ent,
    Formula,
    Null,
    Par,
    Qubit,
    Sequent,
    SymDegree,
    formula_str,
    formula_wires,
    normalize,
    sequent_str,
)

DEFAULT_TOL = 1e-9


class WireMismatch(Exception):
    pass


class ZeroState(Exception):
    pass


class NonDenotableSequent(Exception):
    pass


class UnboundSymbolicDegree(Exception):
    pass


class NotAMeasurementShape(Exception):
    pass


class NotNormalized(Exception):
    pass


def resolve_degree(d: Degree, bindings: Optional[Dict[str, complex]]) -> complex:
    if isinstance(d, SymDegree):
        if not bindings or d.name not in bindings:
            raise UnboundSymbolicDegree(f"no value bound for symbolic degree {d.name}")
        return complex(bindings[d.name])
    return complex(d)


def check_bindings(bindings: Optional[Dict[str, complex]],
                   tol: float = DEFAULT_TOL) -> None:
    """The reserved symbolic pair must satisfy |alpha|^2 + |beta|^2 = 1."""
    if not bindings:
        return
    if "alpha" in bindings and "beta" in bindings:
        total = abs(complex(bindings["alpha"])) ** 2 + abs(complex(bindings["beta"])) ** 2
        if abs(total - 1.0) > tol:
            raise NotNormalized(
                f"|alpha|^2 + |beta|^2 = {total!r}, expected 1 within {tol}")


# ---------------------------------------------------------------------------
# States

@dataclass
class QState:
    """A labeled state vector with an explicit global scale factor.

    ``amps`` has length 2**len(wires); wire k is the k-th most significant
    bit of the basis index.  The scale keeps unnormalized intermediates
    (branch states, projections) representable without losing track.
    """

    wires: Tuple[str, ...]
    amps: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        n = len(self.wires)
        if self.amps.shape != (2 ** n,):
            raise WireMismatch(f"{len(self.amps)} amplitudes for {n} wires")
        if len(set(self.wires)) != n:
            raise WireMismatch(f"duplicate wire names in {self.wires}")

    def vector(self) -> np.ndarray:
        return self.amps * self.scale

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector()))

    def normalized(self) -> "QState":
        n = self.norm()
        if n < 1e-15:
            raise ZeroState("cannot normalize the zero state")
        return QState(self.wires, self.vector() / n, 1.0)


def basis_state(wires: Sequence[str], bits: Sequence[int]) -> QState:
    amps = np.zeros(2 ** len(wires), dtype=complex)
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    amps[index] = 1.0
    return QState(tuple(wires), amps)


def tensor(a: QState, b: QState) -> QState:
    if set(a.wires) & set(b.wires):
        raise WireMismatch(f"overlapping wires {set(a.wires) & set(b.wires)}")
    return QState(a.wires + b.wires, np.kron(a.amps, b.amps), a.scale * b.scale)


def align(state: QState, wires: Sequence[str]) -> QState:
    """Reorder the wire axes to the given order (same wire set required)."""
    wires = tuple(wires)
    if set(wires) != set(state.wires):
        raise WireMismatch(f"cannot align {state.wires} to {wires}")
    if wires == state.wires:
        return state
    n = len(wires)
    perm = [state.wires.index(w) for w in wires]
    amps = state.amps.reshape([2] * n).transpose(perm).reshape(-1)
    return QState(wires, amps, state.scale)


def residual(predicted: QState, actual: QState) -> float:
    """Norm distance after normalization, wire alignment and phase alignment."""
    b = align(actual, predicted.wires)
    vp, vb = predicted.vector(), b.vector()
    np_, nb = np.linalg.norm(vp), np.linalg.norm(vb)
    if np_ < 1e-15 or nb < 1e-15:
        return 0.0 if (np_ < 1e-15 and nb < 1e-15) else 1.0
    vp, vb = vp / np_, vb / nb
    overlap = np.vdot(vb, vp)
    if abs(overlap) > 1e-15:
        vb = vb * (overlap / abs(overlap))
    return float(np.linalg.norm(vp - vb))


def fidelity(a: QState, b: QState) -> float:
    """|<a|b>|^2 after normalization and wire alignment, clipped to [0, 1]."""
    b = align(b, a.wires)
    va, vb = a.vector(), b.vector()
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na < 1e-15 or nb < 1e-15:
        raise ZeroState("fidelity of a zero state is undefined")
    return min(1.0, max(0.0, float(abs(np.vdot(va, vb)) ** 2 / (na * nb) ** 2)))


def entanglement_entropy(state: QState, wire: str) -> float:
    """Von Neumann entropy (bits) of the reduced state of one wire."""
    if wire not in state.wires:
        raise WireMismatch(f"no wire {wire!r} in {state.wires}")
    v = state.normalized().amps
    n = len(state.wires)
    k = state.wires.index(wire)
    t = np.moveaxis(v.reshape([2] * n), k, 0).reshape(2, -1)
    rho = t @ t.conj().T
    eigs = np.linalg.eigvalsh(rho)
    eigs = np.clip(eigs.real, 0.0, 1.0)
    return max(0.0, float(-sum(p * math.log2(p) for p in eigs if p > 1e-15)))


# ---------------------------------------------------------------------------
# Operators

H_MATRIX = SQRT1_2 * np.array([[1, 1], [1, -1]], dtype=complex)
M0_MATRIX = np.array([[1, 0], [0, 0]], dtype=complex)
M1_MATRIX = np.array([[0, 0], [0, 1]], dtype=complex)
MC_MATRIX = M0_MATRIX + M1_MATRIX          # Cat-mirror: the identity on C^2
I2_MATRIX = np.eye(2, dtype=complex)
MB_MATRIX = np.kron(M0_MATRIX + M1_MATRIX, I2_MATRIX)  # Bell mirror = I_4
I4_MATRIX = np.eye(4, dtype=complex)
# basis (control, target), control the most significant bit
CNOT_MATRIX = np.array([[1, 0, 0, 0],
                        [0, 1, 0, 0],
                        [0, 0, 0, 1],
                        [0, 0, 1, 0]], dtype=complex)


@dataclass(frozen=True)
class Operator:
    """A named matrix acting on one or two labeled wires."""

    name: str
    wires: Tuple[str, ...]
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        k = len(self.wires)
        if self.matrix.shape != (2 ** k, 2 ** k):
            raise WireMismatch(f"{self.matrix.shape} matrix on {k} wire(s)")


def hadamard(wire: str) -> Operator:
    return Operator("H", (wire,), H_MATRIX)


def cnot(control: str, target: str) -> Operator:
    return Operator("CNOT", (control, target), CNOT_MATRIX)


def projector(wire: str, outcome: int) -> Operator:
    return Operator(f"M{outcome}", (wire,), M1_MATRIX if outcome else M0_MATRIX)


def joint_projector(wire_a: str, wire_b: str, outcome: int) -> Operator:
    m = M1_MATRIX if outcome else M0_MATRIX
    return Operator(f"M{outcome}{outcome}", (wire_a, wire_b), np.kron(m, m))


def cat_mirror(wire: str) -> Operator:
    return Operator("MC", (wire,), MC_MATRIX)


def bell_mirror(wire_a: str, wire_b: str) -> Operator:
    return Operator("MB", (wire_a, wire_b), MB_MATRIX)


def apply(op: Operator, state: QState) -> QState:
    """Matrix action on the operator's wires, identity elsewhere.

    No implicit renormalization: projectors shrink the state.
    """
    missing = set(op.wires) - set(state.wires)
    if missing:
        raise WireMismatch(f"state has no wire(s) {sorted(missing)}")
    n = len(state.wires)
    k = len(op.wires)
    axes = [state.wires.index(w) for w in op.wires]
    t = state.amps.reshape([2] * n)
    m = op.matrix.reshape([2] * (2 * k))
    t = np.tensordot(m, t, axes=(list(range(k, 2 * k)), axes))
    # tensordot moved the operator wires to the front; put them back
    t = np.moveaxis(t, list(range(k)), axes)
    return QState(state.wires, t.reshape(-1), state.scale)


def combine_parallel(left: QState, right: QState) -> QState:
    """Denotation of a two-branch join: (1/sqrt2) (left + right)."""
    right = align(right, left.wires)
    amps = SQRT1_2 * (left.vector() + right.vector())
    return QState(left.wires, amps, 1.0)


# ---------------------------------------------------------------------------
# Denotations

def denote_formula(f: Formula, bindings: Optional[Dict[str, complex]] = None,
                   at_convention: str = "phi") -> QState:
    if isinstance(f, Atom):
        return basis_state((f.name,), (0 if f.negated else 1,))
    if isinstance(f, Null):
        return QState((), np.zeros(1, dtype=complex))
    if isinstance(f, Qubit):
        if f.degrees is None:
            d0, d1 = complex(SQRT1_2), complex(SQRT1_2)
        else:
            d0 = resolve_degree(f.degrees[0], bindings)
            d1 = resolve_degree(f.degrees[1], bindings)
        return QState((f.name,), np.array([d0, d1], dtype=complex))
    if isinstance(f, Par):
        return tensor(denote_formula(f.left, bindings, at_convention),
                      denote_formula(f.right, bindings, at_convention))
    if isinstance(f, And):
        if f.degrees is None:
            dl, dr = complex(SQRT1_2), complex(SQRT1_2)
        else:
            dl = resolve_degree(f.degrees[0], bindings)
            dr = resolve_degree(f.degrees[1], bindings)
        left = denote_formula(f.left, bindings, at_convention)
        right = denote_formula(f.right, bindings, at_convention)
        if not left.wires and not left.vector().any():
            return QState(right.wires, dr * right.vector())
        if not right.wires and not right.vector().any():
            return QState(left.wires, dl * left.vector())
        right = align(right, left.wires)
        return QState(left.wires, dl * left.vector() + dr * right.vector())
    if isinstance(f, Ent):
        return _denote_ent(f, bindings, at_convention)
    raise NonDenotableSequent(f"no denotation for {formula_str(f)}")


def _denote_ent(f: Ent, bindings, at_convention: str) -> QState:
    left, right = f.left, f.right
    if isinstance(left, Atom) or isinstance(right, Atom):
        lit, qubit = (left, right) if isinstance(left, Atom) else (right, left)
        if isinstance(qubit, Atom):
            raise NonDenotableSequent(
                "@ with both parties collapsed has no entangled reading")
        # the collapsed branch: partner polarity matches the outcome
        bits = (0 if lit.negated else 1, 0 if lit.negated else 1)
        wires = (left.name, right.name)
        return basis_state(wires, bits)
    dl = left.degrees if isinstance(left, Qubit) else None
    dr = right.degrees if isinstance(right, Qubit) else None
    degrees = dl if dl is not None else dr
    if degrees is None:
        d0, d1 = complex(SQRT1_2), complex(SQRT1_2)
    else:
        d0 = resolve_degree(degrees[0], bindings)
        d1 = resolve_degree(degrees[1], bindings)
    anchored_right = dl is None and dr is not None
    wires = (left.name, right.name)
    amps = np.zeros(4, dtype=complex)
    if at_convention == "phi":
        amps[0b00] = d0
        amps[0b11] = d1
    elif at_convention == "psi":
        # d0 multiplies the branch where the degreed party's wire reads 0
        if anchored_right:
            amps[0b10] = d0
            amps[0b01] = d1
        else:
            amps[0b01] = d0
            amps[0b10] = d1
    else:
        raise ValueError(f"unknown @ convention {at_convention!r}")
    return QState(wires, amps)


def denote_assertion(s: Sequent, bindings: Optional[Dict[str, complex]] = None,
                     at_convention: str = "phi") -> QState:
    """The state asserted by a sequent with empty antecedent."""
    if s.antecedent:
        raise NonDenotableSequent(
            f"'{sequent_str(s)}' has assumptions; only assertions denote states")
    if not s.consequent:
        raise NonDenotableSequent(
            "the empty consequent is the falsehood reading, not a state")
    check_bindings(bindings)
    state = denote_formula(s.consequent[0], bindings, at_convention)
    for f in s.consequent[1:]:
        state = tensor(state, denote_formula(f, bindings, at_convention))
    if s.degree is not None:
        d = resolve_degree(s.degree, bindings)
        state = QState(state.wires, d * state.amps, state.scale)
    return state


def denote_measurement(s: Sequent) -> Operator:
    """The projector denoted by a measurement-shaped sequent.

    ``Q_X |- X^`` is the outcome-0 projector on wire X, ``Q_X |- X`` the
    outcome-1 projector; the two-qubit shape ``Q_X, Q_Z |-{d} w`` (the
    teleportation premise) is the joint projection onto the branch of both
    wires compatible with the outcome literal.
    """
    if len(s.consequent) != 1 or not s.antecedent:
        raise NotAMeasurementShape(f"'{sequent_str(s)}' is not a measurement")
    outcome = s.consequent[0]
    if not isinstance(outcome, Atom):
        raise NotAMeasurementShape("a measurement asserts a single bit outcome")
    measured = [normalize(f) for f in s.antecedent]
    if not all(isinstance(m, Qubit) and m.degrees is None for m in measured):
        raise NotAMeasurementShape("measured formulas must be undegreed qubits")
    bit = 0 if outcome.negated else 1
    if len(measured) == 1:
        if measured[0].name != outcome.name:
            raise NotAMeasurementShape("outcome literal must name the measured wire")
        return projector(outcome.name, bit)
    if len(measured) == 2:
        names = [m.name for m in measured]
        if outcome.name not in names:
            raise NotAMeasurementShape("outcome literal must name a measured wire")
        return joint_projector(names[0], names[1], bit)
    raise NotAMeasurementShape("at most two qubits are measured together")


# ---------------------------------------------------------------------------
# Soundness verification

@dataclass
class SoundnessEntry:
    path: str
    rule: str
    kind: str                     # state | assumption | measurement | nonsemantic | error
    residual: Optional[float]
    note: str = ""


@dataclass
class SoundnessReport:
    ok: bool
    tol: float
    max_residual: float
    entries: list  # of SoundnessEntry, post-order


def _drop_wires(state: QState, keep: Sequence[str], tol: float) -> QState:
    """Discard wires that are in a basis product state (post-measurement)."""
    out = state
    for wire in [w for w in state.wires if w not in keep]:
        n = len(out.wires)
        k = out.wires.index(wire)
        t = np.moveaxis(out.amps.reshape([2] * n), k, 0).reshape(2, -1)
        norms = np.linalg.norm(t, axis=1)
        if norms.min() > tol * max(1.0, norms.max()):
            raise WireMismatch(f"wire {wire} is still entangled; cannot discard")
        b = int(np.argmax(norms))
        wires = out.wires[:k] + out.wires[k + 1:]
        out = QState(wires, t[b], out.scale)
    return out


def _conclusion_wires(s: Sequent) -> Tuple[str, ...]:
    seen: list[str] = []
    for f in s.consequent:
        for w in formula_wires(f):
            if w not in seen:
                seen.append(w)
    return tuple(seen)


def verify_soundness(tree: Derivation, mode: LogicMode = LogicMode.BASIC,
                     tol: float = DEFAULT_TOL,
                     bindings: Optional[Dict[str, complex]] = None,
                     labels: Optional[dict] = None) -> SoundnessReport:
    """Replay a (structurally checked) derivation against the state model.

    Every node whose conclusion denotes a state gets a predicted state
    computed from its premises via the rule's operator; the entry records
    the residual against the stated conclusion's denotation.  Nodes on the
    measurement side of the turnstile carry no state and are skipped.
    """
    check_bindings(bindings, tol)
    denotations: dict[int, Optional[QState]] = {}

    def actual_of(node: Derivation) -> Optional[QState]:
        try:
            return denote_assertion(node.conclusion, bindings)
        except NonDenotableSequent:
            return None

    def predict(node: Derivation) -> Tuple[Optional[QState], str]:
        rule = node.rule
        ps = node.premises
        if rule in ("premise", "axiom", "ataxiom"):
            return actual_of(node), "assumption"
        if rule in ("semidistrib", "parform", "atimplrefl"):
            src = denotations.get(id(ps[0]))
            if src is None:
                return None, "premise carries no state"
            if rule == "atimplrefl":
                branch = str(node.params[0]) if node.params else "pos"
                wires = _conclusion_wires(node.conclusion)
                op = joint_projector(wires[0], wires[1], 0 if branch == "neg" else 1)
                return apply(op, src).normalized(), ""
            return src, ""
        if rule in ("andform", "atform", "parallel"):
            a, b = denotations.get(id(ps[0])), denotations.get(id(ps[1]))
            if a is None or b is None:
                return None, "a branch carries no state"
            return combine_parallel(a, b), ""
        if rule in ("hrule", "hinverse"):
            src = denotations.get(id(ps[0]))
            if src is None:
                return None, "premise carries no state"
            return apply(hadamard(src.wires[0]), src), ""
        if rule == "cnot":
            src = denotations.get(id(ps[0]))
            if src is None:
                return None, "premise carries no state"
            control, target = (f.name for f in ps[0].conclusion.consequent)
            return apply(cnot(control, target), src), ""
        if rule in ("cut", "epr"):
            src = denotations.get(id(ps[0]))
            if src is None:
                return None, "left premise carries no state"
            op = denote_measurement(ps[1].conclusion)
            projected = apply(op, src).normalized()
            keep = _conclusion_wires(node.conclusion)
            return _drop_wires(projected, keep, tol), ""
        if rule == "qsplit":
            src = denotations.get(id(ps[0]))
            if src is None:
                return None, "source carries no state"
            branch = str(node.params[0]) if node.params else "pos"
            qubits = [normalize(f) for f in ps[0].conclusion.consequent]
            wires = [q.name for q in qubits if isinstance(q, Qubit) and q.degrees is None]
            if len(node.params) > 1:  # the wire is named, as the kernel reads it
                wires = [w for w in wires if w == str(node.params[1])]
            op = projector(wires[0], 0 if branch == "neg" else 1)
            return apply(op, src).normalized(), ""
        return None, f"rule {rule} has no state semantics"

    def entry(node: Derivation, p: str) -> SoundnessEntry:
        actual = None
        try:
            actual = actual_of(node)
            denotations[id(node)] = actual
            if actual is None:
                return SoundnessEntry(p, node.rule, "nonsemantic", None,
                                      "conclusion carries no state")
            if node.rule in ("premise", "axiom", "ataxiom"):
                return SoundnessEntry(p, node.rule, "assumption", 0.0)
            predicted, note = predict(node)
            if predicted is None:
                return SoundnessEntry(p, node.rule, "nonsemantic", None, note)
            return SoundnessEntry(p, node.rule, "state", residual(predicted, actual))
        except (WireMismatch, ZeroState, UnboundSymbolicDegree,
                NotAMeasurementShape, NotNormalized) as exc:
            denotations[id(node)] = actual
            return SoundnessEntry(p, node.rule, "error", None,
                                  f"{type(exc).__name__}: {exc}")

    entries = [entry(node, p) for node, p in postorder(tree, labels)]
    residuals = [e.residual for e in entries if e.kind == "state"]
    max_residual = max(residuals) if residuals else 0.0
    ok = (max_residual <= tol
          and not any(e.kind == "error" for e in entries))
    return SoundnessReport(ok, tol, max_residual, entries)


# ---------------------------------------------------------------------------
# Independent teleportation oracle: pure linear algebra over explicit
# 8-dimensional vectors, sharing nothing with the kernel or the denotation
# layer above.

_PAULI_I = np.eye(2, dtype=complex)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_BELL_BASIS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) * SQRT1_2,
    "phi-": np.array([1, 0, 0, -1], dtype=complex) * SQRT1_2,
    "psi+": np.array([0, 1, 1, 0], dtype=complex) * SQRT1_2,
    "psi-": np.array([0, 1, -1, 0], dtype=complex) * SQRT1_2,
}

_CORRECTIONS = {
    "phi+": ("I", _PAULI_I),
    "phi-": ("Z", _PAULI_Z),
    "psi+": ("X", _PAULI_X),
    "psi-": ("ZX", _PAULI_Z @ _PAULI_X),
}


@dataclass(frozen=True)
class TeleportOutcome:
    bell_outcome: str          # which Bell state Alice observed on (A, C)
    probability: float
    correction: str            # Pauli frame Bob applies
    bob_state: np.ndarray = field(compare=False)
    fidelity: float            # |<input|bob after correction>|^2


def teleport_oracle(alpha: complex, beta: complex,
                    tol: float = DEFAULT_TOL) -> Tuple[TeleportOutcome, ...]:
    """Brute-force the teleportation protocol for the input a|0> + b|1>.

    Builds the Bell pair on (A, B) next to the unknown state on C, projects
    (A, C) onto each of the four Bell states, renormalizes, applies the
    standard Pauli correction on B, and reports probability and fidelity
    per outcome.  A correct protocol gives probability 1/4 and fidelity 1
    on every branch.
    """
    alpha, beta = complex(alpha), complex(beta)
    total = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(total - 1.0) > tol:
        raise NotNormalized(f"|alpha|^2 + |beta|^2 = {total!r}, expected 1")
    psi_c = np.array([alpha, beta], dtype=complex)
    bell_ab = np.array([1, 0, 0, 1], dtype=complex) * SQRT1_2
    full = np.kron(bell_ab, psi_c).reshape(2, 2, 2)  # indices (A, B, C)
    outcomes = []
    for name, bell in _BELL_BASIS.items():
        bell_ac = bell.reshape(2, 2)
        # <bell|_(A,C) acting on the full state leaves Bob's amplitude
        bob_unnorm = np.einsum("ac,abc->b", bell_ac.conj(), full)
        probability = float(np.linalg.norm(bob_unnorm) ** 2)
        label, correction = _CORRECTIONS[name]
        bob = correction @ (bob_unnorm / np.linalg.norm(bob_unnorm))
        fid = float(abs(np.vdot(psi_c, bob)) ** 2)
        outcomes.append(TeleportOutcome(name, probability, label, bob, fid))
    return tuple(outcomes)
