"""State-vector semantics for assertions and rules.

Assertions (sequents with empty antecedent) denote labeled complex state
vectors.  The kernel's ``Verdict.action`` names what a checked rule
instance does to its premises' states: keep, join two branches, apply a
gate or project (qsplit, atimplrefl, and the cuts and EPR steps that
measure).  ``predict`` reads only that action and the states, and
``verify_soundness`` replays a checked derivation in this model and
reports, per node, the residual between the predicted conclusion state and
the denotation of the stated conclusion.

Conventions fixed here and relied on by the corpus and by the tests:
a negated atom is the bit |0> and the degree written on it multiplies |0>;
wire order follows left-to-right appearance in a consequent; states are
compared after normalization and up to a global phase; a zero-probability
branch is the zero state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .kernel import Derivation, LogicMode, NodeEntry, check_derivation
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
    normalize,  # unused here; bench/tracing.py:WRAPPED wraps qsc.semantics.normalize
    sequent_str,
)

DEFAULT_TOL = 1e-9
# The widest state built: 2**16 complex amplitudes take 1 MiB.
MAX_WIRES = 16


class WireMismatch(Exception):
    pass


class ZeroState(Exception):
    pass


class NonDenotableSequent(Exception):
    pass


class UnboundSymbolicDegree(Exception):
    pass


class NotNormalized(Exception):
    pass


def resolve_degree(d: Degree, bindings: Optional[Dict[str, complex]]) -> complex:
    if isinstance(d, SymDegree):
        if not bindings or d.name not in bindings:
            raise UnboundSymbolicDegree(f"no value bound for symbolic degree {d.name}")
        return complex(bindings[d.name])
    return complex(d)


def check_bindings(bindings: Optional[Dict[str, complex]]) -> None:
    """The reserved symbolic pair must satisfy |alpha|^2 + |beta|^2 = 1
    within ``DEFAULT_TOL``, whatever residual tolerance a caller uses."""
    if not bindings:
        return
    if "alpha" in bindings and "beta" in bindings:
        total = abs(complex(bindings["alpha"])) ** 2 + abs(complex(bindings["beta"])) ** 2
        if abs(total - 1.0) > DEFAULT_TOL:
            raise NotNormalized(
                f"|alpha|^2 + |beta|^2 = {total!r}, expected 1 within {DEFAULT_TOL}")


# ---------------------------------------------------------------------------
# States

@dataclass
class QState:
    """A labeled state vector.

    ``amps`` has length 2**len(wires); wire k is the k-th most significant
    bit of the basis index.
    """

    wires: Tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        n = len(self.wires)
        if self.amps.shape != (2 ** n,):
            raise WireMismatch(f"{len(self.amps)} amplitudes for {n} wires")
        if len(set(self.wires)) != n:
            raise WireMismatch(f"duplicate wire names in {self.wires}")

    def vector(self) -> np.ndarray:
        return self.amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "QState":
        n = self.norm()
        if n < 1e-15:
            raise ZeroState("cannot normalize the zero state")
        return QState(self.wires, self.amps / n)


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
    n = len(a.wires) + len(b.wires)
    if n > MAX_WIRES:
        raise WireMismatch(f"{n} wires exceed the cap of {MAX_WIRES}")
    return QState(a.wires + b.wires, np.outer(a.amps, b.amps).ravel())


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
    return QState(wires, amps)


def residual(predicted: QState, actual: QState) -> float:
    """Norm distance after normalization, wire alignment and phase alignment."""
    b = align(actual, predicted.wires)
    vp, vb = predicted.amps, b.amps
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
    va, vb = a.amps, b.amps
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
    return QState(state.wires, t.reshape(-1))


def combine_parallel(left: QState, right: QState) -> QState:
    """Denotation of a two-branch join: (1/sqrt2) (left + right)."""
    right = align(right, left.wires)
    return QState(left.wires, SQRT1_2 * (left.amps + right.amps))


# ---------------------------------------------------------------------------
# Denotations

def denote_formula(f: Formula, bindings: Optional[Dict[str, complex]] = None) -> QState:
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
        return tensor(denote_formula(f.left, bindings),
                      denote_formula(f.right, bindings))
    if isinstance(f, And):
        if f.degrees is None:
            dl, dr = complex(SQRT1_2), complex(SQRT1_2)
        else:
            dl = resolve_degree(f.degrees[0], bindings)
            dr = resolve_degree(f.degrees[1], bindings)
        left = denote_formula(f.left, bindings)
        right = denote_formula(f.right, bindings)
        if not left.wires and not left.amps.any():
            return QState(right.wires, dr * right.amps)
        if not right.wires and not right.amps.any():
            return QState(left.wires, dl * left.amps)
        right = align(right, left.wires)
        return QState(left.wires, dl * left.amps + dr * right.amps)
    if isinstance(f, Ent):
        return _denote_ent(f, bindings)
    raise NonDenotableSequent(f"no denotation for {formula_str(f)}")


def _denote_ent(f: Ent, bindings) -> QState:
    """The phi reading: d0 |00> + d1 |11> on the two parties' wires."""
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
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = d0
    amps[0b11] = d1
    return QState((left.name, right.name), amps)


def denote_assertion(s: Sequent, bindings: Optional[Dict[str, complex]] = None) -> QState:
    """The state asserted by a sequent with empty antecedent."""
    if s.antecedent:
        raise NonDenotableSequent(
            f"'{sequent_str(s)}' has assumptions; only assertions denote states")
    if not s.consequent:
        raise NonDenotableSequent(
            "the empty consequent is the falsehood reading, not a state")
    check_bindings(bindings)
    state = denote_formula(s.consequent[0], bindings)
    for f in s.consequent[1:]:
        state = tensor(state, denote_formula(f, bindings))
    if s.degree is not None:
        d = resolve_degree(s.degree, bindings)
        state = QState(state.wires, d * state.amps)
    return state


# ---------------------------------------------------------------------------
# Soundness verification

@dataclass
class SoundnessEntry:
    path: str
    rule: str
    kind: str                     # state | assumption | nonsemantic | error
    residual: Optional[float]
    note: str = ""


@dataclass
class SoundnessReport:
    ok: bool
    tol: float
    max_residual: float
    entries: list  # of SoundnessEntry, post-order
    check_ok: bool  # the replayed structural check passed on every node


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
        out = QState(wires, t[b])
    return out


_GATES = {"H": hadamard, "CNOT": cnot}


def predict(action: tuple, states: Sequence[Optional[QState]], keep: Sequence[str],
            tol: float = DEFAULT_TOL) -> Optional[QState]:
    """The conclusion state of a checked rule instance (``Verdict.action``).

    ``states`` are the premises' states, ``keep`` the conclusion's wires; a
    projection discards the other wires once they are in a basis state, and
    a branch of probability zero stays the zero state.  None when a premise
    the action reads carries no state.
    """
    kind = action[0]
    if any(s is None for s in states[:2 if kind == "join" else 1]):
        return None
    state = states[0]
    if kind == "keep":
        return state
    if kind == "join":
        return combine_parallel(state, states[1])
    if kind == "gate":
        _, name, wires = action
        return apply(_GATES[name](*wires), state)
    _, wires, bit = action  # a projection
    for wire in wires:
        state = apply(projector(wire, bit), state)
    norm = state.norm()
    if norm >= 1e-15:
        state = QState(state.wires, state.amps / norm)
    return _drop_wires(state, keep, tol)


def verify_soundness(tree: Derivation, mode: LogicMode = LogicMode.BASIC,
                     tol: float = DEFAULT_TOL,
                     bindings: Optional[Dict[str, complex]] = None,
                     labels: Optional[dict] = None) -> SoundnessReport:
    """Replay a derivation's check against the state model.

    The derivation is checked in ``mode`` first; each node that passes and
    whose conclusion denotes a state gets the state its rule instance
    predicts from its premises' stated states, and its entry records the
    residual against the stated conclusion's denotation.  A node that fails
    the check is an error and is not replayed, as is a node the bindings
    cannot denote (unbound or not normalized): inputs never raise.  Nodes
    on the measurement side of the turnstile carry no state and are skipped.
    """
    denotations: dict[int, Optional[QState]] = {}

    def entry(e: NodeEntry) -> SoundnessEntry:
        node, p, rule = e.node, e.path, e.rule
        if not e.verdict.ok:
            return SoundnessEntry(p, rule, "error", None, f"check failed: {e.verdict.code}")
        try:
            actual = denote_assertion(node.conclusion, bindings)
            denotations[id(node)] = actual
            states = [denotations.get(id(x)) for x in node.premises]
            if not e.verdict.action:
                if any(s is not None for s in states):
                    return SoundnessEntry(p, rule, "error", None,
                                          f"rule {rule} has no state reading for its premises")
                if node.premises:
                    return SoundnessEntry(p, rule, "nonsemantic", None,
                                          f"rule {rule} has no state semantics")
                return SoundnessEntry(p, rule, "assumption", 0.0)
            predicted = predict(e.verdict.action, states, actual.wires, tol)
            if predicted is None:
                return SoundnessEntry(p, rule, "nonsemantic", None,
                                      "premise carries no state")
            return SoundnessEntry(p, rule, "state", residual(predicted, actual))
        except NonDenotableSequent:
            return SoundnessEntry(p, rule, "nonsemantic", None, "conclusion carries no state")
        except (WireMismatch, UnboundSymbolicDegree, NotNormalized) as exc:
            return SoundnessEntry(p, rule, "error", None, f"{type(exc).__name__}: {exc}")

    check = check_derivation(tree, mode, labels)
    entries = [entry(e) for e in check.entries]
    residuals = [e.residual for e in entries if e.kind == "state"]
    max_residual = max(residuals) if residuals else 0.0
    ok = (max_residual <= tol
          and not any(e.kind == "error" for e in entries))
    return SoundnessReport(ok, tol, max_residual, entries, check.ok)


# ---------------------------------------------------------------------------
# Independent teleportation oracle: pure linear algebra over explicit
# 8-dimensional vectors, sharing only ``check_bindings`` with the kernel and
# the denotation layer above.

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


def teleport_oracle(alpha: complex, beta: complex) -> Tuple[TeleportOutcome, ...]:
    """Brute-force the teleportation protocol for the input a|0> + b|1>.

    Builds the Bell pair on (A, B) next to the unknown state on C, projects
    (A, C) onto each of the four Bell states, renormalizes, applies the
    standard Pauli correction on B, and reports probability and fidelity
    per outcome.  A correct protocol gives probability 1/4 and fidelity 1
    on every branch.  Raises ``NotNormalized`` as ``check_bindings`` does.
    """
    check_bindings({"alpha": alpha, "beta": beta})
    alpha, beta = complex(alpha), complex(beta)
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
