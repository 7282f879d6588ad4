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
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import kernel  # bench/tracing.py wraps qsc.kernel.check_derivation, which verify calls
from .kernel import Derivation, LogicMode, NodeEntry, last_parents
from .syntax import (
    EVEN_DEGREES,
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
# A norm, overlap or probability below this is zero.
ZERO_NORM = 1e-15
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
        try:
            total = abs(complex(bindings["alpha"])) ** 2 + abs(complex(bindings["beta"])) ** 2
        except OverflowError:
            total = math.inf
        if not abs(total - 1.0) <= DEFAULT_TOL:
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
        return _norm(self.amps)


def _norm(amps: np.ndarray) -> float:
    """The 2-norm by the formula ``np.linalg.norm`` uses, sqrt(re.re + im.im)."""
    re, im = amps.real, amps.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _unit(amps: np.ndarray) -> Optional[np.ndarray]:
    """``amps`` scaled to norm 1, None for the zero state."""
    n = _norm(amps)
    # numpy divides a complex by a real through its reciprocal, so this
    # equals ``amps / n`` (a zero may change sign) without the division loop
    return None if n < ZERO_NORM else amps * (1.0 / n)


def basis_state(wires: Sequence[str], bits: Sequence[int]) -> QState:
    amps = np.zeros(2 ** len(wires), dtype=complex)
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    amps[index] = 1.0
    return QState(tuple(wires), amps)


def _product(factors: Iterable[QState]) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Wires and amplitudes of the tensor product, folded left to right.

    Each factor is tested for wires it shares with the ones before it, then
    against the cap, before its product is built, so no array wider than
    ``2**MAX_WIRES`` is made.
    """
    factors = iter(factors)
    first = next(factors)
    wires, amps = first.wires, first.amps
    for f in factors:
        shared = set(wires) & set(f.wires)
        if shared:
            raise WireMismatch(f"overlapping wires {shared}")
        wires += f.wires
        if len(wires) > MAX_WIRES:
            raise WireMismatch(f"{len(wires)} wires exceed the cap of {MAX_WIRES}")
        amps = np.multiply.outer(amps, f.amps).ravel()
    return wires, amps


def tensor(a: QState, b: QState) -> QState:
    return QState(*_product((a, b)))


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
    vp, vb = _unit(predicted.amps), _unit(align(actual, predicted.wires).amps)
    if vp is None or vb is None:
        return 0.0 if vp is None and vb is None else 1.0
    overlap = np.vdot(vb, vp)
    if abs(overlap) > ZERO_NORM:
        vb = vb * (overlap / abs(overlap))
    return _norm(vp - vb)


def fidelity(a: QState, b: QState) -> float:
    """|<a|b>|^2 after normalization and wire alignment, clipped to [0, 1]."""
    b = align(b, a.wires)
    va, vb = a.amps, b.amps
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na < ZERO_NORM or nb < ZERO_NORM:
        raise ZeroState("fidelity of a zero state is undefined")
    return min(1.0, max(0.0, float(abs(np.vdot(va, vb)) ** 2 / (na * nb) ** 2)))


def entanglement_entropy(state: QState, wire: str) -> float:
    """Von Neumann entropy (bits) of the reduced state of one wire."""
    if wire not in state.wires:
        raise WireMismatch(f"no wire {wire!r} in {state.wires}")
    v = _unit(state.amps)
    if v is None:
        raise ZeroState("entropy of a zero state is undefined")
    n = len(state.wires)
    k = state.wires.index(wire)
    t = np.moveaxis(v.reshape([2] * n), k, 0).reshape(2, -1)
    rho = t @ t.conj().T
    eigs = np.linalg.eigvalsh(rho)
    eigs = np.clip(eigs.real, 0.0, 1.0)
    return max(0.0, float(-sum(p * math.log2(p) for p in eigs if p > ZERO_NORM)))


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


def apply(matrix: np.ndarray, wires: Sequence[str], state: QState) -> QState:
    """The matrix's action on the named wires, in order, identity elsewhere.

    No implicit renormalization: projectors shrink the state.
    """
    k = len(wires)
    if matrix.shape != (2 ** k, 2 ** k):
        raise WireMismatch(f"{matrix.shape} matrix on {k} wire(s)")
    missing = set(wires) - set(state.wires)
    if missing:
        raise WireMismatch(f"state has no wire(s) {sorted(missing)}")
    n = len(state.wires)
    axes = [state.wires.index(w) for w in wires]
    # the named wires to the front, the matrix on them, and back again
    order = axes + [i for i in range(n) if i not in axes]
    t = matrix @ state.amps.reshape([2] * n).transpose(order).reshape(2 ** k, -1)
    t = t.reshape([2] * n).transpose(sorted(range(n), key=order.__getitem__))
    return QState(state.wires, t.reshape(-1))


def combine_parallel(left: QState, right: QState) -> QState:
    """Denotation of a two-branch join: (1/sqrt2) (left + right)."""
    right = align(right, left.wires)
    return QState(left.wires, SQRT1_2 * (left.amps + right.amps))


# ---------------------------------------------------------------------------
# Denotations

def _pair(degrees, bindings) -> Tuple[complex, complex]:
    """The amplitudes of a degree pair; an undegreed pair is the even one."""
    if degrees is None:
        return EVEN_DEGREES
    return resolve_degree(degrees[0], bindings), resolve_degree(degrees[1], bindings)


def denote_formula(f: Formula, bindings: Optional[Dict[str, complex]] = None) -> QState:
    if isinstance(f, Atom):
        return basis_state((f.name,), (0 if f.negated else 1,))
    if isinstance(f, Null):
        return QState((), np.zeros(1, dtype=complex))
    if isinstance(f, Qubit):
        return QState((f.name,), np.array(_pair(f.degrees, bindings), dtype=complex))
    if isinstance(f, Par):
        return tensor(denote_formula(f.left, bindings),
                      denote_formula(f.right, bindings))
    if isinstance(f, And):
        dl, dr = _pair(f.degrees, bindings)
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
    # both parties are qubits here
    d0, d1 = _pair(left.degrees if left.degrees is not None else right.degrees, bindings)
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
    wires, amps = _product(denote_formula(f, bindings) for f in s.consequent)
    if s.degree is not None:
        amps = resolve_degree(s.degree, bindings) * amps
    return QState(wires, amps)


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


_GATES = {"H": H_MATRIX, "CNOT": CNOT_MATRIX}


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
        return apply(_GATES[name], wires, state)
    _, wires, bit = action  # a projection
    for wire in wires:
        state = apply((M0_MATRIX, M1_MATRIX)[bit], (wire,), state)
    unit = _unit(state.amps)
    if unit is not None:
        state = QState(state.wires, unit)
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

    check = kernel.check_derivation(tree, mode, labels)
    last = last_parents(e.node for e in check.entries)
    entries = []
    # degrees that overflow the replay show as a NaN residual, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for e in check.entries:
            entries.append(entry(e))
            # a state is kept until its last parent's entry, no longer
            for x in e.node.premises:
                if last[id(x)] is e.node:
                    denotations.pop(id(x), None)
    residuals = [e.residual for e in entries if e.kind == "state"]
    max_residual = float(np.max(residuals)) if residuals else 0.0  # NaN propagates
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
