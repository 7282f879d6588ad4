"""Expected states, computed with plain numpy and nothing from qsc.

Each function replays the physics a workload's derivations describe:
projective measurements, Hadamard and controlled-not gates, and the join of
two branches performed in parallel (their normalized sum).  A state is a
tuple of wire names and a vector in which the first wire is the most
significant bit; a negated atom is |0>, a plain atom |1>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

S = 2 ** -0.5
H = S * np.array([[1, 1], [1, -1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@dataclass(frozen=True)
class State:
    wires: Tuple[str, ...]
    amps: np.ndarray


def qubit(wire: str, amp0: complex, amp1: complex) -> State:
    return State((wire,), np.array([amp0, amp1], dtype=complex))


def bit(wire: str, b: int) -> State:
    return qubit(wire, 1 - b, b)


def plus(wire: str) -> State:
    return qubit(wire, S, S)


def product(*states: State) -> State:
    amps = np.ones(1, dtype=complex)
    for s in states:
        amps = np.kron(amps, s.amps)
    return State(sum((s.wires for s in states), ()), amps)


def _tensor(s: State) -> np.ndarray:
    return s.amps.reshape([2] * len(s.wires))


def normalized(s: State) -> State:
    norm = np.linalg.norm(s.amps)
    if norm < 1e-12:
        raise ValueError("zero state")
    return State(s.wires, s.amps / norm)


def project(s: State, wire: str, b: int, normalize: bool = True) -> State:
    t = _tensor(s).copy()
    index = [slice(None)] * len(s.wires)
    index[s.wires.index(wire)] = 1 - b
    t[tuple(index)] = 0
    out = State(s.wires, t.reshape(-1))
    return normalized(out) if normalize else out


def gate(s: State, wires: Sequence[str], matrix: np.ndarray) -> State:
    """Apply a matrix on the given wires (first listed = most significant)."""
    axes = [s.wires.index(w) for w in wires]
    k = len(axes)
    t = np.moveaxis(_tensor(s), axes, list(range(k)))
    shape = t.shape
    t = (matrix @ t.reshape(2 ** k, -1)).reshape(shape)
    return State(s.wires, np.moveaxis(t, list(range(k)), axes).reshape(-1))


def reorder(s: State, wires: Sequence[str]) -> State:
    wires = tuple(wires)
    if sorted(wires) != sorted(s.wires):
        raise ValueError(f"wires {s.wires} cannot be ordered as {wires}")
    perm = [s.wires.index(w) for w in wires]
    return State(wires, _tensor(s).transpose(perm).reshape(-1))


def join(a: State, b: State) -> State:
    """Two branches performed in parallel: their normalized sum."""
    return normalized(State(a.wires, a.amps + reorder(b, a.wires).amps))


def drop(s: State, wire: str) -> State:
    """Remove a wire left in a basis state by a measurement."""
    k = s.wires.index(wire)
    t = np.moveaxis(_tensor(s), k, 0)
    norms = np.linalg.norm(t.reshape(2, -1), axis=1)
    if norms.min() > 1e-12:
        raise ValueError(f"wire {wire} is not in a basis state")
    return State(s.wires[:k] + s.wires[k + 1:], t[int(np.argmax(norms))].reshape(-1))


def fidelity(a: State, b: State) -> float:
    """|<a|b>|^2 of the normalized states, b taken in a's wire order."""
    if sorted(a.wires) != sorted(b.wires):
        return 0.0
    va, vb = normalized(a).amps, normalized(reorder(b, a.wires)).amps
    return float(abs(np.vdot(va, vb)) ** 2)


# ---------------------------------------------------------------------------
# corpus

def teleport(alpha: complex, beta: complex) -> State:
    """TEL as the corpus derives it: an unknown qubit alpha|0> + beta|1> on C
    beside the Bell pair on (A, B); the joint measurements of (A, C) with
    outcomes 11 and 00 are performed in parallel and A is discarded.  What
    remains on (C, B) is alpha|00> + beta|11>: C's amplitudes carried by
    the entangled pair."""
    bell = State(("A", "B"), np.array([S, 0, 0, S], dtype=complex))
    start = product(bell, qubit("C", alpha, beta))
    branches = []
    for b in (1, 0):
        s = project(project(start, "A", b, False), "C", b, False)
        branches.append(reorder(drop(s, "A"), ("C", "B")))
    return join(*branches)


def corpus_target(name: str, alpha: complex, beta: complex) -> Optional[State]:
    """The state the final goal of a bundled derivation denotes, if any."""
    cat = plus("A")
    bell_ab = State(("A", "B"), np.array([S, 0, 0, S], dtype=complex))

    def cnot_branches(start: State) -> State:
        # split the control B over both outcomes, CNOT each, join
        return join(*(gate(project(start, "B", b), ("B", "A"), CNOT) for b in (1, 0)))

    if name == "cut-destroys-cat-1":
        return project(cat, "A", 1)
    if name == "cut-destroys-cat-0":
        return project(cat, "A", 0)
    if name == "cut-parallel":
        return join(project(cat, "A", 1), project(cat, "A", 0))
    if name == "epr":
        return project(bell_ab, "A", 1)
    if name == "epr-parallel":
        return join(project(bell_ab, "A", 1), project(bell_ab, "A", 0))
    if name == "h-parallel":
        return join(gate(bit("A", 0), ("A",), H), gate(bit("A", 1), ("A",), H))
    if name in ("cnot-action", "ent"):
        # ent first measures A of |+>|+> to 0, which leaves cnot-action's input
        return cnot_branches(product(plus("B"), bit("A", 0)))
    if name in ("cnot-parallel", "nogo"):
        # both targets (nogo: both outcomes of the cut on A), joined
        return join(cnot_branches(product(plus("B"), bit("A", 0))),
                    cnot_branches(product(plus("B"), bit("A", 1))))
    if name == "tel":
        return teleport(alpha, beta)
    if name in ("h-rule", "cnot-derivation"):
        return None
    raise KeyError(f"no expected state for corpus entry {name!r}")


# ---------------------------------------------------------------------------
# chain and wide

def hadamard_chain(start_bit: int, steps: int) -> State:
    s = bit("A", start_bit)
    for _ in range(steps):
        s = gate(s, ("A",), H)
    return s


def cnot_chain(control: int, target: int, steps: int) -> State:
    s = product(bit("B", control), bit("C", target))
    for _ in range(steps):
        s = gate(s, ("B", "C"), CNOT)
    return s


def wide_register(bits: Sequence[int]) -> State:
    """Project every wire of the equal superposition left to right; the last
    wire is projected both ways, the branches joined, then projected again."""
    n = len(bits)
    wires = tuple(f"W{k + 1:02d}" for k in range(n))
    s = State(wires, np.full(2 ** n, 2 ** (-n / 2), dtype=complex))
    for w, b in zip(wires[:-1], bits[:-1]):
        s = project(s, w, b)
    s = join(project(s, wires[-1], 1), project(s, wires[-1], 0))
    return project(s, wires[-1], bits[-1])
