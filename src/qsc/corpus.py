"""The bundled corpus of thirteen derivations and their expectations.

Each entry names a ``.qsc`` file shipped with the package, the conclusion
its final theorem must reach (compared after normalization), and, where
the conclusion denotes a state, the target state it must match.  The
runner checks every entry structurally, verifies it against the state
semantics, and reports one row per entry in a fixed order.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .kernel import (
    LogicMode,
    check_derivation,  # unused here; bench/tracing.py:WRAPPED wraps qsc.corpus.check_derivation
)
from .parser import ProofScript, parse_script, parse_sequent, script_labels
from .semantics import (
    DEFAULT_TOL,
    QState,
    SQRT1_2,
    denote_assertion,
    entanglement_entropy,
    fidelity,
    verify_soundness,
)
from .syntax import sequent_equivalent


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    goal: str                      # conclusion of the file's final theorem
    target: Optional[str] = None   # key of the semantic target, if any

    @property
    def filename(self) -> str:
        return self.name + ".qsc"


CORPUS: Tuple[CorpusEntry, ...] = (
    CorpusEntry("cut-destroys-cat-1", "|- A", "bit1"),
    CorpusEntry("cut-destroys-cat-0", "|- A^", "bit0"),
    CorpusEntry("cut-parallel", "|- A & A^", "cat_identity"),
    CorpusEntry("epr", "|- A # B", "pair11"),
    CorpusEntry("epr-parallel", "|- Q_A @ Q_B", "bell_identity"),
    CorpusEntry("h-rule", "|- A"),
    CorpusEntry("h-parallel", "|- A^", "bit0"),
    CorpusEntry("cnot-derivation", "|- B^, A^"),
    CorpusEntry("cnot-action", "|- Q_B @ Q_A", "bell_ba"),
    CorpusEntry("cnot-parallel", "|- Q_B, Q_A", "separable_ba"),
    CorpusEntry("ent", "|- Q_B @ Q_A", "bell_ba"),
    CorpusEntry("nogo", "|- Q_B, Q_A", "separable_ba"),
    CorpusEntry("tel", "|- Q_C{alpha, beta} @ Q_B", "teleported_cb"),
)

DEFAULT_BINDINGS: Dict[str, complex] = {"alpha": 0.6 + 0j, "beta": 0.8 + 0j}
_CORPUS_DIR = importlib.resources.files("qsc") / "corpus"


def corpus_text(filename: str) -> str:
    return (_CORPUS_DIR / filename).read_text()


def load_entry(entry: CorpusEntry) -> ProofScript:
    return parse_script(corpus_text(entry.filename))


_TARGETS = {  # key -> (wires, amplitudes); teleported_cb reads the bindings
    "bit1": ("A", (0, 1)),
    "bit0": ("A", (1, 0)),
    "cat_identity": ("A", (SQRT1_2, SQRT1_2)),
    "pair11": ("AB", (0, 0, 0, 1)),
    "bell_identity": ("AB", (SQRT1_2, 0, 0, SQRT1_2)),
    "bell_ba": ("BA", (SQRT1_2, 0, 0, SQRT1_2)),
    "separable_ba": ("BA", (0.5, 0.5, 0.5, 0.5)),
}


def _target_state(key: str, bindings: Dict[str, complex]) -> QState:
    if key == "teleported_cb":
        wires, amps = "CB", (bindings["alpha"], 0, 0, bindings["beta"])
    else:
        wires, amps = _TARGETS[key]
    return QState(tuple(wires), np.array(amps, dtype=complex))


@dataclass
class EntryResult:
    name: str
    check_ok: bool
    goal_ok: bool
    verify_ok: bool
    max_residual: float
    semantic_ok: Optional[bool]    # None when the entry has no state target
    semantic_note: str

    @property
    def ok(self) -> bool:
        return (self.check_ok and self.goal_ok and self.verify_ok
                and self.semantic_ok is not False)


def run_entry(entry: CorpusEntry, mode: LogicMode = LogicMode.BASIC,
              tol: float = DEFAULT_TOL,
              bindings: Optional[Dict[str, complex]] = None) -> EntryResult:
    bindings = dict(DEFAULT_BINDINGS if bindings is None else bindings)
    script = load_entry(entry)
    labels = script_labels(script)
    check_ok = True
    verify_ok = True
    max_residual = 0.0
    for theorem in script.theorems:
        sound = verify_soundness(theorem.derivation, mode, tol, bindings, labels)
        check_ok = check_ok and sound.check_ok
        verify_ok = verify_ok and sound.ok  # a failed check is an error entry
        if sound.check_ok:
            max_residual = float(np.maximum(max_residual, sound.max_residual))
    final = script.theorems[-1]
    goal_ok = sequent_equivalent(final.goal, parse_sequent(entry.goal, script.atoms))
    semantic_ok: Optional[bool] = None
    semantic_note = ""
    if entry.target is not None and verify_ok:
        target = _target_state(entry.target, bindings)
        state = denote_assertion(final.goal, bindings)
        fid = fidelity(state, target)
        semantic_ok = fid >= 1.0 - tol
        semantic_note = f"fidelity {fid:.12f} vs {entry.target}"
        if entry.target == "separable_ba" and semantic_ok:
            entropy = max(entanglement_entropy(state, w) for w in state.wires)
            semantic_ok = entropy <= tol
            semantic_note += f", entropy {entropy:.3e}"
    return EntryResult(entry.name, check_ok, goal_ok, verify_ok,
                       max_residual, semantic_ok, semantic_note)


def run_corpus(mode: LogicMode = LogicMode.BASIC, tol: float = DEFAULT_TOL,
               bindings: Optional[Dict[str, complex]] = None) -> List[EntryResult]:
    return [run_entry(entry, mode, tol, bindings) for entry in CORPUS]
