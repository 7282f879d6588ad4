"""qsc: a proof checker and state-vector verifier for a qubit sequent calculus.

The calculus has no contraction and no weakening; its connectives include a
degreed additive conjunction (quantum superposition) and an entanglement
connective over qubit propositions.  Derivations are flat numbered scripts
(``.qsc`` files) checked rule by rule, then replayed against a small dense
state-vector model in which cuts are projective measurements, parallel
branches are mirror (identity) measurements, and the structural rules are
the Hadamard and controlled-not gates.
"""

from .syntax import (
    ALPHA,
    BETA,
    And,
    Atom,
    Degree,
    Ent,
    Formula,
    NULL,
    Null,
    NonAtomicNegation,
    Par,
    Qubit,
    Sequent,
    SymDegree,
    equivalent,
    formula_str,
    negate,
    normalize,
    sequent_equivalent,
    sequent_str,
)
from .kernel import (
    CheckReport,
    Derivation,
    LogicMode,
    RULES,
    Verdict,
    check_derivation,
)
from .semantics import (
    QState,
    SoundnessReport,
    TeleportOutcome,
    apply,
    combine_parallel,
    denote_assertion,
    entanglement_entropy,
    fidelity,
    teleport_oracle,
    verify_soundness,
)
from .parser import (
    ProofScript,
    ScriptError,
    ScriptSyntaxError,
    SourceSpan,
    UnknownAtom,
    UnknownRule,
    parse_formula,
    parse_script,
    parse_sequent,
    script_labels,
)
from .render import render
from .corpus import CORPUS, DEFAULT_BINDINGS, run_corpus, run_entry

__version__ = "0.1.0"
