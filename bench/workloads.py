"""Seeded inputs of the three benchmark workloads.

Every workload yields a list of ``Case`` records: the accepted script text,
its altered twin that the kernel must reject at one known step with one
known verdict code, the goal text of each theorem and the state each goal
must denote.  The states come from ``oracle`` (plain numpy), never from
``qsc.semantics``.  Script text is written and altered here at the text
level, so the generators do not depend on the parser they feed.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import oracle

# Chain length (inference steps per theorem).  qsc's recursive render
# raises RecursionError from 495 steps and its kernel from 990; at 100 steps every
# call succeeds, ascii render costs about nine times the check, and a 30-second
# run times over 100 verdicts.
CHAIN_STEPS = 100
# Wire count of the wide workload: 2**12 amplitudes per state, so the numpy
# work of the replay is most of a verdict (about 22 of 38 ms traced) and dominates
# parse, check and render.  At 14 wires a fresh process's verdict time
# depended on the seed by up to 1.5x, run after run, though every script
# cost the same in one process that ran several seeds' scripts.
WIDE_WIRES = 12
# Distinct scripts per round.  Every script of a workload has the same
# make-up and size; only seeded bits and the altered step differ.  A round
# runs the CLI on one of them, so with three each CLI input is timed at least
# ten times in a 30-second run.
CHAIN_SCRIPTS = 3
WIDE_SCRIPTS = 3

H_DEGREE = "0.7071067811865476"

# Verdict code each rule's schema gives to a stated conclusion that differs
# from the one the rule derives (one literal toggled, or for the Hadamard
# rule the sign of one degree flipped).  Rules with a fixed shape report a
# schema mismatch, rules that compute their conclusion a conclusion
# mismatch, two-branch joins a join mismatch, gates with wrong amplitudes
# wrong degrees.
EXPECTED_CODE = {
    "axiom": "SchemaMismatch",
    "andrefl": "SchemaMismatch",
    "negform": "SchemaMismatch",
    "qsplit": "SchemaMismatch",
    "semidistrib": "SchemaMismatch",
    "cnot": "SchemaMismatch",
    "hinverse": "SchemaMismatch",
    "hrule": "WrongDegrees",
    "cut": "ConclusionMismatch",
    "epr": "ConclusionMismatch",
    "parform": "ConclusionMismatch",
    "parallel": "JoinMismatch",
}


@dataclass(frozen=True)
class Goal:
    theorem: str
    text: str                          # the goal sequent as written
    target: Optional[oracle.State]     # the state it must denote, if any


@dataclass(frozen=True)
class Case:
    name: str
    text: str                          # accepted script
    steps: int                         # numbered steps over all theorems
    goals: Tuple[Goal, ...]
    reject_text: str                   # the same script with one step altered
    reject_theorem: str
    reject_step: int
    reject_code: str
    corpus_entry: object = None        # qsc.corpus.CorpusEntry on `corpus`


@dataclass
class Workload:
    cases: List[Case]
    cli_args: List[List[str]]          # qsc arguments, one list per CLI input
    bindings: Dict[str, complex]
    files: Dict[str, str] = field(default_factory=dict)  # CLI inputs to write


# ---------------------------------------------------------------------------
# Reading and altering script text

_STEP_RE = re.compile(
    r"^\s*(?P<id>\d+):\s*(?P<sequent>.*?)\s+"
    r"(?:premise|by\s+(?P<rule>\w+)(?:\[[^\]]*\])?\((?P<refs>[^)]*)\))\s*(?:--.*)?$")
_THEOREM_RE = re.compile(r"^\s*theorem\s+(\w+)\s*:")
_STILE_RE = re.compile(r"^(?P<ant>.*?)\|-(?P<deg>\{[^}]*\})?\s*(?P<cons>.*)$")
_TOKEN_RE = re.compile(r"\{[^}]*\}|Q_[A-Za-z0-9_']+|(?P<lit>[A-Za-z_][A-Za-z0-9_']*)(?P<neg>\^?)")
_DEGREES_RE = re.compile(r"(&\{[^,]+,\s*)([^}]+)(\})")


@dataclass(frozen=True)
class StepLine:
    line: int            # index into text.splitlines()
    step: int
    sequent: str
    rule: str            # "premise" for hypotheses
    refs: Tuple[int, ...]


def read_theorems(text: str) -> Dict[str, List[StepLine]]:
    theorems: Dict[str, List[StepLine]] = {}
    current: Optional[List[StepLine]] = None
    for i, line in enumerate(text.splitlines()):
        m = _THEOREM_RE.match(line)
        if m:
            current = theorems.setdefault(m.group(1), [])
            continue
        m = _STEP_RE.match(line)
        if m and current is not None:
            refs = tuple(int(r) for r in m.group("refs").split(",") if r.strip()) \
                if m.group("rule") else ()
            current.append(StepLine(i, int(m.group("id")), m.group("sequent"),
                                    m.group("rule") or "premise", refs))
    return theorems


def reachable(steps: Sequence[StepLine]) -> List[StepLine]:
    """Steps the theorem's goal (its last step) depends on, goal included."""
    by_id = {s.step: s for s in steps}
    todo, seen = [steps[-1].step], set()
    while todo:
        sid = todo.pop()
        if sid not in seen:
            seen.add(sid)
            todo.extend(by_id[sid].refs)
    return [s for s in steps if s.step in seen]


def _split_top(cons: str) -> List[Tuple[int, str]]:
    """Top-level comma-separated formulas of a consequent, with offsets."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(cons):
        if c in "({":
            depth += 1
        elif c in ")}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append((start, cons[start:i]))
            start = i + 1
    parts.append((start, cons[start:]))
    return parts


def altered_sequent(sequent: str, rule: str) -> Optional[str]:
    """The sequent with one change its rule must reject, or None.

    The Hadamard rule gets the sign of its second degree flipped; every
    other rule gets the polarity of the last literal toggled in the last
    consequent formula that holds one outside a conjunction.
    """
    m = _STILE_RE.match(sequent)
    if m is None:
        return None
    head, cons = sequent[:m.start("cons")], m.group("cons")
    if rule == "hrule":
        d = _DEGREES_RE.search(cons)
        if d is None:
            return None
        second = d.group(2).strip()
        flipped = second[1:] if second.startswith("-") else "-" + second
        return head + cons[:d.start(2)] + flipped + cons[d.end(2):]
    for offset, formula in reversed(_split_top(cons)):
        if "&" in formula:
            continue
        lits = [t for t in _TOKEN_RE.finditer(formula) if t.group("lit")]
        if lits:
            t = lits[-1]
            toggled = t.group("lit") + ("" if t.group("neg") else "^")
            at = offset + t.start()
            return head + cons[:at] + toggled + cons[offset + t.end():]
    return None


def alteration_candidates(text: str) -> List[Tuple[str, StepLine]]:
    """(theorem, step) pairs that can be altered with a known verdict code."""
    out = []
    for name, steps in read_theorems(text).items():
        for s in reachable(steps):
            if s.rule in EXPECTED_CODE and altered_sequent(s.sequent, s.rule):
                out.append((name, s))
    return out


def alter(text: str, step: StepLine) -> str:
    lines = text.splitlines()
    line = lines[step.line]
    new = altered_sequent(step.sequent, step.rule)
    at = line.index(step.sequent)
    lines[step.line] = line[:at] + new + line[at + len(step.sequent):]
    return "\n".join(lines) + "\n"


def _rejected(text: str, rng: random.Random) -> Tuple[str, str, int, str]:
    theorem, step = rng.choice(alteration_candidates(text))
    return alter(text, step), theorem, step.step, EXPECTED_CODE[step.rule]


def _count_steps(text: str) -> int:
    return sum(len(steps) for steps in read_theorems(text).values())


# ---------------------------------------------------------------------------
# corpus: the bundled derivations, as shipped

def corpus_workload(seed: int) -> Workload:
    from qsc import corpus as qc

    rng = random.Random(seed)
    # an unknown qubit for TEL: a normalized pair with a seeded relative phase
    theta, phi = rng.uniform(0.2, 1.37), rng.uniform(-math.pi, math.pi)
    alpha, beta = complex(math.cos(theta)), math.sin(theta) * cmath.exp(1j * phi)
    cases = []
    for entry in qc.CORPUS:
        text = qc.corpus_text(entry.filename)
        reject_text, theorem, step, code = _rejected(text, rng)
        final = list(read_theorems(text))[-1]
        target = oracle.corpus_target(entry.name, alpha, beta)
        cases.append(Case(entry.name, text, _count_steps(text),
                          (Goal(final, entry.goal, target),),
                          reject_text, theorem, step, code, entry))
    args = ["corpus", "--format", "machine",
            f"--alpha={_complex_arg(alpha)}", f"--beta={_complex_arg(beta)}"]
    return Workload(cases, [args], {"alpha": alpha, "beta": beta})


def _complex_arg(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}i"


# ---------------------------------------------------------------------------
# chain: one H/H^-1 spine on one wire and one CNOT spine on two wires

def chain_text(start_bit: int, control: int, target: int, steps: int) -> Tuple[str, str, str]:
    """Script text and the two goal sequents of one chain script."""
    def bit(name: str, b: int) -> str:
        return name if b else name + "^"

    def cat(b: int) -> str:
        return f"A^ &{{{H_DEGREE}, {'-' if b else ''}{H_DEGREE}}} A"

    lines = ["atoms A B C", "", "theorem hchain:", f"  1: |- {bit('A', start_bit)} premise"]
    for i in range(1, steps + 1):
        if i % 2:      # H on the bit left by the previous step
            lines.append(f"  {i + 1}: |- {cat(start_bit)} by hrule({i})")
        else:
            lines.append(f"  {i + 1}: |- {bit('A', start_bit)} by hinverse({i})")
    h_goal = lines[-1].split(": ", 1)[1].rsplit(" by ", 1)[0]
    lines += ["qed", "", "theorem cchain:", f"  1: |- {bit('B', control)}, {bit('C', target)} premise"]
    t = target
    for i in range(1, steps + 1):
        clause = {(1, 1): "a", (0, 1): "b", (1, 0): "a'", (0, 0): "b'"}[(control, t)]
        t ^= control
        lines.append(f"  {i + 1}: |- {bit('B', control)}, {bit('C', t)} by cnot[{clause}]({i})")
    c_goal = f"|- {bit('B', control)}, {bit('C', t)}"
    lines += ["qed", ""]
    return "\n".join(lines), h_goal, c_goal


def chain_workload(seed: int, steps: int = CHAIN_STEPS, count: int = CHAIN_SCRIPTS) -> Workload:
    rng = random.Random(seed)
    cases, files = [], {}
    for k in range(count):
        start_bit, control, target = (rng.randrange(2) for _ in range(3))
        text, h_goal, c_goal = chain_text(start_bit, control, target, steps)
        reject_text, theorem, step, code = _rejected(text, rng)
        goals = (Goal("hchain", h_goal, oracle.hadamard_chain(start_bit, steps)),
                 Goal("cchain", c_goal, oracle.cnot_chain(control, target, steps)))
        cases.append(Case(f"chain-{k}", text, _count_steps(text), goals,
                          reject_text, theorem, step, code))
        files[f"chain-{k}.qsc"] = text
    args = [["check", "--format", "machine", name] for name in files]
    return Workload(cases, args, {}, files)


# ---------------------------------------------------------------------------
# wide: left-to-right projections of one wide register, one parallel join

def wide_text(bits: Sequence[int], par_positions: Sequence[int]) -> Tuple[str, str]:
    """Script text and goal of one wide script.

    Qubits are split left to right, so the wire each qsplit names is always
    the first undegreed qubit of its source.  The last wire is split both
    ways from one shared source and the two branches are joined, which
    restores its qubit; a final qsplit projects it, then par formations
    fuse adjacent literals.  Every step denotes the whole 2**n register.
    """
    n = len(bits)
    wires = [f"W{k + 1:02d}" for k in range(n)]
    lit = [w if b else w + "^" for w, b in zip(wires, bits)]
    lines = [f"atoms {' '.join(wires)}", "", "theorem wide:",
             f"  1: |- {', '.join('Q_' + w for w in wires)} premise"]

    def step(formulas: Sequence[str], rule: str, *refs: int) -> int:
        i = len(lines) - 2
        lines.append(f"  {i}: |- {', '.join(formulas)} by {rule}({', '.join(map(str, refs))})")
        return i

    prev = 1
    for k in range(n - 1):
        branch = "pos" if bits[k] else "neg"
        prev = step(lit[:k + 1] + ["Q_" + w for w in wires[k + 1:]],
                    f"qsplit[{branch}, {wires[k]}]", prev)
    last = wires[-1]
    pos = step(lit[:-1] + [last], f"qsplit[pos, {last}]", prev)
    neg = step(lit[:-1] + [last + "^"], f"qsplit[neg, {last}]", prev)
    joined = step(lit[:-1] + ["Q_" + last], "parallel[and]", pos, neg)
    formulas = list(lit)
    prev = step(formulas, f"qsplit[{'pos' if bits[-1] else 'neg'}, {last}]", joined)
    for i in par_positions:
        left, right = formulas[i], formulas[i + 1]
        left = f"({left})" if " " in left else left
        right = f"({right})" if " " in right else right
        formulas[i:i + 2] = [f"{left} # {right}"]
        prev = step(formulas, f"parform[{i}]", prev)
    lines += ["qed", ""]
    return "\n".join(lines), f"|- {', '.join(formulas)}"


def wide_workload(seed: int, wires: int = WIDE_WIRES, count: int = WIDE_SCRIPTS) -> Workload:
    rng = random.Random(seed)
    cases, files = [], {}
    for k in range(count):
        bits = [rng.randrange(2) for _ in range(wires)]
        positions = [rng.randrange(wires - 1 - j) for j in range(wires - 1)]
        text, goal = wide_text(bits, positions)
        reject_text, theorem, step, code = _rejected(text, rng)
        cases.append(Case(f"wide-{k}", text, _count_steps(text),
                          (Goal("wide", goal, oracle.wide_register(bits)),),
                          reject_text, theorem, step, code))
        files[f"wide-{k}.qsc"] = text
    args = [["verify", "--format", "machine", name] for name in files]
    return Workload(cases, args, {}, files)


WORKLOADS = {"corpus": corpus_workload, "chain": chain_workload, "wide": wide_workload}


def states_match(wires: Sequence[str], amps: np.ndarray, expected: oracle.State,
                 tol: float = 1e-9) -> bool:
    """Whether a denoted state equals the expected one up to a global phase."""
    return oracle.fidelity(oracle.State(tuple(wires), np.asarray(amps)), expected) >= 1.0 - tol
