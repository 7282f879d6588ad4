"""End-to-end and per-layer benchmark of qsc.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus|chain|wide --seed N --seconds S --trace 0|1

One process drives qsc one operation at a time, with no extra threads.  A
round runs, for every script of the workload, a ``verdict``, a ``reject``
and a ``render`` operation, then one ``cli`` operation: the workload's qsc
command as a subprocess.  Rounds repeat until ``--seconds`` have passed and
at least 100 verdicts were timed; only whole rounds run.  Every output is
checked; an operation that raises or whose output is wrong counts as
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
JSON file with every figure, and with ``--trace 1`` the spans, go to
``bench/out/``.  The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# One thread of computation, here and in every child.  numpy's BLAS starts
# a worker thread per core by default; on a shared two-core machine,
# back-to-back `wide` verdicts in one process then took a median of 340 to
# 1,300 ms, against 90 ms with one thread.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

TOL = 1e-9
MIN_VERDICTS = 100         # samples behind the reference verdict p90
SETUP_PASSES = 5           # setup_s is the median of these
CLI_TIMEOUT_S = 120

IMPORT_TIMER = ("import time; t = time.perf_counter(); import qsc.cli; "
                "print(time.perf_counter() - t)")


def load_qsc() -> bool:
    if not (SRC / "qsc" / "__init__.py").is_file():
        print(f"error: no qsc package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import qsc
    if Path(qsc.__file__).resolve().parent != (SRC / "qsc").resolve():
        print(f"error: qsc was imported from {qsc.__file__}, not from {SRC}",
              file=sys.stderr)
        return False
    return True


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: List[str], cwd: Path) -> Tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Checks of the program's outputs, made after the timed call

def first_failure(report) -> Optional[object]:
    return next((e for e in report.entries if not e.verdict.ok), None)


def depth(tree) -> int:
    """Longest premise path below a derivation, without recursion."""
    memo: Dict[int, int] = {}
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            memo[id(node)] = 1 + max((memo[id(p)] for p in node.premises), default=-1)
        elif id(node) not in memo:
            stack.append((node, True))
            stack.extend((p, False) for p in node.premises if id(p) not in memo)
    return memo[id(tree)]


def same_tree(a, b) -> bool:
    """Structural equality of two derivations, without recursion; shared
    premises are compared once."""
    seen = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if (x.rule != y.rule or x.conclusion != y.conclusion or x.params != y.params
                or len(x.premises) != len(y.premises)):
            return False
        stack.extend(zip(x.premises, y.premises))
    return True


class Bench:
    """The operations of one workload and the checks of their outputs."""

    def __init__(self, workload, workdir: Path):
        # modules, not names, so that the tracer's wrappers are looked up
        # at call time (the package's own ``render`` is the function)
        module = importlib.import_module
        self.qc, self.kernel, self.parser = (module(f"qsc.{m}") for m in
                                             ("corpus", "kernel", "parser"))
        self.render_mod, self.semantics = module("qsc.render"), module("qsc.semantics")
        self.mode = self.kernel.LogicMode.BASIC
        self.workload = workload
        self.workdir = workdir
        self.bindings = workload.bindings or None
        # parsed once, for render and for denoting corpus goals in checks
        self.scripts = [self.parser.parse_script(c.text) for c in workload.cases]

    # -- verdict -------------------------------------------------------------

    def verdict(self, i: int):
        case = self.workload.cases[i]
        if case.corpus_entry is not None:
            return self.qc.run_entry(case.corpus_entry, self.mode, TOL, self.bindings)
        p, k, s, qc = self.parser, self.kernel, self.semantics, self.qc
        script = p.parse_script(case.text)
        labels = p.script_labels(script)
        reports = [k.check_derivation(t.derivation, self.mode, labels) for t in script.theorems]
        sounds = [s.verify_soundness(t.derivation, self.mode, TOL, self.bindings, labels)
                  for t in script.theorems]
        goals = []
        for goal in case.goals:
            stated = script.theorem(goal.theorem).goal
            same = qc.sequent_equivalent(stated, qc.parse_sequent(goal.text, script.atoms))
            goals.append((same, qc.denote_assertion(stated, self.bindings)))
        return reports, sounds, goals

    def check_verdict(self, i: int, out) -> bool:
        case = self.workload.cases[i]
        if case.corpus_entry is not None:
            goal = case.goals[0]
            ok = (out.ok and out.check_ok and out.goal_ok and out.verify_ok
                  and out.max_residual <= TOL
                  and out.semantic_ok is (None if goal.target is None else True))
            if goal.target is not None:
                stated = self.scripts[i].theorem(goal.theorem).goal
                state = self.semantics.denote_assertion(stated, self.bindings)
                ok = ok and workloads.states_match(state.wires, state.vector(), goal.target)
            return ok
        reports, sounds, goals = out
        return (all(r.ok for r in reports)
                and all(self._sound(s) for s in sounds)
                and all(same and workloads.states_match(state.wires, state.vector(),
                                                              goal.target)
                        for (same, state), goal in zip(goals, case.goals)))

    @staticmethod
    def _sound(report) -> bool:
        return report.ok and all(
            e.kind != "error" and (e.kind != "state" or e.residual <= TOL)
            for e in report.entries)

    # -- reject --------------------------------------------------------------

    def reject(self, i: int):
        script = self.parser.parse_script(self.workload.cases[i].reject_text)
        labels = self.parser.script_labels(script)
        return [(t.name, self.kernel.check_derivation(t.derivation, self.mode, labels))
                for t in script.theorems]

    def check_reject(self, i: int, out) -> bool:
        case = self.workload.cases[i]
        for name, report in out:
            if name != case.reject_theorem:
                if not report.ok:
                    return False
                continue
            first = first_failure(report)
            if report.ok or first is None:
                return False
            if (first.path != f"{case.reject_theorem}:{case.reject_step}"
                    or first.verdict.code != case.reject_code):
                return False
        return any(name == case.reject_theorem for name, _ in out)

    # -- render --------------------------------------------------------------

    def render(self, i: int):
        render = self.render_mod.render
        return [(render(t.derivation, "ascii"), render(t.derivation, "linear"))
                for t in self.scripts[i].theorems]

    def check_render(self, i: int, out) -> bool:
        script = self.scripts[i]
        for theorem, (ascii_text, linear_text) in zip(script.theorems, out):
            lines = ascii_text.rstrip("\n").split("\n")
            back = self.parser.parse_script(linear_text).theorems[0].derivation
            last = self.parser.parse_sequent(lines[-1].strip(), script.atoms)
            if (not same_tree(theorem.derivation, back) or last != theorem.goal
                    or len(lines) != 2 * depth(theorem.derivation) + 1):
                return False
        return len(out) == len(script.theorems)

    # -- cli -----------------------------------------------------------------

    def cli(self, i: int):
        args = self.workload.cli_args[i % len(self.workload.cli_args)]
        proc, _ = run_child(["-m", "qsc.cli", *args], self.workdir)
        return args, proc

    def check_cli(self, i: int, out) -> bool:
        args, proc = out
        if proc.returncode != 0:
            return False
        rows = [line.split("\t") for line in proc.stdout.splitlines()]
        results = [r for r in rows if r[0] == "result"]
        command = args[0]
        if command == "corpus":
            n = len(self.workload.cases)
            entries = [r for r in rows if r[0] == "entry"]
            return (len(entries) == n and all(r[-1] == "ok" for r in entries)
                    and results == [["result", f"{n}/{n}"]])
        case = self.workload.cases[i % len(self.workload.cli_args)]
        theorems = len(self.scripts[i % len(self.workload.cli_args)].theorems)
        if command == "check":
            checks = [r for r in rows if r[0] == "check"]
            return (results == [["result", "ok", "basic"]] * theorems
                    and len(checks) == case.steps
                    and all(r[3] == "pass" for r in checks))
        verifies = [r for r in rows if r[0] == "verify"]
        return (len(results) == theorems
                and all(r[:2] == ["result", "ok"] for r in results)
                and len(verifies) == case.steps
                and all(r[4] == "-" or float(r[4]) <= TOL for r in verifies))

    # -- cli probes (traced runs only) ---------------------------------------

    def probe(self, i: int) -> Dict[str, float]:
        bare, bare_s = run_child(["-c", "pass"], self.workdir)
        timed, _ = run_child(["-c", IMPORT_TIMER], self.workdir)
        importtime, _ = run_child(["-X", "importtime", "-c", "import qsc.cli"], self.workdir)
        numpy_us = [int(m.group(1)) for m in re.finditer(
            r"^import time:\s*\d+ \|\s*(\d+) \|\s*numpy\s*$", importtime.stderr, re.M)]
        if bare.returncode or timed.returncode or importtime.returncode or not numpy_us:
            raise RuntimeError("a cli probe failed")
        return {"interpreter_ms": bare_s * 1e3,
                "import_ms": float(timed.stdout.strip()) * 1e3,
                "numpy_import_ms": numpy_us[0] / 1e3}

    def round_ops(self) -> List[Tuple[str, int]]:
        ops = []
        for i in range(len(self.workload.cases)):
            ops += [("verdict", i), ("reject", i), ("render", i)]
        return ops


def setup(name: str, seed: int) -> Tuple[float, Bench]:
    """One set-up pass: a fresh interpreter importing qsc.cli, input
    generation, writing the CLI input files, and one warm-up operation of
    each kind.  Returns its wall time and the ready benchmark."""
    t0 = time.perf_counter()
    workdir = OUT / "inputs" / name
    workdir.mkdir(parents=True, exist_ok=True)
    run_child(["-c", "import qsc.cli"], workdir)
    workload = workloads.WORKLOADS[name](seed)
    for filename, text in workload.files.items():
        (workdir / filename).write_text(text, encoding="utf-8")
    bench = Bench(workload, workdir)
    for kind in ("verdict", "reject", "render", "cli"):
        try:
            getattr(bench, kind)(0)
        except Exception:
            traceback.print_exc()
    return time.perf_counter() - t0, bench


def measure(bench: Bench, seconds: float, tracer=None) -> dict:
    """Run whole rounds for ``seconds`` (and at least MIN_VERDICTS verdicts).

    Each operation that returns leaves a sample (round, input, seconds,
    steps): input is the index of the script, or of the CLI input, it ran
    on; steps are counted for accepted verdicts only."""
    samples: Dict[str, List[Tuple[int, int, float, int]]] = {
        k: [] for k in ("verdict", "reject", "render", "cli")}
    attempted = errors = wrong = 0
    probes: List[Dict[str, float]] = []
    output_bytes: List[int] = []
    ops = bench.round_ops()
    rounds = 0
    start = time.perf_counter()
    while True:
        round_ops = ops + [("cli", rounds)] + ([("probe", rounds)] if tracer else [])
        for kind, i in round_ops:
            fn = getattr(bench, kind)
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.call(f"op.{kind}", fn, i) if tracer else fn(i)
            except Exception:
                errors += 1
                traceback.print_exc()
                continue
            elapsed = time.perf_counter() - t0
            if kind == "probe":
                probes.append(out)
                continue
            passed = getattr(bench, f"check_{kind}")(i, out)
            if not passed:
                wrong += 1
                print(f"wrong output: {kind} #{i}", file=sys.stderr)
            steps = bench.workload.cases[i].steps if kind == "verdict" and passed else 0
            index = i % len(bench.workload.cli_args) if kind == "cli" else i
            samples[kind].append((rounds, index, elapsed, steps))
            if kind == "cli":
                output_bytes.append(len(out[1].stdout.encode()))
        rounds += 1
        spent = time.perf_counter() - start
        if spent >= seconds and (len(samples["verdict"]) >= MIN_VERDICTS
                                 or spent >= seconds + 60):
            break
    return {"samples": samples, "attempted": attempted, "errors": errors,
            "wrong": wrong, "rounds": rounds, "seconds": spent, "probes": probes,
            "output_bytes": output_bytes}


def by_input(samples) -> List[Tuple[float, int]]:
    """The median seconds of each input over its repeats in the run, with the
    steps of one of its repeats."""
    runs: Dict[int, List[Tuple[float, int]]] = {}
    for _, index, seconds, steps in samples:
        runs.setdefault(index, []).append((seconds, steps))
    return [(statistics.median(t for t, _ in v), min(n for _, n in v))
            for v in runs.values()]


def p50_ms(samples) -> float:
    """Median over the workload's inputs of each input's median time."""
    return statistics.median(t for t, _ in by_input(samples)) * 1e3


def end_to_end(run: dict, setup_s: float) -> Dict[str, Tuple[float, str]]:
    s = run["samples"]
    return {
        "verdict_ms_p50": (p50_ms(s["verdict"]), "ms"),
        "reject_ms_p50": (p50_ms(s["reject"]), "ms"),
        "steps_per_s": (statistics.median(n / t for t, n in by_input(s["verdict"])), "1/s"),
        "render_ms_p50": (p50_ms(s["render"]), "ms"),
        "cli_ms_p50": (p50_ms(s["cli"]), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def reference(run: dict) -> Dict[str, float]:
    """Figures kept in the result file but not bounded: the verdict tail
    spreads too far between runs of the same code on a shared machine."""
    verdict_s = [x[2] for x in run["samples"]["verdict"]]
    return {"verdict_ms_p90": statistics.quantiles(verdict_s, n=10)[8] * 1e3,
            "verdicts": len(verdict_s)}


def per_layer(tracer, run: dict) -> Dict[str, Tuple[float, str]]:
    ops = tracer.per_op()
    verdicts, rejects, renders = ops["op.verdict"], ops["op.reject"], ops["op.render"]
    none = [0.0, 0.0, 0, 0]

    def med(op_list, span: str, field: int) -> float:
        return statistics.median(op.get(span, none)[field] for op in op_list)

    def total(op_list, span: str, field: int) -> float:
        return sum(op.get(span, none)[field] for op in op_list)

    parse_ms = total(verdicts, "parser.tokenize", 0) + total(verdicts, "parser.parse", 0)
    probes = run["probes"]
    return {
        "parser.tokenize_ms": (med(verdicts, "parser.tokenize", 0), "ms"),
        "parser.parse_ms": (med(verdicts, "parser.parse", 0), "ms"),
        "parser.tokens": (med(verdicts, "parser.tokenize", 2), "count"),
        "parser.tokens_per_s": (total(verdicts, "parser.tokenize", 2) / parse_ms * 1e3, "1/s"),
        "syntax.normalize_calls": (med(verdicts, "syntax.normalize", 3), "count"),
        "syntax.normalize_ms": (med(verdicts, "syntax.normalize", 1), "ms"),
        "kernel.check_ms": (med(verdicts, "kernel.check", 0), "ms"),
        "kernel.reject_check_ms": (med(rejects, "kernel.check", 0), "ms"),
        "kernel.nodes": (med(verdicts, "kernel.check", 2), "count"),
        "kernel.nodes_per_s": (total(verdicts, "kernel.check", 2)
                               / total(verdicts, "kernel.check", 1) * 1e3, "1/s"),
        "semantics.verify_ms": (med(verdicts, "semantics.verify", 0), "ms"),
        "semantics.denote_ms": (med(verdicts, "semantics.denote", 1), "ms"),
        "semantics.apply_ms": (med(verdicts, "semantics.apply", 1), "ms"),
        "semantics.residual_ms": (med(verdicts, "semantics.residual", 1), "ms"),
        "semantics.amplitudes": (med(verdicts, "semantics.denote", 2), "count"),
        "render.ascii_ms": (med(renders, "render.ascii", 1), "ms"),
        "render.linear_ms": (med(renders, "render.linear", 1), "ms"),
        "render.ascii_bytes": (med(renders, "render.ascii", 2), "bytes"),
        "corpus.goal_target_ms": (med(verdicts, "corpus.goal_target", 1), "ms"),
        "cli.interpreter_ms": (statistics.median(p["interpreter_ms"] for p in probes), "ms"),
        "cli.import_ms": (statistics.median(p["import_ms"] for p in probes), "ms"),
        "cli.numpy_import_ms": (statistics.median(p["numpy_import_ms"] for p in probes), "ms"),
        "cli.output_bytes": (statistics.median(run["output_bytes"]), "bytes"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["corpus", "chain", "wide"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not load_qsc():
        return 2

    durations = []
    for _ in range(SETUP_PASSES):
        duration, bench = setup(args.workload, args.seed)
        durations.append(duration)
    setup_s = statistics.median(durations)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        run = measure(bench, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    empty = [kind for kind, v in run["samples"].items() if len(v) < 2]
    if empty:
        print(f"error: too few operations of kind {', '.join(empty)} returned",
              file=sys.stderr)
        return 1
    timing = end_to_end(run, setup_s)
    metrics = per_layer(tracer, run) if tracer else timing
    failed = run["errors"] + run["wrong"]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": run["rounds"], "measured_s": run["seconds"],
        "attempted": run["attempted"], "failed": failed, "wrong": run["wrong"],
        "setup_passes_s": durations,
        "samples": run["samples"],
        "timing": {k: v for k, (v, _) in timing.items()},
        "reference": reference(run),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"trace-{stem}.jsonl.gz")
    print(json.dumps({"correct": run["wrong"] == 0, "attempted": run["attempted"],
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
