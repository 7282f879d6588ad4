"""Reference scaling figures for the README, not benchmark metrics.

    python3 bench/scaling.py chain 50 100 200 400 499 500 999 1000
    python3 bench/scaling.py wide 8 10 12 14 16 18 20

``chain`` times parse, check, verify and both render styles of one chain
script per length (steps per theorem); a call that raises is reported by
its exception name.  ``wide`` times the same for one wide script per wire
count and reports the peak resident memory of a fresh process per width.
Each figure is the minimum of three calls.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


def best_ms(fn, repeat: int = 3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # the figure reports which call breaks
            return type(exc).__name__
        ms = (time.perf_counter() - t0) * 1e3
        best = ms if best is None else min(best, ms)
    return round(best, 2)


def measure(text: str) -> dict:
    from qsc import LogicMode, check_derivation, parse_script, render, verify_soundness
    script = parse_script(text)
    trees = [t.derivation for t in script.theorems]
    return {
        "parse_ms": best_ms(lambda: parse_script(text)),
        "check_ms": best_ms(lambda: [check_derivation(t, LogicMode.BASIC) for t in trees]),
        "verify_ms": best_ms(lambda: [verify_soundness(t) for t in trees]),
        "ascii_ms": best_ms(lambda: [render(t, "ascii") for t in trees]),
        "linear_ms": best_ms(lambda: [render(t, "linear") for t in trees]),
    }


def one(kind: str, size: int) -> dict:
    if kind == "chain":
        text = workloads.chain_workload(0, steps=size, count=1).cases[0].text
    else:
        text = workloads.wide_workload(0, wires=size, count=1).cases[0].text
    row = {"steps" if kind == "chain" else "wires": size, **measure(text)}
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def main() -> int:
    if sys.argv[1] == "one":
        print(json.dumps(one(sys.argv[2], int(sys.argv[3]))))
        return 0
    kind = sys.argv[1]
    for size in (int(s) for s in sys.argv[2:]):
        # a fresh process per size, so peak memory belongs to that size alone
        proc = subprocess.run([sys.executable, __file__, "one", kind, str(size)],
                              capture_output=True, text=True, timeout=900)
        print(proc.stdout.strip() or proc.stderr.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
