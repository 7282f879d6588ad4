"""Command-line front end.

Commands: ``check``, ``verify``, ``render``, ``corpus``, ``teleport``.
Exit codes, fixed for CI use: 0 success, 1 semantic or structural failure,
2 unreadable or unparseable input, an unwritable ``--out`` or an ascii
drawing past ``render.MAX_ASCII_BYTES``, 3 phase-order error (verify
requested on a script that fails the structural check).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, TextIO

from .corpus import DEFAULT_BINDINGS, run_corpus
from .kernel import CheckReport, LogicMode, check_derivation
from .parser import ProofScript, ScriptError, parse_script, script_labels
from .render import RenderTooLarge, render
from .semantics import (
    DEFAULT_TOL,
    NotNormalized,
    SoundnessReport,
    check_bindings,
    teleport_oracle,
    verify_soundness,
)
from .syntax import sequent_str

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_PHASE = 3


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _read_script(path: str) -> Optional[ProofScript]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_script(text)
    except ScriptError as exc:
        print(f"{path}:{exc.span}: {type(exc).__name__}: {exc.message}", file=sys.stderr)
        return None


def _format_check(report: CheckReport, layout: str) -> List[str]:
    lines = []
    if layout == "machine":
        for e in report.entries:
            status = "pass" if e.verdict.ok else "fail"
            lines.append(f"check\t{e.path}\t{e.rule}\t{status}\t{e.verdict.code}"
                         f"\t{e.verdict.message}")
        lines.append(f"result\t{'ok' if report.ok else 'fail'}\t{report.mode.value}")
    else:
        for e in report.entries:
            mark = "ok " if e.verdict.ok else "FAIL"
            detail = f"  [{e.verdict.code}] {e.verdict.message}" if not e.verdict.ok else ""
            lines.append(f"  {mark} {e.path:<14} {e.rule:<12} {sequent_str(e.sequent)}{detail}")
        lines.append(f"{'all nodes pass' if report.ok else 'check FAILED'} "
                     f"({report.mode.value} mode)")
    return lines


def _format_soundness(report: SoundnessReport, layout: str) -> List[str]:
    lines = []
    if layout == "machine":
        for e in report.entries:
            residual = "-" if e.residual is None else f"{e.residual:.3e}"
            lines.append(f"verify\t{e.path}\t{e.rule}\t{e.kind}\t{residual}\t{e.note}")
        lines.append(f"max_residual\t{report.max_residual:.3e}")
        lines.append(f"result\t{'ok' if report.ok else 'fail'}\ttol={report.tol:.3e}")
    else:
        for e in report.entries:
            residual = "      -" if e.residual is None else f"{e.residual:.1e}"
            note = f"  {e.note}" if e.note else ""
            lines.append(f"  {e.path:<14} {e.rule:<12} {e.kind:<11} {residual}{note}")
        verdict = "sound" if report.ok else "residual breach"
        lines.append(f"{verdict}: max residual {report.max_residual:.3e} "
                     f"(tolerance {report.tol:.3e})")
    return lines


def _write(handle: TextIO, lines: List[str]) -> None:
    for line in lines:  # one write each, so no line is copied
        handle.write(line)
        handle.write("\n")


def _emit(lines: List[str], out_path: Optional[str]) -> bool:
    """Write each line and a newline; False after reporting that
    ``out_path`` cannot be written."""
    if not out_path:
        _write(sys.stdout, lines)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            _write(handle, lines)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return False
    return True


def _bindings(args) -> Optional[Dict[str, complex]]:
    """The alpha/beta bindings, or None after reporting that they are not
    normalized."""
    bindings = {"alpha": args.alpha, "beta": args.beta}
    try:
        check_bindings(bindings)
    except NotNormalized as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return bindings


def cmd_check(args) -> int:
    script = _read_script(args.path)
    if script is None:
        return EXIT_INPUT
    mode = LogicMode(args.mode)
    labels = script_labels(script)
    lines: List[str] = []
    ok = True
    for theorem in script.theorems:
        if args.format == "human":
            lines.append(f"theorem {theorem.name}: goal {sequent_str(theorem.goal)}")
        report = check_derivation(theorem.derivation, mode, labels)
        lines.extend(_format_check(report, args.format))
        ok = ok and report.ok
    if not _emit(lines, args.out):
        return EXIT_INPUT
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_verify(args) -> int:
    bindings = _bindings(args)
    if bindings is None:
        return EXIT_INPUT
    script = _read_script(args.path)
    if script is None:
        return EXIT_INPUT
    mode = LogicMode(args.mode)
    labels = script_labels(script)
    reports = [verify_soundness(theorem.derivation, mode, args.tol, bindings, labels)
               for theorem in script.theorems]
    for theorem, report in zip(script.theorems, reports):
        if not report.check_ok:
            print(f"error: theorem {theorem.name} fails the structural check; "
                  "run 'check' first", file=sys.stderr)
            return EXIT_PHASE
    lines: List[str] = []
    for theorem, report in zip(script.theorems, reports):
        if args.format == "human":
            lines.append(f"theorem {theorem.name}:")
        lines.extend(_format_soundness(report, args.format))
    if not _emit(lines, args.out):
        return EXIT_INPUT
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAILURE


def cmd_render(args) -> int:
    script = _read_script(args.path)
    if script is None:
        return EXIT_INPUT
    lines: List[str] = []
    for theorem in script.theorems:
        try:
            drawing = render(theorem.derivation, args.style)
        except RenderTooLarge as exc:
            print(f"error: theorem {theorem.name}: ascii drawing of {exc}; "
                  "use --style linear", file=sys.stderr)
            return EXIT_INPUT
        # a drawing ends in its one newline, so the next makes a blank line
        lines += (f"-- theorem {theorem.name}", drawing)
    return EXIT_OK if _emit(lines, args.out) else EXIT_INPUT


def cmd_corpus(args) -> int:
    bindings = _bindings(args)
    if bindings is None:
        return EXIT_INPUT
    mode = LogicMode(args.mode)
    results = run_corpus(mode, args.tol, bindings)
    lines: List[str] = []
    if args.format == "machine":
        for r in results:
            semantic = "-" if r.semantic_ok is None else ("pass" if r.semantic_ok else "fail")
            lines.append(f"entry\t{r.name}\t{'pass' if r.check_ok else 'fail'}"
                         f"\t{'pass' if r.goal_ok else 'fail'}"
                         f"\t{r.max_residual:.3e}\t{semantic}"
                         f"\t{'ok' if r.ok else 'fail'}")
        passed = sum(1 for r in results if r.ok)
        lines.append(f"result\t{passed}/{len(results)}")
    else:
        header = f"  {'entry':<20} {'check':<6} {'goal':<6} {'residual':<10} semantic"
        lines.append(header)
        for r in results:
            semantic = "-" if r.semantic_ok is None else ("pass" if r.semantic_ok else "FAIL")
            note = f"  {r.semantic_note}" if r.semantic_note else ""
            lines.append(f"  {r.name:<20} {'pass' if r.check_ok else 'FAIL':<6} "
                         f"{'pass' if r.goal_ok else 'FAIL':<6} "
                         f"{r.max_residual:<10.1e} {semantic}{note}")
        passed = sum(1 for r in results if r.ok)
        lines.append(f"{passed}/{len(results)} corpus entries pass ({mode.value} mode)")
    if not _emit(lines, args.out):
        return EXIT_INPUT
    divergent = [r.name for r in results if not r.ok]
    if divergent:
        print("divergent entries: " + ", ".join(divergent), file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_teleport(args) -> int:
    bindings = _bindings(args)
    if bindings is None:
        return EXIT_INPUT
    outcomes = teleport_oracle(bindings["alpha"], bindings["beta"])
    lines: List[str] = []
    if args.format == "machine":
        for o in outcomes:
            lines.append(f"outcome\t{o.bell_outcome}\t{o.probability:.12f}"
                         f"\t{o.correction}\t{o.fidelity:.12f}")
    else:
        lines.append(f"  input alpha={args.alpha}, beta={args.beta}")
        lines.append(f"  {'outcome':<8} {'probability':<12} {'correction':<11} fidelity")
        for o in outcomes:
            lines.append(f"  {o.bell_outcome:<8} {o.probability:<12.6f} "
                         f"{o.correction:<11} {o.fidelity:.9f}")
    if not _emit(lines, args.out):
        return EXIT_INPUT
    ok = all(abs(o.probability - 0.25) <= args.tol and abs(o.fidelity - 1.0) <= args.tol
             for o in outcomes)
    return EXIT_OK if ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsc",
        description="Check, verify and render qubit sequent-calculus derivations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_path=True, with_mode=True, with_values=True):
        if with_path:
            p.add_argument("path", help="proof script (.qsc)")
        if with_mode:
            p.add_argument("--mode", choices=["basic", "intuitionistic"],
                           default="basic", help="context discipline (default basic)")
        if with_values:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="residual tolerance (default 1e-9)")
            p.add_argument("--alpha", type=_parse_complex,
                           default=DEFAULT_BINDINGS["alpha"],
                           help="value bound to the symbolic degree alpha")
            p.add_argument("--beta", type=_parse_complex,
                           default=DEFAULT_BINDINGS["beta"],
                           help="value bound to the symbolic degree beta")
        p.add_argument("--format", choices=["human", "machine"], default="human")
        p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("check", help="structural check of every theorem")
    common(p, with_values=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="state-vector soundness verification")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="pretty-print the derivations")
    p.add_argument("path")
    p.add_argument("--style", choices=["ascii", "linear"], default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("corpus", help="run the bundled derivation corpus")
    common(p, with_path=False)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("teleport", help="brute-force teleportation oracle")
    common(p, with_path=False, with_mode=False)
    p.set_defaults(func=cmd_teleport)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
