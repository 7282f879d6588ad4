"""Command-line front end.

Commands: ``check``, ``verify``, ``render``, ``corpus``, ``teleport``.
Exit codes, fixed for CI use: 0 success, 1 semantic or structural failure,
2 unreadable or unparseable input, an unwritable ``--out`` or stdout, a
bad option value or an ascii drawing past ``render.MAX_ASCII_BYTES``, 3
phase-order error (verify requested on a script that fails the structural
check).  A command returns 0 or 1 from ``_report``; a refusal (2 or 3) is
one ``_Refused`` raised to ``main``, which prints its one stderr line and
returns its code, also when stderr cannot be written.
"""

from __future__ import annotations

import argparse
import os
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


class _Refused(Exception):
    """A refusal: ``main`` prints it as one stderr line and returns ``code``."""

    def __init__(self, line: str, code: int = EXIT_INPUT):
        super().__init__(line)
        self.code = code


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _parse_tol(text: str) -> float:
    try:
        if (value := float(text)) >= 0:  # nan is not
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a tolerance (a number >= 0): {text!r}")


def _read_script(path: str) -> ProofScript:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Refused(f"error: cannot read {path}: {exc}")
    try:
        return parse_script(text)
    except ScriptError as exc:
        raise _Refused(f"{path}:{exc.span}: {type(exc).__name__}: {exc.message}")


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


def _stderr(line: str) -> None:
    """Write one line to stderr, or drop it if stderr is closed or cannot be
    written: the exit code still tells the caller what happened."""
    if sys.stderr is None:  # started without fd 2; print would pick stdout
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _report(lines: List[str], out: Optional[str], ok: bool) -> int:
    """Write each line and a newline to ``out``, or to stdout if none is
    given, and return the exit code that ``ok`` decides."""
    if not out:
        try:
            _write(sys.stdout, lines)
            sys.stdout.flush()
        except OSError as exc:
            # what is still buffered goes to the null device at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise _Refused(f"error: cannot write stdout: {exc}")
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                _write(handle, lines)
        except OSError as exc:
            raise _Refused(f"error: cannot write {out}: {exc}")
    return EXIT_OK if ok else EXIT_FAILURE


def _bindings(args) -> Dict[str, complex]:
    bindings = {"alpha": args.alpha, "beta": args.beta}
    try:
        check_bindings(bindings)
    except NotNormalized as exc:
        raise _Refused(f"error: {exc}")
    return bindings


def cmd_check(args) -> int:
    script = _read_script(args.path)
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
    return _report(lines, args.out, ok)


def cmd_verify(args) -> int:
    bindings = _bindings(args)
    script = _read_script(args.path)
    mode = LogicMode(args.mode)
    labels = script_labels(script)
    reports = [verify_soundness(theorem.derivation, mode, args.tol, bindings, labels)
               for theorem in script.theorems]
    for theorem, report in zip(script.theorems, reports):
        if not report.check_ok:
            raise _Refused(f"error: theorem {theorem.name} fails the structural check; "
                           "run 'check' first", EXIT_PHASE)
    lines: List[str] = []
    for theorem, report in zip(script.theorems, reports):
        if args.format == "human":
            lines.append(f"theorem {theorem.name}:")
        lines.extend(_format_soundness(report, args.format))
    return _report(lines, args.out, all(r.ok for r in reports))


def cmd_render(args) -> int:
    script = _read_script(args.path)
    lines: List[str] = []
    for theorem in script.theorems:
        try:
            drawing = render(theorem.derivation, args.style)
        except RenderTooLarge as exc:
            raise _Refused(f"error: theorem {theorem.name}: ascii drawing of {exc}; "
                           "use --style linear")
        # a drawing ends in its one newline, so the next makes a blank line
        lines += (f"-- theorem {theorem.name}", drawing)
    return _report(lines, args.out, True)


def cmd_corpus(args) -> int:
    bindings = _bindings(args)
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
    divergent = [r.name for r in results if not r.ok]
    code = _report(lines, args.out, not divergent)
    if divergent:
        _stderr("divergent entries: " + ", ".join(divergent))
    return code


def cmd_teleport(args) -> int:
    bindings = _bindings(args)
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
    ok = all(abs(o.probability - 0.25) <= args.tol and abs(o.fidelity - 1.0) <= args.tol
             for o in outcomes)
    return _report(lines, args.out, ok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsc",
        description="Check, verify and render qubit sequent-calculus derivations.")
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups; a command lists the ones it reads
    path, mode, values, report = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    path.add_argument("path", help="proof script (.qsc)")
    mode.add_argument("--mode", choices=["basic", "intuitionistic"],
                      default="basic", help="context discipline (default basic)")
    values.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL,
                        help="residual tolerance (default 1e-9)")
    values.add_argument("--alpha", type=_parse_complex, default=DEFAULT_BINDINGS["alpha"],
                        help="value bound to the symbolic degree alpha")
    values.add_argument("--beta", type=_parse_complex, default=DEFAULT_BINDINGS["beta"],
                        help="value bound to the symbolic degree beta")
    report.add_argument("--format", choices=["human", "machine"], default="human")
    report.add_argument("--out", help="write the report to this path")

    def command(name, summary, func, *groups):
        p = sub.add_parser(name, help=summary, parents=groups)
        p.set_defaults(func=func)
        return p

    command("check", "structural check of every theorem", cmd_check, path, mode, report)
    command("verify", "state-vector soundness verification", cmd_verify,
            path, mode, values, report)
    p = command("render", "pretty-print the derivations", cmd_render, path)
    p.add_argument("--style", choices=["ascii", "linear"], default="ascii")
    p.add_argument("--out")
    command("corpus", "run the bundled derivation corpus", cmd_corpus, mode, values, report)
    command("teleport", "brute-force teleportation oracle", cmd_teleport, values, report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refused as refusal:
        _stderr(str(refusal))
        return refusal.code


if __name__ == "__main__":
    sys.exit(main())
