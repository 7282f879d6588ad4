"""Spans around qsc's public functions, recorded from outside the program.

``Tracer.install`` replaces each function named in ``WRAPPED`` by a wrapper
in every module that binds it and is listed there, including the names a
module imported at load time (``qsc.kernel.normalize``,
``qsc.parser.tokenize``).  No program file changes.  A span records its
name, start, end and parent; spans stay in memory, in flat arrays, until
``write`` saves them when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _bytes(text: str) -> int:
    return len(text.encode())


def _entries(report) -> int:
    return len(report.entries)


def _amplitudes(state) -> int:
    return int(state.amps.size)


# (module, attribute, span name, count taken from the result).  normalize is
# wrapped where kernel and semantics bind it, not inside qsc.syntax, so its
# own recursion makes no spans; kernel's sequent_equivalent normalizes both
# sequents and counts as normalization too.  The names qsc.corpus binds for
# its goal and target comparison form one span kind of their own.
WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("qsc.parser", "tokenize", "parser.tokenize", len),
    ("qsc.parser", "parse_script", "parser.parse", None),
    ("qsc.corpus", "parse_script", "parser.parse", None),
    ("qsc.kernel", "normalize", "syntax.normalize", None),
    ("qsc.kernel", "sequent_equivalent", "syntax.normalize", None),
    ("qsc.semantics", "normalize", "syntax.normalize", None),
    ("qsc.kernel", "check_derivation", "kernel.check", _entries),
    ("qsc.corpus", "check_derivation", "kernel.check", _entries),
    ("qsc.semantics", "verify_soundness", "semantics.verify", None),
    ("qsc.corpus", "verify_soundness", "semantics.verify", None),
    ("qsc.semantics", "denote_assertion", "semantics.denote", _amplitudes),
    ("qsc.semantics", "apply", "semantics.apply", None),
    ("qsc.semantics", "residual", "semantics.residual", None),
    ("qsc.render", "render_ascii", "render.ascii", _bytes),
    ("qsc.render", "render_linear", "render.linear", None),
    ("qsc.corpus", "parse_sequent", "corpus.goal_target", None),
    ("qsc.corpus", "sequent_equivalent", "corpus.goal_target", None),
    ("qsc.corpus", "denote_assertion", "corpus.goal_target", None),
    ("qsc.corpus", "fidelity", "corpus.goal_target", None),
    ("qsc.corpus", "entanglement_entropy", "corpus.goal_target", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.count = array("q")
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.count.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args):
        return self.wrap(name, fn, None)(*args)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.count[index] = count(result)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "count"]}) + "\n")
            for i in range(len(self.start)):
                handle.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                         self.parent[i], self.count[i]]) + "\n")

    def per_op(self) -> Dict[str, List[Dict[str, List[float]]]]:
        """For each root span (one benchmark operation), per span name: the
        summed self time in ms, the summed inclusive time in ms, the summed
        count and the number of spans.  Keyed by the root span's name."""
        n = len(self.start)
        root = array("i", [0]) * n
        child_ns = array("q", [0]) * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        ops: Dict[int, Dict[str, List[float]]] = {}
        for i in range(n):
            span = ops.setdefault(root[i], defaultdict(lambda: [0.0, 0.0, 0, 0]))
            total = self.end[i] - self.start[i]
            agg = span[self.names[self.name[i]]]
            agg[0] += (total - child_ns[i]) / 1e6
            agg[1] += total / 1e6
            agg[2] += self.count[i]
            agg[3] += 1
        out: Dict[str, List[Dict[str, List[float]]]] = defaultdict(list)
        for r, spans in ops.items():
            out[self.names[self.name[r]]].append(dict(spans))
        return out
