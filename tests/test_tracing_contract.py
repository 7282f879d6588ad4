"""The benchmark's tracer wraps qsc functions by module and name.

``bench/tracing.py`` looks each ``(module, attr)`` of ``WRAPPED`` up when it
installs its spans, so a refactor that moves or renames one of them breaks
``bench/run.py --trace 1``.  These tests pin the names it relies on.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable_of_its_module():
    missing = [(module, attr) for module, attr, _, _ in load_tracing().WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []



def test_the_parsers_reach_tokenize_through_the_module(monkeypatch):
    # bench/tracing.py times parser.tokenize by rebinding the module
    # attribute; a parser that lexes by any other path zeroes that span
    parser = importlib.import_module("qsc.parser")
    original, counts = parser.tokenize, []

    def counting(text):
        tokens = original(text)
        counts.append(len(tokens))
        return tokens

    monkeypatch.setattr(parser, "tokenize", counting)
    calls = [
        (parser.parse_script, "atoms A\ntheorem t:\n  1: |- A premise\nqed\n", 12),
        (parser.parse_sequent, "Q_A |- A", 4),
        (parser.parse_formula, "A & A^", 5),
    ]
    for parse, text, tokens in calls:
        counts.clear()
        parse(text)
        assert counts == [tokens], parse.__name__
