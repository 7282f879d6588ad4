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

