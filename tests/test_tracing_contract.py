"""The benchmark's tracer wraps qsc functions by module and name.

``bench/tracing.py`` looks each ``(module, attr)`` of ``WRAPPED`` up when it
installs its spans, so a refactor that moves or renames one of them breaks
``bench/run.py --trace 1``.  These tests pin the names it relies on.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

from qsc.corpus import CORPUS, load_entry
from qsc.kernel import check_derivation
from qsc.parser import script_labels

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


def count_calls(monkeypatch, module, names):
    """Counters for the ``names`` of ``module``, bound as bench/tracing.py binds
    its wrappers: by rebinding the module attribute."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _original=getattr(module, name), _name=name):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    return counts


def replay_counts(monkeypatch, tree, labels):
    # bench/tracing.py times semantics.denote, .apply and .residual by
    # rebinding these module attributes; a replay that inlines one of them
    # zeroes its span
    semantics = importlib.import_module("qsc.semantics")
    counts = count_calls(monkeypatch, semantics, ("denote_assertion", "apply", "residual"))
    report = semantics.verify_soundness(tree, bindings={"alpha": 0.6, "beta": 0.8},
                                        labels=labels)
    monkeypatch.undo()
    return counts, report


def test_the_replay_reaches_its_primitives_through_the_module(monkeypatch):
    applied = 0
    for entry in CORPUS:
        script = load_entry(entry)
        for theorem in script.theorems:
            counts, report = replay_counts(monkeypatch, theorem.derivation,
                                           script_labels(script))
            actions = [e.verdict.action for e in check_derivation(theorem.derivation).entries]
            # one denotation per node, one apply per gate and per projected
            # wire, one residual per state entry
            assert counts == {
                "denote_assertion": len(actions),
                "apply": sum(1 if a[0] == "gate" else len(a[1])
                             for a in actions if a[:1] in (("gate",), ("project",))),
                "residual": sum(e.kind == "state" for e in report.entries),
            }, entry.name
            applied += counts["apply"]
            if entry.name == "tel":
                assert counts == {"denote_assertion": 8, "apply": 4, "residual": 5}
    assert applied > 4


def check_counts(monkeypatch, tree, labels):
    # bench/tracing.py counts kernel normalization through these two module
    # attributes; a kernel that normalizes by any other path (say through
    # syntax.equivalent) zeroes the syntax.normalize span
    kernel = importlib.import_module("qsc.kernel")
    counts = count_calls(monkeypatch, kernel, ("normalize", "sequent_equivalent"))
    report = kernel.check_derivation(tree, labels=labels)
    monkeypatch.undo()
    return counts, report


def test_a_check_pass_reaches_normalization_through_the_module(monkeypatch):
    totals = dict.fromkeys(("normalize", "sequent_equivalent"), 0)
    for entry in CORPUS:
        script = load_entry(entry)
        for theorem in script.theorems:
            counts, report = check_counts(monkeypatch, theorem.derivation,
                                          script_labels(script))
            assert report.ok, entry.name
            for name in totals:
                totals[name] += counts[name]
            if entry.name == "tel":
                assert counts == {"normalize": 12, "sequent_equivalent": 5}
    assert all(totals.values()), totals


def test_a_replay_checks_through_the_kernel_module_once(monkeypatch):
    # bench/tracing.py times kernel.check by rebinding qsc.kernel's attribute;
    # a replay that checks through a name of its own hides that span
    kernel = importlib.import_module("qsc.kernel")
    semantics = importlib.import_module("qsc.semantics")
    script = load_entry(next(e for e in CORPUS if e.name == "tel"))
    counts = count_calls(monkeypatch, kernel, ("check_derivation",))
    report = semantics.verify_soundness(script.theorems[0].derivation,
                                        bindings={"alpha": 0.6, "beta": 0.8},
                                        labels=script_labels(script))
    assert report.ok and counts == {"check_derivation": 1}


def test_the_corpus_checks_each_theorem_once_in_its_replay(monkeypatch):
    kernel = importlib.import_module("qsc.kernel")
    corpus = importlib.import_module("qsc.corpus")
    theorems = sum(len(load_entry(entry).theorems) for entry in CORPUS)
    through_kernel = count_calls(monkeypatch, kernel, ("check_derivation",))
    through_corpus = count_calls(monkeypatch, corpus, ("check_derivation",))
    assert all(result.ok for result in corpus.run_corpus())
    assert theorems == 18
    assert through_kernel == {"check_derivation": 18}
    assert through_corpus == {"check_derivation": 0}
