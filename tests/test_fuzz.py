"""Text-level fuzzing: no mutant of a corpus script makes the library raise.

Each mutant replaces, deletes or inserts one to three tokens drawn from the
corpus vocabulary.  Parsing may refuse it only with ``ScriptError``; a mutant
that parses must check, verify and render in both styles without raising.
Degree variants put an extreme number in place of one degree of a corpus
script, and a linear render of one that parses must parse back.
"""

from __future__ import annotations

import random

import pytest

from qsc.corpus import CORPUS, DEFAULT_BINDINGS, corpus_text
from qsc.kernel import LogicMode, check_derivation
from qsc.parser import ScriptError, parse_script, script_labels, tokenize
from qsc.render import render
from qsc.semantics import verify_soundness

MUTANTS = 2_000
SCRIPTS = [[t.text for t in tokenize(corpus_text(e.filename))[:-1]] for e in CORPUS]
VOCABULARY = sorted({text for tokens in SCRIPTS for text in tokens})


def mutant(rng: random.Random) -> str:
    tokens = list(rng.choice(SCRIPTS))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        edit = rng.choice(("replace", "delete", "insert"))
        if edit == "replace":
            tokens[i] = rng.choice(VOCABULARY)
        elif edit == "delete":
            del tokens[i]
        else:
            tokens.insert(i, rng.choice(VOCABULARY))
    return " ".join(tokens)


def judge(text: str) -> bool:
    """Whether the mutant parsed; every later phase must return."""
    try:
        script = parse_script(text)
    except ScriptError:
        return False
    labels = script_labels(script)
    for theorem in script.theorems:
        for mode in LogicMode:
            check_derivation(theorem.derivation, mode, labels)
            verify_soundness(theorem.derivation, mode, bindings=DEFAULT_BINDINGS,
                             labels=labels)
        render(theorem.derivation, "ascii")
        render(theorem.derivation, "linear")
    return True


def test_mutants_end_in_a_verdict_or_a_script_error():
    # the unmutated token lists parse, so every mutant is a few edits away
    # from a valid script
    assert all(judge(" ".join(tokens)) for tokens in SCRIPTS)
    rng = random.Random(0)
    parsed = 0
    for _ in range(MUTANTS):
        text = mutant(rng)
        try:
            parsed += judge(text)
        except Exception as exc:
            raise AssertionError(f"mutant raised {exc!r}:\n{text}") from exc
    assert parsed >= 20, parsed


def degree_variants(text: str, value: str):
    """``text`` with one degree (a number, alpha or beta between braces)
    replaced by ``value``, once for each degree in it."""
    lines, braced = text.split("\n"), False
    for tok in tokenize(text):
        if tok.kind == "PUNCT" and tok.text in "{}":
            braced = tok.text == "{"
        elif braced and tok.kind in ("NUM", "IDENT"):
            line, start = lines[tok.span.line - 1], tok.span.column - 1
            yield "\n".join(lines[:tok.span.line - 1]
                            + [line[:start] + value + line[start + tok.span.length:]]
                            + lines[tok.span.line:])


# past the float range, past it in modulus only, at its top, subnormal
@pytest.mark.parametrize("value", ["1e999", "1.7e308+1.7e308i", "1e308", "1e-320"])
def test_extreme_degrees_end_in_a_verdict_or_a_script_error(value):
    variants = [v for e in CORPUS for v in degree_variants(corpus_text(e.filename), value)]
    assert len(variants) == 22
    for text in variants:
        if judge(text):
            for theorem in parse_script(text).theorems:
                linear = render(theorem.derivation, "linear")
                assert parse_script(linear).theorems, linear
