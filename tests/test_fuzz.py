"""Text-level fuzzing: no mutant of a corpus script makes the library raise.

Each mutant replaces, deletes or inserts one to three tokens drawn from the
corpus vocabulary.  Parsing may refuse it only with ``ScriptError``; a mutant
that parses must check, verify and render in both styles without raising.
"""

from __future__ import annotations

import random

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
