"""Script parsing: grammar, spans, script structure, failure modes."""

from __future__ import annotations

import pytest

import conftest as gen
from hypothesis import given

from qsc.parser import (
    DanglingReference,
    DuplicateStepId,
    ScriptError,
    ScriptSyntaxError,
    UnknownAtom,
    UnknownRule,
    parse_formula,
    parse_script,
    parse_sequent,
    tokenize,
)
from qsc.render import render
from qsc.syntax import (
    And,
    Atom,
    Ent,
    NULL,
    Par,
    Qubit,
    SymDegree,
    formula_str,
)

A, A_ = Atom("A"), Atom("A", True)
B, B_ = Atom("B"), Atom("B", True)


class TestParseFormula:
    def test_negated_atom(self):
        assert parse_formula("A^") == A_

    def test_degreed_conjunction(self):
        f = parse_formula("A^ &{0.70710678, 0.70710678} A")
        assert f == And(A_, A, (0.70710678 + 0j, 0.70710678 + 0j))

    def test_bell_body(self):
        f = parse_formula("(A # B) & (A^ # B^)")
        assert f == And(Par(A, B), Par(A_, B_))

    def test_precedence_par_binds_tighter_than_and(self):
        assert parse_formula("A # B & A^ # B^") == And(Par(A, B), Par(A_, B_))

    def test_entanglement_is_loosest(self):
        assert parse_formula("Q_A @ Q_B") == Ent(Qubit("A"), Qubit("B"))

    def test_degreed_qubit(self):
        f = parse_formula("Q_C{alpha, beta}")
        assert f == Qubit("C", (SymDegree("alpha"), SymDegree("beta")))

    def test_null(self):
        assert parse_formula("0") is NULL

    def test_complex_degree(self):
        f = parse_formula("A^ &{0.6+0.8i, 1.0} A")
        assert f == And(A_, A, (0.6 + 0.8j, 1.0 + 0j))

    def test_double_negation_unrepresentable(self):
        with pytest.raises(ScriptSyntaxError):
            parse_formula("A^^")

    def test_compound_negation_rejected(self):
        with pytest.raises(ScriptSyntaxError) as exc:
            parse_formula("(A # B)^")
        assert exc.value.span.line == 1

    def test_nested_entanglement_rejected(self):
        with pytest.raises(ScriptSyntaxError):
            parse_formula("(Q_A @ Q_B) @ Q_C")

    def test_unknown_atom_with_declared_set(self):
        with pytest.raises(UnknownAtom):
            parse_formula("D", atoms=("A", "B"))

    def test_a_formula_spans_at_most_256_tokens(self):
        # 255 tokens in two shapes parse, one more parenthesis or term fails
        # at the first atom past the bound
        assert parse_formula("(" * 127 + "A" + ")" * 127) == A
        assert isinstance(parse_formula(" # ".join(["A"] * 128)), Par)
        for text, column in (("(" * 128 + "A" + ")" * 128, 129),
                             (" # ".join(["A"] * 129), 513)):
            with pytest.raises(ScriptSyntaxError) as exc:
                parse_formula(text)
            assert (exc.value.span.line, exc.value.span.column) == (1, column)

    def test_the_bound_is_per_formula(self):
        terms = " # ".join(["A"] * 128)
        assert len(parse_sequent(f"{terms}, {terms} |- {terms}, {terms}").consequent) == 2

    @given(gen.formulas())
    def test_round_trip(self, f):
        assert parse_formula(formula_str(f)) == f


class TestParseSequent:
    def test_empty_sides(self):
        s = parse_sequent("|-")
        assert s.antecedent == () and s.consequent == ()

    def test_degreed_turnstile(self):
        s = parse_sequent("Q_A, Q_C |-{beta} C")
        assert s.degree == SymDegree("beta")
        assert len(s.antecedent) == 2

    def test_both_sides(self):
        s = parse_sequent("B, A |- B, A^")
        assert len(s.antecedent) == 2 and s.consequent[1] == A_


ENT_SCRIPT = """
atoms A B

theorem ent:
  1: |- Q_B, Q_A premise
  2: Q_A |- A^ premise
  3: |- Q_B, A^ by cut[Q_A](1, 2)
  4: |- B, A^ by qsplit[pos](3)
  5: |- B^, A^ by qsplit[neg](3)
  6: |- B, A by cnot[a'](4)
  7: |- Q_B @ Q_A by atform[phi](6, 5)
qed
"""


class TestParseScript:
    def test_ent_script_has_seven_steps(self):
        script = parse_script(ENT_SCRIPT)
        theorem = script.theorem("ent")
        assert len(theorem.steps) == 7
        assert formula_str(theorem.goal.consequent[0]) == "Q_B @ Q_A"

    def test_contraction_is_unknown(self):
        text = ("atoms A\n"
                "theorem t:\n"
                "  1: |- A premise\n"
                "  2: |- A, A by contraction(1)\n"
                "qed\n")
        with pytest.raises(UnknownRule) as exc:
            parse_script(text)
        assert exc.value.span.line == 4

    @pytest.mark.parametrize("banned", ["weakening", "permutation", "exchange"])
    def test_other_structural_rules_unknown(self, banned):
        text = (f"atoms A\ntheorem t:\n  1: |- A premise\n"
                f"  2: |- A by {banned}(1)\nqed\n")
        with pytest.raises(UnknownRule):
            parse_script(text)

    def test_empty_script(self):
        with pytest.raises(ScriptSyntaxError):
            parse_script("")

    def test_duplicate_step_id(self):
        text = ("atoms A\ntheorem t:\n  1: |- A premise\n"
                "  1: |- A^ premise\nqed\n")
        with pytest.raises(DuplicateStepId):
            parse_script(text)

    def test_forward_reference_rejected(self):
        text = ("atoms A\ntheorem t:\n  1: |- A by hrule(2)\n"
                "  2: |- A^ premise\nqed\n")
        with pytest.raises(DanglingReference):
            parse_script(text)

    def test_undeclared_atom(self):
        text = "atoms A\ntheorem t:\n  1: |- D premise\nqed\n"
        with pytest.raises(UnknownAtom):
            parse_script(text)

    def test_reserved_prefix(self):
        with pytest.raises(ScriptSyntaxError):
            parse_script("atoms Q_A\ntheorem t:\n  1: |- Q_A premise\nqed\n")

    def test_comments_ignored(self):
        text = ("-- leading note\natoms A  -- trailing\n"
                "theorem t:\n  1: |- A premise\nqed\n")
        script = parse_script(text)
        assert script.atoms == ("A",)

    def test_every_error_carries_a_span(self):
        bad = ["atoms", "atoms A theorem", "atoms A theorem t:",
               "atoms A theorem t: 1: premise qed",
               "atoms A theorem t: 1: |- A by qed",
               "atoms A theorem t: 1: |- A & premise qed"]
        for text in bad:
            with pytest.raises(ScriptError) as exc:
                parse_script(text)
            span = exc.value.span
            assert span.line >= 1 and span.column >= 1


class TestRender:
    def test_leaf_shows_rule_in_brackets(self):
        script = parse_script("atoms A\ntheorem t:\n  1: A |- A by axiom()\nqed\n")
        out = render(script.theorems[0].derivation, "ascii")
        assert out.startswith("A |- A") and "[axiom]" in out

    def test_parallel_cut_layout(self):
        text = ("atoms A\n"
                "theorem t:\n"
                "  1: |- A & A^ premise\n"
                "  2: A |- A by axiom()\n"
                "  3: A & A^ |- A by andrefl(2)\n"
                "  4: |- A by cut[A & A^](1, 3)\n"
                "  5: A^ |- A^ by axiom()\n"
                "  6: A & A^ |- A^ by andrefl(5)\n"
                "  7: |- A^ by cut[A & A^](1, 6)\n"
                "  8: |- A & A^ by parallel[and](4, 7)\n"
                "qed\n")
        out = render(parse_script(text).theorems[0].derivation, "ascii")
        lines = out.splitlines()
        assert lines[-1].strip() == "|- A & A^"
        assert "&R" in lines[-2]
        assert out.count(" cut") == 2
        assert "&L" in out

    def test_linear_round_trip_on_scripts(self):
        script = parse_script(ENT_SCRIPT)
        tree = script.theorems[0].derivation
        again = parse_script(render(tree, "linear"))
        assert again.theorems[0].derivation == tree

    def test_unknown_style(self):
        script = parse_script("atoms A\ntheorem t:\n  1: |- A premise\nqed\n")
        with pytest.raises(ValueError):
            render(script.theorems[0].derivation, "fancy")


class TestTokenizer:
    def test_spans_track_lines_and_columns(self):
        tokens = tokenize("atoms A\n  1: |- A^")
        token_map = {t.text: t.span for t in tokens if t.text}
        assert token_map["atoms"].line == 1 and token_map["atoms"].column == 1
        assert token_map["|-"].line == 2 and token_map["|-"].column == 6

    def test_unexpected_character(self):
        with pytest.raises(ScriptSyntaxError) as exc:
            tokenize("atoms A $")
        assert exc.value.span.column == 9

    # (kind, text, line, column, length) per token, or the error's message;
    # recorded from the character-loop tokenizer this one replaced, except
    # that the EOF after a trailing comment now sits at the end of input.
    @pytest.mark.parametrize("text, expected", [
        ("-5", [("NUM", "-5", 1, 1, 2), ("EOF", "", 1, 3, 0)]),
        ("+.5", [("NUM", "+.5", 1, 1, 3), ("EOF", "", 1, 4, 0)]),
        ("2i", [("NUM", "2i", 1, 1, 2), ("EOF", "", 1, 3, 0)]),
        ("0.6+0.8i", [("NUM", "0.6+0.8i", 1, 1, 8), ("EOF", "", 1, 9, 0)]),
        ("1e-3", [("NUM", "1e-3", 1, 1, 4), ("EOF", "", 1, 5, 0)]),
        ("A -- note\nB", [("IDENT", "A", 1, 1, 1), ("IDENT", "B", 2, 1, 1),
                          ("EOF", "", 2, 2, 0)]),
        ("A -- note", [("IDENT", "A", 1, 1, 1), ("EOF", "", 1, 10, 0)]),
        ("x -", "1:3: unexpected character '-'"),
        ("x +", "1:3: unexpected character '+'"),
        ("x .", "1:3: unexpected character '.'"),
        ("x |", "1:3: unexpected character '|'"),
        ("\tA\rB", [("IDENT", "A", 1, 2, 1), ("IDENT", "B", 1, 4, 1),
                    ("EOF", "", 1, 5, 0)]),
        ("Q_C{alpha,beta}", [("IDENT", "Q_C", 1, 1, 3), ("PUNCT", "{", 1, 4, 1),
                             ("IDENT", "alpha", 1, 5, 5), ("PUNCT", ",", 1, 10, 1),
                             ("IDENT", "beta", 1, 11, 4), ("PUNCT", "}", 1, 15, 1),
                             ("EOF", "", 1, 16, 0)]),
    ])
    def test_tokens_spans_and_errors(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(ScriptSyntaxError) as exc:
                tokenize(text)
            assert str(exc.value) == expected
        else:
            assert [(t.kind, t.text, t.span.line, t.span.column, t.span.length)
                    for t in tokenize(text)] == expected
