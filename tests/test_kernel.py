"""Rule checkers and the derivation-tree driver."""

from __future__ import annotations

import math

import pytest

from qsc.kernel import (
    Derivation,
    LogicMode,
    check_andform,
    check_andrefl,
    check_ataxiom,
    check_atexplrefl,
    check_atform,
    check_atimplrefl,
    check_cnot,
    check_cut,
    check_derivation,
    check_epr,
    check_hinverse,
    check_hrule,
    check_negform,
    check_negrefl,
    check_node,
    check_parallel,
    check_parform,
    check_qsplit,
    check_semidistrib,
)
from qsc.parser import parse_script, parse_sequent, script_labels
from qsc.syntax import Atom, Par, Qubit, Sequent

BASIC = LogicMode.BASIC
INTU = LogicMode.INTUITIONISTIC_LEFT


def sq(text):
    return parse_sequent(text)


# ---------------------------------------------------------------------------
# Cut

class TestCut:
    def test_collapses_cat_to_one(self):
        v = check_cut(sq("|- A & A^"), sq("A & A^ |- A"), sq("|- A"), BASIC, ())
        assert v.ok

    def test_collapses_cat_to_zero(self):
        v = check_cut(sq("|- A & A^"), sq("A & A^ |- A^"), sq("|- A^"), BASIC, ())
        assert v.ok

    def test_active_context_rejected_in_basic(self):
        v = check_cut(sq("X |- A"), sq("Y, A |- B"), sq("X, Y |- B"), BASIC, ())
        assert not v.ok and v.code == "VisibilityViolation"

    def test_active_context_admitted_intuitionistically(self):
        v = check_cut(sq("X |- A"), sq("Y, A |- B"), sq("X, Y |- B"), INTU, ())
        assert v.ok

    def test_mode_difference_is_exactly_the_left_context(self):
        # instances without a right-premise context behave identically
        cases = [
            (sq("|- A & A^"), sq("A & A^ |- A"), sq("|- A")),
            (sq("|- Q_B, Q_A"), sq("Q_A |- A^"), sq("|- Q_B, A^")),
            (sq("X |- A"), sq("Y, A |- B"), sq("X, Y |- B")),
            (sq("X |- A"), sq("A |- B"), sq("X |- B")),
        ]
        for left, right, conclusion in cases:
            basic = check_cut(left, right, conclusion, BASIC, ())
            intu = check_cut(left, right, conclusion, INTU, ())
            context = len(right.antecedent) > 1
            if basic.ok:
                assert intu.ok
            if intu.ok and not basic.ok:
                assert context and basic.code == "VisibilityViolation"

    def test_passive_right_context_on_left_premise(self):
        v = check_cut(sq("|- Q_B, Q_A"), sq("Q_A |- A^"), sq("|- Q_B, A^"),
                      BASIC, (Qubit("A"),))
        assert v.ok

    def test_cut_formula_mismatch(self):
        v = check_cut(sq("|- B"), sq("A |- A"), sq("|- A"), BASIC, (Atom("A"),))
        assert not v.ok and v.code == "CutFormulaMismatch"

    def test_conclusion_mismatch(self):
        v = check_cut(sq("|- A & A^"), sq("A & A^ |- A"), sq("|- A^"), BASIC, ())
        assert not v.ok and v.code == "ConclusionMismatch"

    def test_collapse_inside_entanglement(self):
        v = check_cut(sq("|- Q_A @ Q_B"), sq("Q_A |- A"), sq("|- A @ Q_B"),
                      BASIC, ())
        assert v.ok

    def test_joint_measurement_carries_degree(self):
        v = check_cut(sq("|- (Q_A @ Q_B), Q_C{alpha, beta}"),
                      sq("Q_A, Q_C |-{beta} C"),
                      sq("|-{beta} C @ Q_B"), BASIC, ())
        assert v.ok

    # A cut whose right premise is a measurement passes with the projection
    # that premise denotes; any other cut passes with no state reading.

    def test_measurement_zero_outcome(self):
        v = check_cut(sq("|- Q_A"), sq("Q_A |- A^"), sq("|- A^"), BASIC, ())
        assert v.ok and v.action == ("project", ("A",), 0)

    def test_measurement_one_outcome(self):
        v = check_cut(sq("|- Q_A"), sq("Q_A |- A"), sq("|- A"), BASIC, ())
        assert v.ok and v.action == ("project", ("A",), 1)

    def test_measurement_expanded_qubit_spelling(self):
        v = check_cut(sq("|- A & A^"), sq("A & A^ |- A"), sq("|- A"), BASIC, ())
        assert v.ok and v.action == ("project", ("A",), 1)

    def test_joint_measurement_projects_both_wires(self):
        v = check_cut(sq("|- (Q_A @ Q_B), Q_C{alpha, beta}"),
                      sq("Q_A, Q_C |-{beta} C"),
                      sq("|-{beta} C @ Q_B"), BASIC, ())
        assert v.ok and v.action == ("project", ("A", "C"), 1)

    @pytest.mark.parametrize("left, right, conclusion", [
        ("|- Q_A", "Q_A |- B^", "|- B^"),
        ("|- A", "A |- A", "|- A"),
        ("|- Q_A{0.6,0.8}", "Q_A{0.6,0.8} |- A", "|- A"),
    ], ids=["other-wire", "axiom", "degreed"])
    def test_cut_that_is_not_a_measurement_has_no_action(self, left, right, conclusion):
        v = check_cut(sq(left), sq(right), sq(conclusion), BASIC, ())
        assert v.ok and v.action == ()


# ---------------------------------------------------------------------------
# Conjunction rules

class TestAnd:
    def test_formation_with_degrees(self):
        p1 = sq("X |-{0.7071067811865476} A^")
        p2 = sq("X |-{0.7071067811865476} A")
        v = check_andform((p1, p2),
                          sq("X |- A^ &{0.7071067811865476, 0.7071067811865476} A"))
        assert v.ok

    def test_reflection(self):
        v = check_andrefl(sq("A |- A"), sq("A & A^ |- A"), BASIC)
        assert v.ok

    def test_reflection_accepts_qubit_spelling(self):
        v = check_andrefl(sq("A^ |- A^"), sq("Q_A |- A^"), BASIC)
        assert v.ok

    def test_reflection_of_a_degreed_premise_is_refused(self):
        script = parse_script("atoms A\ntheorem t:\n  1: A |-{0.5} A premise\n"
                              "  2: Q_A |- A by andrefl(1)\nqed\n")
        report = check_derivation(script.theorems[0].derivation, BASIC, script_labels(script))
        assert [(e.path, e.verdict.code, e.verdict.message) for e in report.entries] == [
            ("t:1", "ok", "hypothesis"),
            ("t:2", "SchemaMismatch", "conjunction reflection is undegreed")]

    def test_formation_context_mismatch(self):
        v = check_andform((sq("X |- A^"), sq("Y |- A")), sq("X |- A^ & A"))
        assert not v.ok and v.code == "ContextMismatch"

    def test_formation_mixed_degrees(self):
        v = check_andform((sq("|-{0.5} A^"), sq("|- A")), sq("|- A^ & A"))
        assert not v.ok and v.code == "DegreeMismatch"

    def test_reflection_context_needs_intuitionistic_mode(self):
        premise, conclusion = sq("X, A |- A"), sq("X, A & A^ |- A")
        assert check_andrefl(premise, conclusion, BASIC).code == "VisibilityViolation"
        assert check_andrefl(premise, conclusion, INTU).ok

    def test_formation_joins_one_position_of_a_pair(self):
        v = check_andform((sq("|- B, A"), sq("|- B, A^")), sq("|- B, A & A^"))
        assert v.ok
        v = check_andform((sq("|- B, A"), sq("|- B, A & A^")), sq("|- B, A"))
        assert not v.ok

    def test_formation_rejects_two_differing_positions(self):
        v = check_andform((sq("|- B, A"), sq("|- B^, A^")), sq("|- B & B^, A & A^"))
        assert not v.ok and v.code == "ContextMismatch"


# ---------------------------------------------------------------------------
# Entanglement rules

class TestAt:
    def test_formation_phi(self):
        v = check_atform((sq("|- A, B"), sq("|- A^, B^")), sq("|- Q_A @ Q_B"), ())
        assert v.ok and "phi" in v.message

    def test_formation_psi(self):
        # @ has the one reading phi: premises of opposite polarities, which
        # would pair as psi, do not form Q_A @ Q_B
        v = check_atform((sq("|- A^, B"), sq("|- A, B^")), sq("|- Q_A @ Q_B"), ())
        assert not v.ok and v.code == "SchemaMismatch"
        v = check_atform((sq("|- A^, B"), sq("|- A, B^")), sq("|- Q_A @ Q_B"), ("psi",))
        assert not v.ok and v.code == "SchemaMismatch"

    def test_implicit_reflection(self):
        node = Derivation("atimplrefl", sq("|- A, B"),
                          (Derivation("premise", sq("|- Q_A @ Q_B")),), ("pos",))
        assert check_node(node, BASIC).ok

    @pytest.mark.parametrize("premise, wires", [("|- Q_A @ Q_B", ("A", "B")),
                                                ("|- Q_B @ Q_A", ("B", "A"))])
    @pytest.mark.parametrize("branch, bit, literal", [("pos", 1, "{}"), ("neg", 0, "{}^")])
    def test_implicit_reflection_projects_the_premises_wires_in_order(
            self, premise, wires, branch, bit, literal):
        # a projection onto one bit on every wire is order-free in the state
        # model, so only the action itself pins the stated order
        for order in (wires, wires[::-1]):
            conclusion = sq("|- " + ", ".join(literal.format(w) for w in order))
            v = check_atimplrefl(sq(premise), conclusion, (branch,))
            assert v.ok and v.action == ("project", wires, bit), (premise, conclusion)

    @pytest.mark.parametrize("premises, conclusion, message", [
        (("|- A, B & B^", "|- A^, B^"), "|- Q_A @ Q_B",
         "premises must assert complementary literal pairs of matching polarities (phi)"),
        (("|- A, B", "|- A^, C^"), "|- Q_A @ Q_B",
         "premises must assert complementary literal pairs of matching polarities (phi)"),
        (("|- A, A", "|- A^, A^"), "|- Q_A @ Q_A",
         "premises must assert complementary literal pairs of matching polarities (phi)"),
        (("|-{0.6} A, B", "|- A^, B^"), "|- Q_A @ Q_B",
         "either both premises carry a degree or neither"),
        (("|- A, B", "|- A^, B^"), "|- Q_A @ Q_B, A",
         "the @-formation conclusion asserts the entangled pair alone"),
        (("|- A, B", "|- A^, B^"), "|-", "conclusion must assert the entangled pair"),
        (("|- A, B", "|- A^, B^"), "|-{0.6} Q_A @ Q_B",
         "conclusion must assert the entangled pair"),
    ], ids=["not-literals", "other-wires", "one-wire", "one-degree", "extra-formula",
            "empty", "degreed"])
    def test_formation_failures(self, premises, conclusion, message):
        v = check_atform(tuple(map(sq, premises)), sq(conclusion), ())
        assert not v.ok and v.message == message

    @pytest.mark.parametrize("conclusion", ["Q_A @ Q_B |- A, B", "Q_A @ Q_B |- A^, B^",
                                            "Q_B @ Q_A |- A, B"])
    def test_axiom(self, conclusion):
        v = check_ataxiom(Derivation("ataxiom", sq(conclusion)))
        assert v.ok and v.action == ()

    @pytest.mark.parametrize("conclusion, message", [
        ("Q_A, Q_B |- A, B", "@-axiom has the shape 'Q_X @ Q_Y |- x, y'"),
        ("Q_A @ Q_B |- A", "@-axiom has the shape 'Q_X @ Q_Y |- x, y'"),
        ("Q_A # Q_B |- A, B", "@-axiom has the shape 'Q_X @ Q_Y |- x, y'"),
        ("Q_A @ Q_B |- A & A^, B", "@-axiom has the shape 'Q_X @ Q_Y |- x, y'"),
        ("A @ Q_B |- A, B", "@-axiom requires both parties entangled"),
        ("Q_A @ Q_B |- A, C", "@-axiom literals must name the entangled wires"),
    ], ids=["two-assumptions", "one-literal", "par", "not-a-literal", "collapsed-party",
            "other-wire"])
    def test_axiom_failures(self, conclusion, message):
        v = check_ataxiom(Derivation("ataxiom", sq(conclusion)))
        assert not v.ok and v.code == "SchemaMismatch" and v.message == message

    @pytest.mark.parametrize("premises, conclusion", [
        (("A |- X", "B |- Y"), "Q_A @ Q_B |- X, Y"),
        (("A^ |- X", "B^ |- Y"), "Q_A @ Q_B |- X, Y"),
        (("A |- X", "B |- Y"), "Q_B @ Q_A |- X, Y"),
    ])
    def test_explicit_reflection(self, premises, conclusion):
        v = check_atexplrefl(tuple(map(sq, premises)), sq(conclusion))
        assert v.ok and v.action == ()

    @pytest.mark.parametrize("premises, conclusion, message", [
        (("A |- X", "B^ |- Y"), "Q_A @ Q_B |- X, Y",
         "explicit @-reflection takes same-polarity literal assumptions"),
        (("A |- X", "A |- Y"), "Q_A @ Q_A |- X, Y",
         "explicit @-reflection takes same-polarity literal assumptions"),
        (("A, C |- X", "B |- Y"), "Q_A @ Q_B |- X, Y",
         "explicit @-reflection takes same-polarity literal assumptions"),
        (("A |- X", "B |- Y"), "Q_A @ Q_B |- Y, X",
         "stated 'Q_A @ Q_B |- Y, X' does not match schema conclusion 'Q_A @ Q_B |- X, Y'"),
    ], ids=["polarities", "one-wire", "context", "swapped-consequents"])
    def test_explicit_reflection_failures(self, premises, conclusion, message):
        v = check_atexplrefl(tuple(map(sq, premises)), sq(conclusion))
        assert not v.ok and v.code == "SchemaMismatch" and v.message == message

    def test_extra_right_qubit_is_a_context_violation(self):
        # the gate behind non-associativity of @: a third qubit on the
        # right of the formation premises acts as a context
        v = check_atform((sq("|- A, B, Q_C"), sq("|- A^, B^, Q_C")),
                         sq("|- Q_A @ Q_B, Q_C"), ())
        assert not v.ok and v.code == "VisibilityViolation"

    def test_semidistrib_mixed_form(self):
        assert check_semidistrib(sq("|- A @ Q_B"), sq("|- A, B")).ok
        assert check_semidistrib(sq("|-{beta} C @ Q_B"), sq("|-{beta} C, B")).ok

    def test_semidistrib_requires_collapsed_party(self):
        v = check_semidistrib(sq("|- Q_A @ Q_B"), sq("|- A, B"))
        assert not v.ok and v.code == "SchemaMismatch"


# ---------------------------------------------------------------------------
# Qubit split

class TestQSplit:
    def test_branches_with_explicit_axioms(self):
        premises = (sq("|- Q_B, A^"), sq("Q_B |- B"), sq("Q_B |- B^"))
        assert check_qsplit(premises, sq("|- B, A^"), ("pos",)).ok
        assert check_qsplit(premises, sq("|- B^, A^"), ("neg",)).ok

    def test_single_premise_form(self):
        assert check_qsplit((sq("|- Q_B, A^"),), sq("|- B, A^"), ("pos",)).ok

    def test_wrong_axioms_rejected(self):
        premises = (sq("|- Q_B, A^"), sq("Q_B |- B"), sq("Q_A |- A^"))
        v = check_qsplit(premises, sq("|- B, A^"), ("pos",))
        assert not v.ok and v.code == "SchemaMismatch"

    WRONG_AXIOMS = (False, "SchemaMismatch", "expected the two reflection axioms "
                    "'Q_B |- B' and 'Q_B |- B^'", ())

    @pytest.mark.parametrize("axioms, expected", [
        (("Q_B |-{0.5} B", "Q_B |- B^"), WRONG_AXIOMS),
        (("Q_B, Q_A |- B", "Q_B |- B^"), WRONG_AXIOMS),
        (("Q_B |- B # A", "Q_B |- B^"), WRONG_AXIOMS),
        (("Q_B |- Q_B", "Q_B |- B^"), WRONG_AXIOMS),
        (("|- B", "Q_B |- B^"), WRONG_AXIOMS),
        (("Q_B |- B", "Q_B |- B"),
         (False, "SchemaMismatch", "both reflection axioms are required", ())),
        (("Q_B{0.6, 0.8} |- B", "Q_B |- B^"), (True, "ok", "", ("project", ("B",), 1))),
    ], ids=["degreed-sequent", "two-qubit-antecedent", "non-literal-consequent",
            "qubit-consequent", "no-antecedent", "one-polarity", "degreed-qubit"])
    def test_explicit_axiom_verdicts(self, axioms, expected):
        premises = (sq("|- Q_B, A^"), *map(sq, axioms))
        v = check_qsplit(premises, sq("|- B, A^"), ("pos",))
        assert (v.ok, v.code, v.message, v.action) == expected


# ---------------------------------------------------------------------------
# Structural rules

class TestStructural:
    def test_h_on_one_gives_antisymmetric_cat(self):
        v = check_hrule(sq("|- A"),
                        sq("|- A^ &{0.7071067811865476, -0.7071067811865476} A"))
        assert v.ok

    def test_h_wrong_degrees(self):
        v = check_hrule(sq("|- A"),
                        sq("|- A^ &{0.7071067811865476, 0.7071067811865476} A"))
        assert not v.ok and v.code == "WrongDegrees"

    def test_h_inverse_both_ways(self):
        plus = sq("|- A^ &{0.7071067811865476, 0.7071067811865476} A")
        minus = sq("|- A^ &{0.7071067811865476, -0.7071067811865476} A")
        assert check_hinverse(plus, sq("|- A^")).ok
        assert check_hinverse(minus, sq("|- A")).ok

    @pytest.mark.parametrize("premise,conclusion,clause", [
        ("|- B, A", "|- B, A^", "a"),
        ("|- B^, A", "|- B^, A", "b"),
        ("|- B, A^", "|- B, A", "a'"),
        ("|- B^, A^", "|- B^, A^", "b'"),
    ])
    def test_cnot_clauses(self, premise, conclusion, clause):
        assert check_cnot(sq(premise), sq(conclusion), (clause,)).ok

    def test_cnot_wrong_flip(self):
        v = check_cnot(sq("|- B, A"), sq("|- B, A"), ())
        assert not v.ok and v.code == "SchemaMismatch"

    def test_cnot_clause_label_checked(self):
        v = check_cnot(sq("|- B, A"), sq("|- B, A^"), ("b",))
        assert not v.ok

    def test_par_of_a_qubit_with_infinite_degrees(self):
        # the parser refuses such a degree, but a tree built in Python has it
        q, b = Qubit("A", (math.inf, math.inf)), Atom("B")
        v = check_parform(Sequent((), (q, b)), Sequent((), (Par(q, b),)), ())
        assert v.ok and v.action == ("keep",)


# ---------------------------------------------------------------------------
# Negation moves

class TestNeg:
    def test_negation_formation(self):
        assert check_negform(sq("B, A |-"), sq("|- B, A^"), ("A",)).ok

    def test_full_negation_move(self):
        assert check_negform(sq("B, A |-"), sq("|- B^, A^"), ("A", "B")).ok

    def test_negation_reflection(self):
        assert check_negrefl(sq("|- B, A^"), sq("B^, A |-"), ("A", "B")).ok

    def test_compound_rejected(self):
        v = check_negform(sq("A # B |-"), sq("|- A # B"), ())
        assert not v.ok and v.code == "SchemaMismatch"


# ---------------------------------------------------------------------------
# EPR macro

class TestEpr:
    def test_macro_positive_branch(self):
        v = check_epr(sq("|- Q_A @ Q_B"), sq("Q_A |- A"), sq("|- A # B"))
        assert v.ok

    def test_macro_negative_branch(self):
        v = check_epr(sq("|- Q_A @ Q_B"), sq("Q_A |- A^"), sq("|- A^ # B^"))
        assert v.ok

    def test_separable_premise_rejected(self):
        v = check_epr(sq("|- Q_A, Q_B"), sq("Q_A |- A"), sq("|- A # B"))
        assert not v.ok and v.code == "SchemaMismatch"

    def test_macro_verdict_equals_hand_expansion(self):
        macro = parse_script(
            "atoms A B\n"
            "theorem m:\n"
            "  1: |- Q_A @ Q_B premise\n"
            "  2: Q_A |- A premise\n"
            "  3: |- A # B by epr(1, 2)\n"
            "qed\n")
        expanded = parse_script(
            "atoms A B\n"
            "theorem e:\n"
            "  1: |- Q_A @ Q_B premise\n"
            "  2: Q_A |- A premise\n"
            "  3: |- A @ Q_B by cut(1, 2)\n"
            "  4: |- A, B by semidistrib(3)\n"
            "  5: |- A # B by parform(4)\n"
            "qed\n")
        for mode in (BASIC, INTU):
            m = check_derivation(macro.theorems[0].derivation, mode)
            e = check_derivation(expanded.theorems[0].derivation, mode)
            assert m.ok == e.ok is True


# One row per measurement shape that cut and EPR must tell apart: the rule,
# its two premises, the stated conclusion and the (ok, code, message,
# action) of the verdict.
NO_CUT_FORMULA = "cannot identify a unique cut formula; name it explicitly"
MEASUREMENTS = [
    pytest.param("cut", "|- Q_A @ Q_B", "Q_A, Q_C |- C", "|- C @ Q_B",
                 (False, "CutFormulaMismatch", NO_CUT_FORMULA, ()),
                 id="joint-without-spectator"),
    pytest.param("cut", "|- (Q_A @ Q_B), Q_A", "Q_A, Q_A |- A", "|- A @ Q_B",
                 (True, "ok", "", ("project", ("A", "A"), 1)),
                 id="joint-both-on-the-outcome-wire"),
    pytest.param("cut", "|- (Q_B @ Q_D), (Q_A @ Q_E), Q_C{alpha, beta}",
                 "Q_A, Q_C |-{beta} C", "|-{beta} (Q_B @ Q_D), (C @ Q_E)",
                 (True, "ok", "", ("project", ("A", "C"), 1)),
                 id="joint-into-the-second-ent"),
    pytest.param("cut", "|- (Q_A @ Q_B), Q_A", "Q_A |- A", "|- (Q_A @ Q_B), A",
                 (True, "ok", "", ("project", ("A",), 1)),
                 id="measured-qubit-also-on-the-left-is-a-standard-cut"),
    pytest.param("cut", "|- Q_A{0.6, 0.8} @ Q_B", "Q_A{0.6, 0.8} |- A", "|- A @ Q_B",
                 (True, "ok", "", ()),
                 id="degreed-measured-qubit"),
    pytest.param("cut", "|- Q_A @ Q_B", "Q_C |- C", "|- C @ Q_B",
                 (False, "CutFormulaMismatch", NO_CUT_FORMULA, ()),
                 id="collapse-on-neither-party"),
    pytest.param("epr", "|- A^ @ Q_B", "Q_B |- B", "|- B # B",
                 (False, "SchemaMismatch", "semi-distributivity step: "
                  "premise must contain exactly one mixed @ formula", ()),
                 id="epr-on-a-collapsed-pair"),
    pytest.param("epr", "|- Q_A @ Q_B", "Q_A, Q_C |- C", "|- C # B",
                 (False, "SchemaMismatch", "EPR needs an entangled assertion "
                  "and a measurement of one of its parties", ()),
                 id="epr-with-two-measured-qubits"),
    pytest.param("epr", "|- Q_A @ Q_B{0.6, 0.8}", "Q_A |- A", "|- A # B",
                 (True, "ok", "", ("project", ("A",), 1)),
                 id="epr-with-a-degreed-partner"),
    pytest.param("epr", "|- Q_A @ Q_B", "Q_A |- A", "|- A # B^",
                 (False, "ConclusionMismatch",
                  "stated '|- A # B^' does not match schema conclusion '|- A # B'", ()),
                 id="epr-with-a-wrong-conclusion"),
]


@pytest.mark.parametrize("rule, left, right, conclusion, expected", MEASUREMENTS)
def test_measurement_verdicts(rule, left, right, conclusion, expected):
    args = (sq(left), sq(right), sq(conclusion))
    v = check_cut(*args, BASIC, ()) if rule == "cut" else check_epr(*args)
    assert (v.ok, v.code, v.message, v.action) == expected


# ---------------------------------------------------------------------------
# Hypotheses

@pytest.mark.parametrize("consequent, ok", [
    ("A, A^", False),
    ("Q_A, A", False),
    ("Q_A @ Q_B, B", False),
    ("A & A^, B", True),
    ("Q_A @ Q_B, C", True),
    ("A, B^", True),
])
def test_a_hypothesis_asserts_each_wire_once(consequent, ok):
    script = parse_script(f"atoms A B C\ntheorem t:\n  1: |- {consequent} premise\nqed\n")
    report = check_derivation(script.theorems[0].derivation, BASIC, script_labels(script))
    (entry,) = report.entries
    assert entry.path == "t:1" and entry.verdict.ok is ok
    if not ok:
        assert (entry.verdict.code, entry.verdict.message) == (
            "SchemaMismatch", "a hypothesis asserts each wire once")

# ---------------------------------------------------------------------------
# Parallel joins

class TestParallel:
    def test_cat_restored(self):
        v = check_parallel((sq("|- A"), sq("|- A^")), sq("|- A & A^"), ("and",))
        assert v.ok

    def test_h_branches_collapse_to_zero_bit(self):
        plus = sq("|- A^ &{0.7071067811865476, 0.7071067811865476} A")
        minus = sq("|- A^ &{0.7071067811865476, -0.7071067811865476} A")
        v = check_parallel((plus, minus), sq("|- A^"), ("and",))
        assert v.ok

    def test_identical_branches_normalize(self):
        v = check_parallel((sq("|- A"), sq("|- A")), sq("|- A"), ("and",))
        assert v.ok

    def test_join_mismatch(self):
        v = check_parallel((sq("|- A"), sq("|- A^")), sq("|- A & A"), ("and",))
        assert not v.ok and v.code == "JoinMismatch"


# ---------------------------------------------------------------------------
# Tree driver

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


class TestCheckDerivation:
    def test_full_derivation_passes(self):
        script = parse_script(ENT_SCRIPT)
        report = check_derivation(script.theorems[0].derivation, BASIC,
                                  script_labels(script))
        assert report.ok
        assert [e.path for e in report.entries][-1] == "ent:7"

    def test_missing_premise_fails_at_the_cut(self):
        script = parse_script(ENT_SCRIPT)
        tree = script.theorems[0].derivation

        def prune(node):
            if node.rule == "cut":
                return Derivation("cut", node.conclusion, node.premises[:1],
                                  node.params)
            return Derivation(node.rule, node.conclusion,
                              tuple(prune(p) for p in node.premises), node.params)

        report = check_derivation(prune(tree), BASIC)
        assert not report.ok
        bad = [e for e in report.entries if not e.verdict.ok]
        assert bad[0].rule == "cut" and bad[0].verdict.code == "BranchFailure"

    def test_unknown_rule_verdict(self):
        node = Derivation("contraction", Sequent((), (Atom("A"),)))
        assert check_node(node, BASIC).code == "UnknownRule"

    def test_parallel_reports_failing_branch(self):
        good = Derivation("premise", sq("|- A"))
        bad = Derivation("axiom", sq("|- A^"))  # not an axiom shape
        join = Derivation("parallel", sq("|- A & A^"), (good, bad), ("and",))
        report = check_derivation(join, BASIC)
        entries = {e.rule: e for e in report.entries}
        assert not report.ok
        assert entries["parallel"].verdict.code == "BranchFailure"

    def test_basic_pass_set_within_intuitionistic_on_random_trees(self):
        import random

        import conftest as gen

        implications = 0
        for seed in range(300):
            tree = gen.random_tree(random.Random(seed))
            if check_derivation(tree, BASIC).ok:
                assert check_derivation(tree, INTU).ok
                implications += 1
        assert implications > 0  # the property was exercised, not vacuous
