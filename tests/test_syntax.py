"""Formula-level operations: negation, normalization, equivalence."""

from __future__ import annotations

import math

import pytest
from hypothesis import given

import conftest as gen
from qsc.syntax import (
    ALPHA,
    NULL,
    SQRT1_2,
    And,
    Atom,
    Ent,
    NonAtomicNegation,
    Par,
    Qubit,
    Sequent,
    SymDegree,
    degree_eq,
    degree_str,
    equivalent,
    formula_eq,
    negate,
    normalize,
    sequent_equivalent,
)

A = Atom("A")
A_ = Atom("A", negated=True)
B = Atom("B")
B_ = Atom("B", negated=True)
S = complex(SQRT1_2)


class TestNegate:
    def test_toggles_flag(self):
        assert negate(A) == A_

    def test_involutive(self):
        assert negate(negate(A)) == A
        assert negate(A_) == A

    def test_compound_rejected(self):
        with pytest.raises(NonAtomicNegation):
            negate(Par(A, B))

    @given(gen.atoms())
    def test_involution_property(self, atom):
        assert negate(negate(atom)) == atom


class TestNormalize:
    def test_cancellation_to_null(self):
        assert normalize(And(A, A, (S, -S))) is NULL

    def test_idempotence(self):
        assert normalize(And(A_, A_)) == A_

    def test_degree_combination_keeps_proposition(self):
        # the combined amplitude is tracked by the denotation layer
        assert normalize(And(A, A, (0.5 + 0j, 0.25 + 0j))) == A

    def test_complementary_pair_folds_to_qubit(self):
        # Q_A abbreviates A & A^: the fold renames, it does not rewrite
        assert normalize(And(A, A_)) == Qubit("A")
        assert normalize(And(A_, A)) == Qubit("A")

    def test_distinct_wires_untouched(self):
        f = And(A, B)
        assert normalize(f) == f

    def test_degreed_pair_keeps_amplitudes_by_polarity(self):
        folded = normalize(And(A_, A, (0.6 + 0j, 0.8 + 0j)))
        assert folded == Qubit("A", (0.6 + 0j, 0.8 + 0j))
        swapped = normalize(And(A, A_, (0.8 + 0j, 0.6 + 0j)))
        assert swapped == folded

    def test_amplitude_merge_of_two_cats(self):
        plus = Qubit("A", (S, S))
        minus = Qubit("A", (S, -S))
        assert normalize(And(plus, minus)) == A_
        assert normalize(And(minus, plus)) == A_

    def test_ent_operands_ordered_by_wire(self):
        assert normalize(Ent(Qubit("B"), Qubit("A"))) == Ent(Qubit("A"), Qubit("B"))

    def test_a_qubit_with_zero_degrees_is_null(self):
        assert normalize(Qubit("A", (0, 0))) is NULL

    def test_symmetric_degrees_canonicalized(self):
        assert normalize(Qubit("A", (S, S))) == Qubit("A")

    @given(gen.formulas())
    def test_idempotent_property(self, f):
        once = normalize(f)
        assert formula_eq(normalize(once), once)


class TestEquivalent:
    def test_ent_commutative(self):
        assert equivalent(Ent(Qubit("A"), Qubit("B")), Ent(Qubit("B"), Qubit("A")))

    def test_reflexive_on_atom(self):
        assert equivalent(A, A)

    def test_ent_vs_expanded_bell_structurally_distinct(self):
        # the definitional expansion is a semantic identity, not a
        # structural one; see the quantum semantics tests
        bell_body = And(Par(A, B), Par(A_, B_))
        assert not equivalent(Ent(Qubit("A"), Qubit("B")), bell_body)

    def test_qubit_sugar(self):
        assert equivalent(Qubit("A"), And(A, A_))

    @given(gen.formulas())
    def test_reflexive(self, f):
        assert equivalent(f, f)

    @given(gen.formulas(), gen.formulas())
    def test_symmetric(self, f, g):
        assert equivalent(f, g) == equivalent(g, f)

    @given(gen.formulas(), gen.formulas(), gen.formulas())
    def test_transitive(self, f, g, h):
        if equivalent(f, g) and equivalent(g, h):
            assert equivalent(f, h)


class TestSequentEquivalent:
    @pytest.mark.parametrize("s, t, same", [
        (Sequent((), (Ent(Qubit("B"), Qubit("A")), A)),
         Sequent((), (Ent(Qubit("A"), Qubit("B")), A)), True),
        (Sequent((And(A, A_),), (A,)), Sequent((Qubit("A"),), (A,)), True),
        (Sequent((), (A, B)), Sequent((), (B, A)), False),
        (Sequent((A,), (B,)), Sequent((B,), (B,)), False),
        (Sequent((), (A,)), Sequent((), (A, B)), False),
        (Sequent((A,), ()), Sequent((), (A,)), False),
        (Sequent((), (A,), 0.5 + 0j), Sequent((), (A,), 0.5 + 1e-12j), True),
        (Sequent((), (A,), 0.5 + 0j), Sequent((), (A,)), False),
        (Sequent((), (A,), ALPHA), Sequent((), (A,), SymDegree("beta")), False),
    ], ids=["normal-forms", "antecedent-normal-forms", "positions", "antecedents", "lengths",
            "sides", "degree-tolerance", "degree-absent", "symbolic-degrees"])
    def test_compares_normal_forms_position_by_position(self, s, t, same):
        assert sequent_equivalent(s, t) is same
        assert sequent_equivalent(t, s) is same


def test_an_infinite_degree_equals_itself():
    # inf - inf is nan, so equality has to be asked before the difference
    q = Qubit("A", (math.inf, math.inf))
    assert degree_eq(math.inf, math.inf) and degree_eq(complex(math.inf, 1), complex(math.inf, 1))
    assert not degree_eq(math.inf, -math.inf) and not degree_eq(math.inf, 1e308)
    assert equivalent(q, q)
    assert sequent_equivalent(Sequent((), (q, B), math.inf), Sequent((), (q, B), math.inf))


def test_a_nan_degree_equals_nothing():
    q = Qubit("A", (math.nan, math.nan))
    assert not degree_eq(math.nan, math.nan) and not degree_eq(math.nan, 1.0)
    assert not equivalent(q, q)
    assert not sequent_equivalent(Sequent((), (B,), math.nan), Sequent((), (B,), math.nan))


@pytest.mark.parametrize("degree, text", [(2j, "2.0i"), (1 - 2j, "1.0-2.0i")])
def test_degree_str_of_complex_degrees(degree, text):
    assert degree_str(degree) == text


@pytest.mark.parametrize("build", [
    lambda: SymDegree("gamma"),
    lambda: Ent(And(A, B), Qubit("C")),
], ids=["unreserved-symbol", "ent-with-a-conjunction-party"])
def test_malformed_constructions_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
