"""State denotations, operators, soundness replay and the teleport oracle."""

from __future__ import annotations

import numpy as np
import pytest

from qsc.corpus import corpus_text
from qsc.kernel import check_derivation
from qsc.parser import parse_script, parse_sequent, script_labels
from qsc.semantics import (
    CNOT_MATRIX,
    H_MATRIX,
    M0_MATRIX,
    M1_MATRIX,
    NonDenotableSequent,
    NotNormalized,
    QState,
    UnboundSymbolicDegree,
    WireMismatch,
    ZeroState,
    apply,
    combine_parallel,
    denote_assertion,
    entanglement_entropy,
    fidelity,
    residual,
    teleport_oracle,
    tensor,
    verify_soundness,
)
from qsc.syntax import SQRT1_2

S = SQRT1_2
BINDINGS = {"alpha": 0.6 + 0j, "beta": 0.8 + 0j}


def state(wires, amps):
    return QState(tuple(wires), np.array(amps, dtype=complex))


def denote(text, bindings=None):
    return denote_assertion(parse_sequent(text), bindings)


def random_states(n_wires, count, seed):
    rng = np.random.default_rng(seed)
    wires = ("A", "B", "C")[:n_wires]
    for _ in range(count):
        v = rng.normal(size=2 ** n_wires) + 1j * rng.normal(size=2 ** n_wires)
        v /= np.linalg.norm(v)
        yield QState(wires, v)


# ---------------------------------------------------------------------------
# Assertion denotations

class TestDenoteAssertion:
    def test_zero_bit(self):
        s = denote("|- A^")
        assert s.wires == ("A",)
        assert np.array_equal(s.vector(), [1, 0])

    def test_one_bit(self):
        assert np.array_equal(denote("|- A").vector(), [0, 1])

    def test_symmetric_cat(self):
        v = denote("|- A^ &{0.7071067811865476, 0.7071067811865476} A").vector()
        assert np.array_equal(v, [S, S])

    def test_qubit_proposition_defaults_to_the_cat(self):
        assert np.array_equal(denote("|- Q_A").vector(), [S, S])

    def test_separable_pair(self):
        s = denote("|- Q_B, Q_A")
        assert s.wires == ("B", "A")
        assert np.allclose(s.vector(), [0.5, 0.5, 0.5, 0.5])

    def test_entangled_pair(self):
        v = denote("|- Q_B @ Q_A").vector()
        assert np.array_equal(v, [S, 0, 0, S])

    def test_degreed_entangled_pair(self):
        v = denote("|- Q_C{alpha, beta} @ Q_B", BINDINGS).vector()
        assert np.allclose(v, [0.6, 0, 0, 0.8])

    def test_null_cancellation(self):
        v = denote("|- A &{0.7071067811865476, -0.7071067811865476} A").vector()
        assert np.allclose(v, [0, 0])

    def test_degree_scales_the_assertion(self):
        v = denote("|-{beta} C, B", BINDINGS).vector()
        assert np.allclose(v, [0, 0, 0, 0.8])

    def test_unbound_symbol_rejected(self):
        with pytest.raises(UnboundSymbolicDegree):
            denote("|- Q_C{alpha, beta} @ Q_B")

    def test_assumptions_do_not_denote(self):
        with pytest.raises(NonDenotableSequent):
            denote("Q_A |- A^")

    def test_unnormalized_bindings_rejected(self):
        with pytest.raises(NotNormalized):
            denote("|- Q_C{alpha, beta}", {"alpha": 1 + 0j, "beta": 1 + 0j})


# ---------------------------------------------------------------------------
# Operators

class TestOperators:
    def test_h_creates_the_cat(self):
        out = apply(H_MATRIX, ("A",), state("A", [1, 0]))
        assert np.array_equal(out.vector(), [S, S])

    def test_cnot_on_control_cat_makes_a_bell_state(self):
        inp = tensor(state("B", [S, S]), state("A", [1, 0]))
        out = apply(CNOT_MATRIX, ("B", "A"), inp)
        assert np.array_equal(out.vector(), [S, 0, 0, S])

    def test_wire_mismatch(self):
        # a wire the state lacks, and a two-wire matrix on one wire
        for matrix, wires in ((H_MATRIX, ("C",)), (CNOT_MATRIX, ("A",))):
            with pytest.raises(WireMismatch):
                apply(matrix, wires, state("A", [1, 0]))

    def test_h_self_inverse(self):
        assert np.max(np.abs(H_MATRIX @ H_MATRIX - np.eye(2))) <= 1e-12

    def test_unitarity_on_random_states(self):
        for s in random_states(2, 25, seed=1):
            for matrix, wires in ((H_MATRIX, ("A",)), (CNOT_MATRIX, ("A", "B")),
                                  (CNOT_MATRIX, ("B", "A"))):
                assert abs(apply(matrix, wires, s).norm() - s.norm()) <= 1e-12

    def test_h_involution_on_random_states(self):
        for s in random_states(1, 25, seed=3):
            twice = apply(H_MATRIX, ("A",), apply(H_MATRIX, ("A",), s))
            assert np.max(np.abs(twice.vector() - s.vector())) <= 1e-12

    def test_projector_branch_probabilities_sum_to_one(self):
        for s in random_states(3, 25, seed=4):
            for wire in "ABC":
                p0 = apply(M0_MATRIX, (wire,), s).norm() ** 2
                p1 = apply(M1_MATRIX, (wire,), s).norm() ** 2
                assert abs(p0 + p1 - 1.0) <= 1e-12


class TestCombineParallel:
    def test_h_branches_give_back_the_zero_bit(self):
        plus = state("A", [S, S])
        minus = state("A", [S, -S])
        out = combine_parallel(plus, minus)
        assert residual(out, state("A", [1, 0])) <= 1e-9

    def test_bell_plus_psi_is_the_separable_plus_pair(self):
        # expanding (1/sqrt2)(|00>+|11> + |01>+|10>)/sqrt2 by hand gives
        # the quarter-amplitude vector, i.e. |+> on both wires
        phi = state("AB", [S, 0, 0, S])
        psi = state("AB", [0, S, S, 0])
        out = combine_parallel(phi, psi)
        assert np.allclose(out.vector(), [0.5, 0.5, 0.5, 0.5])
        assert abs(fidelity(out, state("AB", [0.5, 0.5, 0.5, 0.5])) - 1) <= 1e-12

    def test_identical_branches_rescale_only(self):
        cat = state("A", [S, S])
        out = combine_parallel(cat, cat)
        assert residual(out, cat) <= 1e-12


class TestFidelityAndEntropy:
    def test_identity(self):
        bell = state("AB", [S, 0, 0, S])
        assert fidelity(bell, bell) == 1.0

    def test_orthogonal(self):
        assert fidelity(state("A", [1, 0]), state("A", [0, 1])) == 0.0

    def test_bell_vs_plus_pair_is_half(self):
        # hand expansion: <bell|++> = (1/sqrt2)(1/2 + 1/2) = 1/sqrt2
        bell = state("AB", [S, 0, 0, S])
        plus_pair = state("AB", [0.5, 0.5, 0.5, 0.5])
        assert abs(fidelity(bell, plus_pair) - 0.5) <= 1e-12

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroState):
            fidelity(state("A", [0, 0]), state("A", [1, 0]))

    def test_entropy_of_bell_wire_is_one_bit(self):
        bell = state("AB", [S, 0, 0, S])
        assert abs(entanglement_entropy(bell, "A") - 1.0) <= 1e-9

    def test_entropy_of_product_state_is_zero(self):
        product = state("AB", [0.5, 0.5, 0.5, 0.5])
        assert entanglement_entropy(product, "A") <= 1e-12


# ---------------------------------------------------------------------------
# Algebraic identities at the denotation level

class TestSemanticIdentities:
    def test_semi_distributivity_exact(self):
        ent = denote("|- Q_A @ Q_B")
        expanded = denote("|- (A # B) & (A^ # B^)")
        assert ent.wires == expanded.wires
        assert np.array_equal(ent.vector(), expanded.vector())

    def test_at_commutativity_after_alignment(self):
        ab = denote("|- Q_A @ Q_B")
        ba = denote("|- Q_B @ Q_A")
        assert abs(fidelity(ab, ba) - 1.0) <= 1e-12

    def test_mixed_form_equals_pair_assertion(self):
        assert residual(denote("|- A @ Q_B"), denote("|- A, B")) <= 1e-12


# ---------------------------------------------------------------------------
# Soundness replay

class TestVerifySoundness:
    def test_cut_branch_matches_projection(self):
        script = parse_script(
            "atoms A\n"
            "theorem t:\n"
            "  1: |- A & A^ premise\n"
            "  2: A |- A by axiom()\n"
            "  3: A & A^ |- A by andrefl(2)\n"
            "  4: |- A by cut[A & A^](1, 3)\n"
            "qed\n")
        tree = script.theorems[0].derivation
        assert check_derivation(tree).ok
        report = verify_soundness(tree)
        assert report.ok and report.max_residual == 0.0

    def test_tolerance_breach_detected(self):
        # degrees perturbed by ~5e-10 slip through the structural degree
        # tolerance but leave a semantic residual a strict bound flags
        script = parse_script(
            "atoms A\n"
            "theorem t:\n"
            "  1: |- A^ premise\n"
            "  2: |- A^ &{0.7071067811865476, 0.7071067807} A by hrule(1)\n"
            "qed\n")
        tree = script.theorems[0].derivation
        assert check_derivation(tree).ok
        assert verify_soundness(tree).ok
        strict = verify_soundness(tree, tol=1e-12)
        assert not strict.ok and strict.max_residual > 1e-12

    def test_teleportation_branch_states(self):
        script = parse_script(
            "atoms A B C\n"
            "theorem t:\n"
            "  1: |- (Q_A @ Q_B), Q_C{alpha, beta} premise\n"
            "  2: Q_A, Q_C |-{beta} C premise\n"
            "  3: |-{beta} C @ Q_B by cut(1, 2)\n"
            "  4: |-{beta} C, B by semidistrib(3)\n"
            "qed\n")
        tree = script.theorems[0].derivation
        assert check_derivation(tree).ok
        report = verify_soundness(tree, bindings=BINDINGS)
        assert report.ok
        # the degreed branch assertion denotes the beta-weighted branch
        branch = denote("|-{beta} C, B", BINDINGS)
        assert np.allclose(branch.vector(), [0, 0, 0, 0.8])

    def test_unnormalized_bindings_are_error_entries(self):
        script = parse_script(corpus_text("tel.qsc"))
        report = verify_soundness(script.theorems[0].derivation,
                                  bindings={"alpha": 0.6, "beta": 0.9},
                                  labels=script_labels(script))
        errors = [e for e in report.entries if e.kind == "error"]
        assert not report.ok and report.check_ok and errors
        assert all(e.note.startswith("NotNormalized: ") for e in errors)


# ---------------------------------------------------------------------------
# Teleportation oracle

class TestTeleportOracle:
    def test_basis_input(self):
        for o in teleport_oracle(1, 0):
            assert abs(o.probability - 0.25) <= 1e-9
            assert abs(o.fidelity - 1.0) <= 1e-9
            assert abs(o.bob_state[1]) <= 1e-9 or abs(abs(o.bob_state[0]) - 1) <= 1e-9

    def test_symmetric_input(self):
        for o in teleport_oracle(S, S):
            assert abs(o.probability - 0.25) <= 1e-9
            assert abs(o.fidelity - 1.0) <= 1e-9

    def test_asymmetric_input(self):
        outcomes = teleport_oracle(0.6, 0.8)
        assert len(outcomes) == 4
        assert {o.bell_outcome for o in outcomes} == {"phi+", "phi-", "psi+", "psi-"}
        for o in outcomes:
            assert abs(o.probability - 0.25) <= 1e-9
            assert abs(o.fidelity - 1.0) <= 1e-9

    def test_complex_amplitudes(self):
        for o in teleport_oracle(0.6j, 0.8):
            assert abs(o.fidelity - 1.0) <= 1e-9

    def test_normalization_enforced(self):
        with pytest.raises(NotNormalized):
            teleport_oracle(1, 1)
