"""State denotations, operators, soundness replay and the teleport oracle."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import ladder
from qsc.corpus import corpus_text
from qsc.kernel import check_derivation
from qsc.parser import parse_script, parse_sequent, script_labels
from qsc.semantics import (
    CNOT_MATRIX,
    DEFAULT_TOL,
    H_MATRIX,
    M0_MATRIX,
    M1_MATRIX,
    MAX_WIRES,
    ZERO_NORM,
    NonDenotableSequent,
    NotNormalized,
    QState,
    UnboundSymbolicDegree,
    WireMismatch,
    ZeroState,
    _product,
    _unit,
    apply,
    combine_parallel,
    denote_assertion,
    entanglement_entropy,
    fidelity,
    predict,
    residual,
    teleport_oracle,
    verify_soundness,
)
from qsc.syntax import SQRT1_2, Atom, Ent, Qubit, Sequent

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

    def test_degrees_on_the_right_party_weight_the_pair(self):
        s = denote("|- Q_A @ Q_B{0.6, 0.8}")
        assert s.wires == ("A", "B")
        assert np.allclose(s.vector(), [0.6, 0, 0, 0.8])

    def test_a_zero_branch_on_other_wires_cannot_align(self):
        with pytest.raises(WireMismatch) as exc:
            denote("|- A & Q_B{0, 0}")
        assert str(exc.value) == "cannot align ('B',) to ('A',)"

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
        inp = state("BA", [S, 0, S, 0])
        out = apply(CNOT_MATRIX, ("B", "A"), inp)
        assert np.array_equal(out.vector(), [S, 0, 0, S])

    @pytest.mark.parametrize("wires, amps, message", [
        (("A",), [1, 0, 0], "3 amplitudes for 1 wires"),
        (("A", "A"), [1, 0, 0, 0], "duplicate wire names in ('A', 'A')"),
    ], ids=["amplitude-count", "repeated-wire"])
    def test_a_state_has_one_amplitude_per_basis_state_and_distinct_wires(
            self, wires, amps, message):
        with pytest.raises(WireMismatch) as exc:
            state(wires, amps)
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("amps, wire, error", [
        ([S, 0, 0, S], "C", WireMismatch),
        ([0, 0, 0, 0], "A", ZeroState),
    ], ids=["unknown-wire", "zero-state"])
    def test_entropy_needs_a_wire_of_a_nonzero_state(self, amps, wire, error):
        with pytest.raises(error):
            entanglement_entropy(state("AB", amps), wire)


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

    def test_residual_compares_across_wire_orders(self):
        assert residual(denote("|- A, B^"), denote("|- B^, A")) == 0.0

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

    def test_the_replay_keeps_the_frontiers_states_not_the_trees(self):
        # 301 nodes of 12 wires: kept until the end, their states would take
        # 301 x 64 KiB; a premise's state goes after its last parent's entry
        tree = parse_script(ladder(100, wires=12)).theorems[0].derivation
        tracemalloc.start()
        try:
            report = verify_soundness(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and len(report.entries) == 301
        assert peak < 2 * 2**20


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


# ---------------------------------------------------------------------------
# The replay primitives as they were before ``apply`` became one 2-D matmul
# and products one ``multiply.outer`` fold, kept verbatim: every amplitude
# and residual must keep its bits.

def reference_unit(amps):
    n = np.linalg.norm(amps)
    return None if n < ZERO_NORM else amps / n


def reference_apply(matrix, wires, state):
    k = len(wires)
    n = len(state.wires)
    axes = [state.wires.index(w) for w in wires]
    t = state.amps.reshape([2] * n)
    m = matrix.reshape([2] * (2 * k))
    t = np.tensordot(m, t, axes=(list(range(k, 2 * k)), axes))
    # tensordot moved the operator wires to the front; put them back
    t = np.moveaxis(t, list(range(k)), axes)
    return QState(state.wires, t.reshape(-1))


def reference_tensor(a, b):
    shared = sorted(set(a.wires) & set(b.wires))
    if shared:
        raise WireMismatch(f"overlapping wires {{{', '.join(map(repr, shared))}}}")
    n = len(a.wires) + len(b.wires)
    if n > MAX_WIRES:
        raise WireMismatch(f"{n} wires exceed the cap of {MAX_WIRES}")
    return QState(a.wires + b.wires, np.outer(a.amps, b.amps).ravel())


def reference_entropy(state, wire):
    v = reference_unit(state.amps)
    n = len(state.wires)
    t = np.moveaxis(v.reshape([2] * n), state.wires.index(wire), 0).reshape(2, -1)
    eigs = np.clip(np.linalg.eigvalsh(t @ t.conj().T).real, 0.0, 1.0)
    return max(0.0, float(-sum(p * math.log2(p) for p in eigs if p > ZERO_NORM)))


def reference_project(wires, bit, state, keep):
    """``predict``'s projection: project each wire, normalize, and drop
    the wires not kept once each is in a basis state."""
    for wire in wires:
        state = reference_apply((M0_MATRIX, M1_MATRIX)[bit], (wire,), state)
    unit = reference_unit(state.amps)
    if unit is not None:
        state = QState(state.wires, unit)
    for wire in [w for w in state.wires if w not in keep]:
        k = state.wires.index(wire)
        t = np.moveaxis(state.amps.reshape([2] * len(state.wires)), k, 0).reshape(2, -1)
        norms = np.linalg.norm(t, axis=1)
        if norms.min() > DEFAULT_TOL * max(1.0, norms.max()):
            raise WireMismatch(f"wire {wire} is still entangled; cannot discard")
        state = QState(state.wires[:k] + state.wires[k + 1:], t[int(np.argmax(norms))])
    return state


def reference_aligned(state, wires):
    perm = [state.wires.index(w) for w in wires]
    return state.amps.reshape([2] * len(wires)).transpose(perm).reshape(-1)


def reference_residual(predicted, actual):
    vp = reference_unit(predicted.amps)
    vb = reference_unit(reference_aligned(actual, predicted.wires))
    if vp is None or vb is None:
        return 0.0 if vp is None and vb is None else 1.0
    overlap = np.vdot(vb, vp)
    if abs(overlap) > ZERO_NORM:
        vb = vb * (overlap / abs(overlap))
    return float(np.linalg.norm(vp - vb))


WIRES = tuple(f"W{k}" for k in range(12))


def bitwise_states():
    """Seeded random states on 1-12 wires, the zero state, and states
    holding inf, nan and 1e308."""
    rng = np.random.default_rng(2018)
    for n in range(1, 13):
        for _ in range(2):
            v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            yield QState(WIRES[:n], v / np.linalg.norm(v))
    for n in (1, 3):
        yield QState(WIRES[:n], np.zeros(2 ** n, dtype=complex))
    for value in (np.inf, -np.inf, np.nan, 1e308, complex(1e308, -1e308),
                  complex(0, np.inf), complex(np.nan, 1)):
        for n in (1, 3):
            v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            v[rng.integers(2 ** n)] = value
            yield QState(WIRES[:n], v)


def same_amps(a, b):
    return a.wires == b.wires and np.array_equal(a.amps, b.amps, equal_nan=True)


def outcome(f, *args):
    """``("state", result)``, or ``("raises", message)`` for a ``WireMismatch``."""
    try:
        return "state", f(*args)
    except WireMismatch as exc:
        return "raises", str(exc)


def same_residual(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.fixture
def quiet_numpy():
    with np.errstate(all="ignore"):
        yield


def operations(s):
    """H, M0 and M1 on every wire and CNOT on every ordered wire pair."""
    for w in s.wires:
        for matrix in (H_MATRIX, M0_MATRIX, M1_MATRIX):
            yield matrix, (w,)
    for c in s.wires:
        for t in s.wires:
            if c != t:
                yield CNOT_MATRIX, (c, t)


@pytest.mark.usefixtures("quiet_numpy")
class TestBitwiseAgainstTheReference:
    def test_apply(self):
        cases = 0
        for s in bitwise_states():
            for matrix, wires in operations(s):
                assert same_amps(apply(matrix, wires, s),
                                 reference_apply(matrix, wires, s)), (s.wires, wires)
                cases += 1
        assert cases > 1000

    def test_unit(self):
        for s in bitwise_states():
            for amps in (s.amps, apply(M1_MATRIX, s.wires[-1:], s).amps):
                got, want = _unit(amps), reference_unit(amps)
                assert (got is None) == (want is None)
                assert got is None or np.array_equal(got, want, equal_nan=True), amps

    def test_residual(self):
        for s in bitwise_states():
            reversed_wires = QState(s.wires[::-1], reference_aligned(s, s.wires[::-1]))
            for matrix, wires in operations(s):
                out = apply(matrix, wires, s)
                for actual in (s, reversed_wires):
                    assert same_residual(residual(out, actual),
                                         reference_residual(out, actual)), (s.wires, wires)

    def test_residual_near_zero(self):
        # the regime a passing replay lives in: a state against itself and
        # against itself after a global phase and a last-bit nudge
        for s in bitwise_states():
            nudged = QState(s.wires, s.amps * np.exp(0.3j) * (1 + 2 ** -52))
            for actual in (s, nudged):
                assert same_residual(residual(s, actual), reference_residual(s, actual))

    def test_entanglement_entropy(self):
        for s in bitwise_states():
            if _unit(s.amps) is None:
                continue
            for w in s.wires:
                assert same_residual(entanglement_entropy(s, w), reference_entropy(s, w)), \
                    (s.wires, w)

    def test_projection_and_drop(self):
        cases = 0
        for s in bitwise_states():
            for wires in [*((w,) for w in s.wires), s.wires[:2], s.wires[-2:][::-1]]:
                rest = tuple(w for w in s.wires if w not in wires)
                # keep the other wires, or also drop one that is not projected
                for keep in (rest, rest[1:]) if rest else (rest,):
                    for bit in (0, 1):
                        want = outcome(reference_project, wires, bit, s, keep)
                        got = outcome(predict, ("project", wires, bit), [s], keep)
                        assert got[0] == want[0], (s.wires, wires, keep, bit)
                        assert (same_amps(got[1], want[1]) if got[0] == "state"
                                else got[1] == want[1]), (s.wires, wires, keep, bit)
                        cases += 1
        assert cases > 1000

    def test_tensor(self):
        states = list(bitwise_states())
        rng = np.random.default_rng(15)
        for _ in range(200):
            a, b = (states[i] for i in rng.integers(len(states), size=2))
            if len(a.wires) + len(b.wires) > 12:
                continue
            b = QState(WIRES[len(a.wires):len(a.wires) + len(b.wires)], b.amps)
            got = QState(*_product(((a.wires, a.amps), (b.wires, b.amps))))
            assert same_amps(got, reference_tensor(a, b))

    def test_denote_assertion(self):
        # the fold over consequents gives the bits of the pairwise tensors
        for n in range(1, 13):
            consequent = tuple(Qubit(w, (0.6 + 0.1j, -0.8j)) if k % 3 else Atom(w, k % 2 == 0)
                               for k, w in enumerate(WIRES[:n]))
            for degree in (None, 0.5j):
                sequent = Sequent((), consequent, degree)
                want = denote_assertion(Sequent((), consequent[:1]))
                for f in consequent[1:]:
                    want = reference_tensor(want, denote_assertion(Sequent((), (f,))))
                if degree is not None:
                    want = QState(want.wires, degree * want.amps)
                assert same_amps(denote_assertion(sequent), want), n


class TestProductErrors:
    """The fold tests each factor for wires it shares with the ones before
    it, then the cap, as the pairwise tensors did, and builds nothing past
    the cap."""

    @staticmethod
    def reference_error(consequent):
        try:
            state = denote_assertion(Sequent((), consequent[:1]))
            for f in consequent[1:]:
                state = reference_tensor(state, denote_assertion(Sequent((), (f,))))
        except WireMismatch as exc:
            return str(exc)
        raise AssertionError("the reference fold raised nothing")

    @pytest.mark.parametrize("consequent", [
        (Qubit("A"), Qubit("B"), Qubit("A")),
        (Ent(Qubit("A"), Qubit("B")), Ent(Qubit("B"), Qubit("A"))),
        (Qubit("A"), Ent(Qubit("B"), Qubit("C")), Ent(Qubit("C"), Qubit("A"))),
        tuple(Qubit(f"X{k}") for k in range(16)) + (Qubit("X0"),),
    ], ids=["one-wire", "both-wires", "two-factors-back", "overlap-at-the-cap"])
    def test_overlapping_wires(self, consequent):
        with pytest.raises(WireMismatch, match="overlapping wires") as exc:
            denote_assertion(Sequent((), consequent))
        assert str(exc.value) == self.reference_error(consequent)

    def test_the_cap_counts_the_first_wire_past_it(self):
        consequent = tuple(Qubit(f"X{k}") for k in range(40))
        tracemalloc.start()
        try:
            with pytest.raises(WireMismatch) as exc:
                denote_assertion(Sequent((), consequent))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"17 wires exceed the cap of {MAX_WIRES}"
        assert str(exc.value) == self.reference_error(consequent)
        # the widest array built holds 2**16 amplitudes of 16 bytes
        assert peak < 2 ** (MAX_WIRES + 1) * 16
