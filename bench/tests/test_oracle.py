"""The expected states against closed forms written out by hand."""

import cmath

import numpy as np
import pytest

import oracle

S = 2 ** -0.5


def amps(state, wires):
    return oracle.reorder(state, wires).amps


def test_tel_carries_the_unknown_amplitudes_onto_the_pair():
    alpha, beta = 0.28 + 0j, 0.96 * cmath.exp(0.7j)
    state = oracle.teleport(alpha, beta)
    assert state.wires == ("C", "B")
    assert np.allclose(state.amps, [alpha, 0, 0, beta], atol=1e-12)


def test_tel_branches_have_the_protocol_probabilities():
    # before the join, the outcome-11 and outcome-00 projections of
    # (A, C) hold |beta|^2 / 2 and |alpha|^2 / 2 of the norm
    alpha, beta = 0.6, 0.8
    bell = oracle.State(("A", "B"), np.array([S, 0, 0, S], dtype=complex))
    start = oracle.product(bell, oracle.qubit("C", alpha, beta))
    for b, amp in ((1, beta), (0, alpha)):
        s = oracle.project(oracle.project(start, "A", b, False), "C", b, False)
        assert np.linalg.norm(s.amps) ** 2 == pytest.approx(abs(amp) ** 2 / 2)


@pytest.mark.parametrize("name, wires, expected", [
    ("cut-destroys-cat-1", ("A",), [0, 1]),
    ("cut-destroys-cat-0", ("A",), [1, 0]),
    ("cut-parallel", ("A",), [S, S]),
    ("epr", ("A", "B"), [0, 0, 0, 1]),
    ("epr-parallel", ("A", "B"), [S, 0, 0, S]),
    ("h-parallel", ("A",), [1, 0]),
    ("cnot-action", ("B", "A"), [S, 0, 0, S]),
    ("ent", ("B", "A"), [S, 0, 0, S]),
    ("cnot-parallel", ("B", "A"), [0.5, 0.5, 0.5, 0.5]),
    ("nogo", ("B", "A"), [0.5, 0.5, 0.5, 0.5]),
])
def test_corpus_targets(name, wires, expected):
    state = oracle.corpus_target(name, 0.6, 0.8)
    assert np.allclose(amps(state, wires), expected, atol=1e-12)


def test_corpus_entries_without_a_state_target():
    assert oracle.corpus_target("h-rule", 0.6, 0.8) is None
    assert oracle.corpus_target("cnot-derivation", 0.6, 0.8) is None
    with pytest.raises(KeyError):
        oracle.corpus_target("no-such-entry", 0.6, 0.8)


@pytest.mark.parametrize("start, steps, expected", [
    (0, 100, [1, 0]), (1, 100, [0, 1]), (0, 7, [S, S]), (1, 7, [S, -S]),
])
def test_hadamard_chain_parity(start, steps, expected):
    assert np.allclose(oracle.hadamard_chain(start, steps).amps, expected, atol=1e-12)


@pytest.mark.parametrize("control, target, steps, final", [
    (1, 0, 100, 0), (1, 0, 7, 1), (1, 1, 7, 0), (0, 1, 7, 1), (0, 0, 100, 0),
])
def test_cnot_chain_parity(control, target, steps, final):
    state = oracle.cnot_chain(control, target, steps)
    assert np.allclose(state.amps, oracle.product(oracle.bit("B", control),
                                                  oracle.bit("C", final)).amps)


def test_wide_register_is_the_basis_product_of_its_bits():
    bits = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1]
    state = oracle.wide_register(bits)
    index = int("".join(map(str, bits)), 2)
    assert state.wires == tuple(f"W{k:02d}" for k in range(1, 11))
    assert abs(state.amps[index]) == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(state.amps) > 1e-12) == 1


def test_fidelity_aligns_wires_and_ignores_global_phase():
    a = oracle.product(oracle.bit("A", 1), oracle.plus("B"))
    b = oracle.State(("B", "A"), 1j * oracle.reorder(a, ("B", "A")).amps)
    assert oracle.fidelity(a, b) == pytest.approx(1.0)
    assert oracle.fidelity(a, oracle.product(oracle.bit("A", 0), oracle.plus("B"))) \
        == pytest.approx(0.0)
