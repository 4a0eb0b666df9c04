import cmath

import numpy as np
import pytest

from _helpers import random_probability_tensor, random_realization, strategy_probabilities
from _oracles import best_deterministic_strategy, kron_sum

from qsk.bell import (
    born_probabilities,
    correlators_from_probabilities,
    correlators_from_realization,
    local_bound_bruteforce,
)
from qsk.canonical import ideal_realization
from qsk.satwap import (
    BellFunctional,
    bell_operator,
    classical_bound,
    coefficient_a,
    evaluate,
    probability_form,
    quantum_bound,
)

rng = np.random.default_rng(777)


def test_coefficient_d2_is_real():
    assert abs(coefficient_a(2, 1) - 1 / np.sqrt(2)) < 1e-12


def test_coefficient_d3_frozen():
    # (1/sqrt(2)) e^{-i pi/12}, from the equivalent product form (1-i)/2 * w^(1/4)
    expected = (1 - 1j) / 2 * cmath.exp(2j * cmath.pi / (3 * 4))
    assert abs(expected - (0.6830127018922194 - 0.18301270189221927j)) < 1e-12
    assert abs(coefficient_a(3, 1) - expected) < 1e-12


def test_coefficient_conjugation_antisymmetry():
    d = 5
    for k in range(1, d):
        assert abs(coefficient_a(d, d - k) - coefficient_a(d, k).conjugate()) < 1e-12


def test_coefficient_range_errors():
    with pytest.raises(ValueError):
        coefficient_a(4, 0)
    with pytest.raises(ValueError):
        coefficient_a(4, 4)


def test_functional_invariants():
    for d in (2, 3, 7):
        f = BellFunctional.satwap(d)
        assert f.coefficients.shape == (2, 2, d) and not f.coefficients[:, :, 0].any()
        a = f.coefficients[0, 0, 1:]  # a_1 .. a_(d-1)
        assert np.abs(np.abs(a) - 1 / np.sqrt(2)).max() < 1e-12
        assert np.abs(a[::-1] - a.conj()).max() < 1e-12  # a_(d-k) = conj(a_k)


def test_evaluate_ideal_d3():
    value = evaluate(BellFunctional.satwap(3), correlators_from_realization(ideal_realization(3)))
    assert abs(value - 4.0) < 1e-9


def test_evaluate_best_deterministic_d2():
    f = BellFunctional.satwap(2)
    bound = local_bound_bruteforce(f)
    _, strategy = best_deterministic_strategy(f)
    c = correlators_from_probabilities(strategy_probabilities(strategy, 2))
    assert abs(evaluate(f, c) - np.sqrt(2)) < 1e-9
    assert abs(bound - np.sqrt(2)) < 1e-9


def test_evaluate_flat_distribution_is_zero():
    d = 5
    flat = np.full((2, 2, d, d), 1 / d**2)
    assert abs(evaluate(BellFunctional.satwap(d), correlators_from_probabilities(flat))) < 1e-12


def test_evaluate_rejects_imaginary_residue():
    d = 3
    c = correlators_from_realization(ideal_realization(d))
    broken = c + 1e-3j * np.ones_like(c)
    with pytest.raises(ValueError):
        evaluate(BellFunctional.satwap(d), broken)


def test_classical_bound_frozen_values():
    # cot(pi/8) = 1 + sqrt(2), cot(3 pi/8) = sqrt(2) - 1
    assert abs(classical_bound(2) - np.sqrt(2)) < 1e-12
    # cot(pi/12) = 2 + sqrt(3), cot(pi/4) = 1
    assert abs(classical_bound(3) - (1 + 3 * np.sqrt(3)) / 2) < 1e-12


@pytest.mark.parametrize("d", list(range(2, 9)))
def test_classical_bound_matches_enumeration(d):
    bound = local_bound_bruteforce(BellFunctional.satwap(d))
    assert abs(bound - classical_bound(d)) < 1e-9


def test_quantum_bound_values():
    assert quantum_bound(2) == 2.0
    assert quantum_bound(3) == 4.0


def test_classical_strictly_below_quantum():
    for d in range(2, 17):
        assert classical_bound(d) < quantum_bound(d)


@pytest.mark.parametrize("d", list(range(2, 10)))
def test_quantum_bound_attained(d):
    value = evaluate(BellFunctional.satwap(d), correlators_from_realization(ideal_realization(d)))
    assert abs(value - quantum_bound(d)) < 1e-9


def test_bell_operator_hermitian_and_consistent():
    for d in (2, 3, 5):
        r = ideal_realization(d)
        f = BellFunctional.satwap(d)
        for side in ("bob", "alice"):
            op = kron_sum(*bell_operator(f, r, side))
            assert np.linalg.norm(op - op.conj().T) < 1e-9
            expectation = (r.state.conj() @ op @ r.state).real
            assert abs(expectation - evaluate(f, correlators_from_realization(r))) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bell_operator_top_eigenvalue(d):
    op = kron_sum(*bell_operator(BellFunctional.satwap(d), ideal_realization(d), "alice"))
    top = np.linalg.eigvalsh(op).max()
    assert abs(top - 2 * (d - 1)) < 1e-8


def test_probability_form_real_and_consistent():
    d = 4
    f = BellFunctional.satwap(d)
    t = probability_form(f)
    assert t.dtype == float
    r = ideal_realization(d)
    p = born_probabilities(r)
    assert abs(float(np.sum(t * p)) - evaluate(f, correlators_from_realization(r))) < 1e-9


def test_probability_form_agrees_on_random_tensors():
    d = 3
    f = BellFunctional.satwap(d)
    for _ in range(100):
        p = random_probability_tensor(d, rng)
        via_corr = evaluate(f, correlators_from_probabilities(p))
        via_prob = float(np.sum(probability_form(f) * p))
        assert abs(via_corr - via_prob) < 1e-9


@pytest.mark.parametrize("d", [56, 80, 128, 256])
def test_probability_form_stays_real_at_large_d(d):
    # the Fourier exponents k*l are reduced mod d; unreduced, the imaginary
    # residue crossed the 1e-12 gate at d = 56 and at every d >= 80
    f = BellFunctional.satwap(d)
    t = probability_form(f)
    p = random_probability_tensor(d, np.random.default_rng(d))
    via_corr = evaluate(f, correlators_from_probabilities(p))
    assert abs(float(np.sum(t * p)) - via_corr) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_quantum_bound_is_supremum(d):
    f = BellFunctional.satwap(d)
    for trial in range(5):
        r = random_realization(d, rng, dim_a=d * (1 + trial % 2), dim_b=d)
        value = evaluate(f, correlators_from_realization(r))
        assert value <= quantum_bound(d) + 1e-6


def test_evaluate_rejects_correlators_of_another_d():
    c = correlators_from_realization(ideal_realization(4))
    with pytest.raises(ValueError, match=r"shape \(2, 2, 4, 4\) do not match functional d=3"):
        evaluate(BellFunctional.satwap(3), c)


def test_evaluate_rejects_nan_correlators():
    c = np.full((2, 2, 3, 3), np.nan, dtype=complex)
    with pytest.raises(ValueError, match="imaginary residue"):
        evaluate(BellFunctional.satwap(3), c)


def test_probability_form_rejects_nan_coefficients():
    f = BellFunctional(d=3, coefficients=np.full((2, 2, 3), np.nan, dtype=complex))
    with pytest.raises(ValueError, match="not real"):
        probability_form(f)

