import numpy as np
import pytest

from _helpers import random_probability_tensor, random_realization

from qsk.bell import (
    CorrelationTensor,
    CorrelatorTensor,
    DeterministicStrategy,
    Realization,
    Scenario,
    born_probabilities,
    correlators_from_probabilities,
    correlators_from_realization,
    local_bound_bruteforce,
    probabilities_from_correlators,
    sample_statistics,
)
from qsk.canonical import ideal_realization, z_observable
from qsk.satwap import BellFunctional, classical_bound

rng = np.random.default_rng(42)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(1)
    with pytest.raises(ValueError):
        Scenario(3, m=1)


def test_born_ideal_qubit_correlators():
    # optimal two-setting binary statistics: every first-power correlator
    # has magnitude 1/sqrt(2)
    c = correlators_from_probabilities(born_probabilities(ideal_realization(2)))
    mags = np.abs(c.values[:, :, 1, 1])
    assert np.abs(mags - 1 / np.sqrt(2)).max() < 1e-10


def test_born_product_state_deterministic():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    z = z_observable(2)
    r = Realization(d=2, dims=(2, 2), state=v, observables_a=(z, z), observables_b=(z, z))
    p = born_probabilities(r).probabilities
    assert np.abs(p[:, :, 0, 0] - 1.0).max() < 1e-12


def test_born_normalization_random():
    r = random_realization(3, rng, dim_a=6, dim_b=3)
    p = born_probabilities(r)
    p.validate(tol=1e-9)


def test_born_rejects_non_order_d_observable():
    from qsk.linalg import NotOrderDError

    drifted = np.diag([1.0, np.exp(1j * (np.pi + 0.01))])
    r = Realization(
        d=2,
        dims=(2, 2),
        state=np.array([1, 0, 0, 1]) / np.sqrt(2),
        observables_a=(drifted, z_observable(2)),
        observables_b=(z_observable(2), z_observable(2)),
    )
    with pytest.raises(NotOrderDError):
        born_probabilities(r)


def test_correlators_flat_distribution_vanish():
    d = 4
    flat = CorrelationTensor(Scenario(d), np.full((2, 2, d, d), 1 / d**2))
    c = correlators_from_probabilities(flat).values
    assert np.abs(c[:, :, 0, 0] - 1.0).max() < 1e-12
    mask = np.ones((d, d), dtype=bool)
    mask[0, 0] = False
    assert np.abs(c[:, :, mask]).max() < 1e-12


def test_binary_correlator_matches_parity_expectation():
    p = random_probability_tensor(2, rng)
    c = correlators_from_probabilities(CorrelationTensor(Scenario(2), p)).values
    for x in range(2):
        for y in range(2):
            e = sum((-1) ** (a + b) * p[x, y, a, b] for a in range(2) for b in range(2))
            assert abs(c[x, y, 1, 1] - e) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_fourier_round_trip(d):
    p = random_probability_tensor(d, rng)
    t = CorrelationTensor(Scenario(d), p)
    back = probabilities_from_correlators(correlators_from_probabilities(t))
    assert np.abs(back.probabilities - p).max() < 1e-12


def test_correlator_tensor_validation():
    c = correlators_from_probabilities(CorrelationTensor(Scenario(3), random_probability_tensor(3, rng)))
    c.validate()
    broken = CorrelatorTensor(c.scenario, c.values + 0.1j)
    with pytest.raises(ValueError):
        broken.validate()


def test_correlators_from_realization_trivial_term():
    r = random_realization(2, rng)
    c = correlators_from_realization(r)
    assert np.abs(c.values[:, :, 0, 0] - 1.0).max() < 1e-10


def test_correlators_ideal_d3_functional_total():
    # maximal quantum value 2(d-1) = 4 for d = 3
    c = correlators_from_realization(ideal_realization(3))
    f = BellFunctional.satwap(3)
    total = complex(np.sum(f.coefficients * c.values))
    assert abs(total - 4.0) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_correlator_routes_agree(d):
    r = random_realization(d, rng, dim_a=2 * d, dim_b=d)
    via_ops = correlators_from_realization(r).values
    via_probs = correlators_from_probabilities(born_probabilities(r)).values
    assert np.abs(via_ops - via_probs).max() < 1e-9


def test_local_bound_d2():
    bound, strategy = local_bound_bruteforce(BellFunctional.satwap(2))
    assert abs(bound - np.sqrt(2)) < 1e-9
    # the reported strategy attains the bound
    p = strategy.probabilities(Scenario(2))
    c = correlators_from_probabilities(p)
    f = BellFunctional.satwap(2)
    assert abs(complex(np.sum(f.coefficients * c.values)).real - bound) < 1e-9


def test_local_bound_d3():
    bound, _ = local_bound_bruteforce(BellFunctional.satwap(3))
    assert abs(bound - (1 + 3 * np.sqrt(3)) / 2) < 1e-9


def test_local_bound_zero_functional():
    f = BellFunctional(d=3, coefficients=np.zeros((2, 2, 3, 3), dtype=complex))
    bound, _ = local_bound_bruteforce(f)
    assert bound == 0.0


def test_local_bound_cap():
    with pytest.raises(ValueError):
        local_bound_bruteforce(BellFunctional.satwap(13))


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_local_bound_matches_closed_form(d):
    bound, _ = local_bound_bruteforce(BellFunctional.satwap(d))
    assert abs(bound - classical_bound(d)) < 1e-9


def test_local_bound_outcome_relabeling_invariance():
    d = 4
    f = BellFunctional.satwap(d)
    perm_a = rng.permutation(d)
    perm_b = rng.permutation(d)
    # push the relabeling through the probability picture and back
    w = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    t = np.einsum("xykl,ka,lb->xyab", f.coefficients, w, w)
    t_perm = t[:, :, perm_a][:, :, :, perm_b]
    coeff_perm = np.einsum("xyab,ak,bl->xykl", t_perm, w.conj(), w.conj()) / d**2
    bound, _ = local_bound_bruteforce(f)
    bound_perm, _ = local_bound_bruteforce(BellFunctional(d=d, coefficients=coeff_perm))
    assert abs(bound - bound_perm) < 1e-9


def test_sampling_reproducible():
    r = ideal_realization(2)
    a = sample_statistics(r, shots=500, seed=99)
    b = sample_statistics(r, shots=500, seed=99)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert np.array_equal(a.setting_counts, b.setting_counts)


def test_sampling_single_shot():
    r = ideal_realization(3)
    t = sample_statistics(r, shots=1, seed=7)
    assert t.setting_counts.sum() == 1
    x, y = np.argwhere(t.setting_counts == 1)[0]
    assert np.count_nonzero(t.probabilities[x, y]) == 1
    assert t.probabilities.sum() == 1.0


def test_sampling_rejects_nonpositive_shots():
    with pytest.raises(ValueError):
        sample_statistics(ideal_realization(2), shots=0, seed=1)


def test_sampling_law_of_large_numbers():
    r = ideal_realization(2)
    shots = 10**6
    t = sample_statistics(r, shots=shots, seed=3)
    exact = born_probabilities(r).probabilities
    for x in range(2):
        for y in range(2):
            n = t.setting_counts[x, y]
            se = np.sqrt(np.clip(exact[x, y] * (1 - exact[x, y]), 1e-12, None) / n)
            assert np.all(np.abs(t.probabilities[x, y] - exact[x, y]) <= 5 * se)


def test_deterministic_strategy_tensor():
    s = DeterministicStrategy((1, 0), (2, 2))
    p = s.probabilities(Scenario(3))
    p.validate()
    assert p.probabilities[0, 0, 1, 2] == 1.0
    assert p.probabilities[1, 1, 0, 2] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_realization_validate_rejects_non_finite_entries(bad):
    r = ideal_realization(3)
    state = r.state.copy()
    state[1] = bad
    with pytest.raises(ValueError, match="state has non-finite"):
        Realization(3, r.dims, state, r.observables_a, r.observables_b).validate()
    b2 = r.observables_b[1].copy()
    b2[0, 0] = bad
    with pytest.raises(ValueError, match="observable B2 has non-finite"):
        Realization(3, r.dims, r.state, r.observables_a, (r.observables_b[0], b2)).validate()


def test_realization_validate_returns_the_four_decompositions():
    r = ideal_realization(3)
    decomps = r.validate()
    observables = (*r.observables_a, *r.observables_b)
    assert len(decomps) == 4
    for decomp, o in zip(decomps, observables):
        assert decomp.reconstruction_error(o) < 1e-9


def test_correlation_tensor_validate_rejects_all_nan():
    t = CorrelationTensor(Scenario(3), np.full((2, 2, 3, 3), np.nan))
    with pytest.raises(ValueError):
        t.validate()


def test_correlator_tensor_validate_rejects_nan_at_the_origin():
    c = CorrelatorTensor(Scenario(3), np.full((2, 2, 3, 3), np.nan, dtype=complex))
    with pytest.raises(ValueError, match="must equal 1"):
        c.validate()


def test_correlator_tensor_validate_rejects_nan_off_the_origin():
    values = correlators_from_realization(ideal_realization(3)).values.copy()
    values[0, 1, 1, 2] = np.nan
    with pytest.raises(ValueError, match="conjugation symmetry"):
        CorrelatorTensor(Scenario(3), values).validate()


def test_inverse_transform_rejects_nan_correlators():
    c = CorrelatorTensor(Scenario(3), np.full((2, 2, 3, 3), np.nan, dtype=complex))
    with pytest.raises(ValueError, match="complex probabilities"):
        probabilities_from_correlators(c)


def test_local_bound_rejects_nan_coefficients():
    f = BellFunctional(d=3, coefficients=np.full((2, 2, 3, 3), np.nan, dtype=complex))
    with pytest.raises(ValueError, match="not real"):
        local_bound_bruteforce(f)
