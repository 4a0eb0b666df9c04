import numpy as np
import pytest

import _oracles
from _helpers import (
    DeterministicStrategy,
    check_correlators,
    random_probability_tensor,
    random_realization,
    strategy_probabilities,
)

from qsk.bell import (
    Realization,
    born_probabilities,
    correlators_from_probabilities,
    correlators_from_realization,
    local_bound_bruteforce,
    sample_statistics,
)
from qsk.canonical import ideal_realization, z_observable
from qsk.satwap import BellFunctional, classical_bound

rng = np.random.default_rng(42)


def test_scenario_validation():
    # the scenario is d outcomes and two settings per party; a realization
    # carries d and rejects fewer than two outcomes
    r = ideal_realization(2)
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match=f"d must be >= 2, got {d}"):
            Realization(d, r.dims, r.state, r.observables_a, r.observables_b)


def test_born_ideal_qubit_correlators():
    # optimal two-setting binary statistics: every first-power correlator
    # has magnitude 1/sqrt(2)
    c = correlators_from_probabilities(born_probabilities(ideal_realization(2)))
    mags = np.abs(c[:, :, 1, 1])
    assert np.abs(mags - 1 / np.sqrt(2)).max() < 1e-10


def test_born_product_state_deterministic():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    z = z_observable(2)
    r = Realization(d=2, dims=(2, 2), state=v, observables_a=(z, z), observables_b=(z, z))
    p = born_probabilities(r)
    assert np.abs(p[:, :, 0, 0] - 1.0).max() < 1e-12


def test_born_normalization_random():
    r = random_realization(3, rng, dim_a=6, dim_b=3)
    p = born_probabilities(r)
    assert p.min() >= -1e-9
    assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() <= 1e-9


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


@pytest.mark.parametrize("index", range(4))
def test_validate_names_the_observable_that_is_not_order_d(index):
    from qsk.linalg import NotOrderDError

    observables = [z_observable(2)] * 4
    observables[index] = np.diag([1.0, np.exp(1j * (np.pi + 0.01))])
    r = Realization(
        d=2,
        dims=(2, 2),
        state=np.array([1, 0, 0, 1]) / np.sqrt(2),
        observables_a=tuple(observables[:2]),
        observables_b=tuple(observables[2:]),
    )
    name = ("A1", "A2", "B1", "B2")[index]
    with pytest.raises(NotOrderDError, match=f"^observable {name} is not an order-2 observable: "):
        r.validate()


def test_correlators_flat_distribution_vanish():
    d = 4
    flat = np.full((2, 2, d, d), 1 / d**2)
    c = correlators_from_probabilities(flat)
    assert np.abs(c[:, :, 0, 0] - 1.0).max() < 1e-12
    mask = np.ones((d, d), dtype=bool)
    mask[0, 0] = False
    assert np.abs(c[:, :, mask]).max() < 1e-12


def test_binary_correlator_matches_parity_expectation():
    p = random_probability_tensor(2, rng)
    c = correlators_from_probabilities(p)
    for x in range(2):
        for y in range(2):
            e = sum((-1) ** (a + b) * p[x, y, a, b] for a in range(2) for b in range(2))
            assert abs(c[x, y, 1, 1] - e) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_fourier_round_trip(d):
    p = random_probability_tensor(d, rng)
    c = correlators_from_probabilities(p)
    back = _oracles.probabilities_from_correlators(c)
    assert np.abs(back - p).max() < 1e-12


def test_correlator_tensor_validation():
    c = correlators_from_probabilities(random_probability_tensor(3, rng))
    check_correlators(c)
    with pytest.raises(ValueError):
        check_correlators(c + 0.1j)


def test_correlators_from_realization_trivial_term():
    r = random_realization(2, rng)
    c = correlators_from_realization(r)
    assert np.abs(c[:, :, 0, 0] - 1.0).max() < 1e-10


def test_correlators_ideal_d3_functional_total():
    # maximal quantum value 2(d-1) = 4 for d = 3
    c = correlators_from_realization(ideal_realization(3))
    f = BellFunctional.satwap(3)
    total = complex(np.sum(f.coefficients * c))
    assert abs(total - 4.0) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_correlator_routes_agree(d):
    r = random_realization(d, rng, dim_a=2 * d, dim_b=d)
    via_ops = correlators_from_realization(r)
    via_probs = correlators_from_probabilities(born_probabilities(r))
    assert np.abs(via_ops - via_probs).max() < 1e-9


def test_local_bound_d2():
    f = BellFunctional.satwap(2)
    bound = local_bound_bruteforce(f)
    assert abs(bound - np.sqrt(2)) < 1e-9
    # the loop oracle's best strategy attains the bound
    _, strategy = _oracles.best_deterministic_strategy(f)
    c = correlators_from_probabilities(strategy_probabilities(strategy, 2))
    assert abs(complex(np.sum(f.coefficients * c)).real - bound) < 1e-9


def test_local_bound_d3():
    bound = local_bound_bruteforce(BellFunctional.satwap(3))
    assert abs(bound - (1 + 3 * np.sqrt(3)) / 2) < 1e-9


def test_local_bound_zero_functional():
    f = BellFunctional(d=3, coefficients=np.zeros((2, 2, 3, 3), dtype=complex))
    bound = local_bound_bruteforce(f)
    assert bound == 0.0


def test_local_bound_cap():
    with pytest.raises(ValueError):
        local_bound_bruteforce(BellFunctional.satwap(13))


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_local_bound_matches_closed_form(d):
    bound = local_bound_bruteforce(BellFunctional.satwap(d))
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
    bound = local_bound_bruteforce(f)
    bound_perm = local_bound_bruteforce(BellFunctional(d=d, coefficients=coeff_perm))
    assert abs(bound - bound_perm) < 1e-9


def test_sampling_reproducible():
    r = ideal_realization(2)
    a = sample_statistics(r, shots=500, seed=99)
    b = sample_statistics(r, shots=500, seed=99)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_sampling_single_shot():
    r = ideal_realization(3)
    freqs, counts = sample_statistics(r, shots=1, seed=7)
    assert counts.sum() == 1
    x, y = np.argwhere(counts == 1)[0]
    assert np.count_nonzero(freqs[x, y]) == 1
    assert freqs.sum() == 1.0


def test_sampling_rejects_nonpositive_shots():
    with pytest.raises(ValueError):
        sample_statistics(ideal_realization(2), shots=0, seed=1)


def test_sampling_law_of_large_numbers():
    r = ideal_realization(2)
    shots = 10**6
    freqs, counts = sample_statistics(r, shots=shots, seed=3)
    exact = born_probabilities(r)
    for x in range(2):
        for y in range(2):
            n = counts[x, y]
            se = np.sqrt(np.clip(exact[x, y] * (1 - exact[x, y]), 1e-12, None) / n)
            assert np.all(np.abs(freqs[x, y] - exact[x, y]) <= 5 * se)


def test_deterministic_strategy_tensor():
    p = strategy_probabilities(DeterministicStrategy((1, 0), (2, 2)), 3)
    assert p.min() == 0.0 and np.array_equal(p.sum(axis=(2, 3)), np.ones((2, 2)))
    assert p[0, 0, 1, 2] == 1.0
    assert p[1, 1, 0, 2] == 1.0


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


def test_born_probabilities_refuses_a_nan_state():
    # the table is all NaN: refused for what it is, before the sign and sum gates
    r = ideal_realization(3)
    nan = Realization(3, r.dims, np.full_like(r.state, np.nan), r.observables_a, r.observables_b)
    with pytest.raises(ValueError, match="probability table has non-finite entries"):
        born_probabilities(nan)


def test_correlator_tensor_validate_rejects_nan_at_the_origin():
    c = np.full((2, 2, 3, 3), np.nan, dtype=complex)
    with pytest.raises(ValueError, match="must equal 1"):
        check_correlators(c)


def test_correlator_tensor_validate_rejects_nan_off_the_origin():
    values = correlators_from_realization(ideal_realization(3)).copy()
    values[0, 1, 1, 2] = np.nan
    with pytest.raises(ValueError, match="conjugation symmetry"):
        check_correlators(values)


def test_local_bound_rejects_nan_coefficients():
    f = BellFunctional(d=3, coefficients=np.full((2, 2, 3, 3), np.nan, dtype=complex))
    with pytest.raises(ValueError, match="not real"):
        local_bound_bruteforce(f)
