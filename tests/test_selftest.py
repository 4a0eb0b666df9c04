import numpy as np
import pytest

from _helpers import random_order_d, random_realization
from _oracles import kron_sum

import qsk.bell
import qsk.selftest
from qsk.bell import CorrelatorTensor, Realization, Scenario, correlators_from_realization
from qsk.canonical import (
    ideal_realization,
    t_observable,
    z_observable,
)
from qsk.linalg import dagger, eig_unitary, frobenius_distance, haar_random_unitary, omega
from qsk.satwap import BellFunctional, bell_operator, evaluate, quantum_bound
from qsk.selftest import (
    ExtractionError,
    align_first_observable,
    canonicalize_state,
    canonicalized_realization,
    check_multiplicities,
    extract,
    extract_alice,
    extract_bob,
    scramble,
    tol_violation,
)

rng = np.random.default_rng(2718281)


def _stage(fn, o1, o2, d):
    """Run an extraction stage on a pair with freshly computed decompositions."""
    return fn(o1, o2, eig_unitary(o1, d), eig_unitary(o2, d), ideal_realization(d))


def test_check_multiplicities():
    assert check_multiplicities(eig_unitary(np.kron(z_observable(3), np.eye(2)), 3)) == 2
    assert check_multiplicities(eig_unitary(t_observable(4), 4)) == 1
    with pytest.raises(ExtractionError) as err:
        check_multiplicities(eig_unitary(np.diag([1.0, 1.0, omega(3, 1)]), 3))
    assert "multiplicit" in str(err.value)


def test_align_first_observable_block_diagonal_input():
    d, m = 3, 2
    b1 = np.kron(z_observable(d), np.eye(m))
    v = align_first_observable(eig_unitary(b1, d))
    assert frobenius_distance(v @ b1 @ dagger(v), b1) < 1e-9


def test_align_first_observable_round_trip():
    d, m = 3, 2
    g = haar_random_unitary(d * m, rng)
    b1 = g @ np.kron(z_observable(d), np.eye(m)) @ dagger(g)
    v = align_first_observable(eig_unitary(b1, d))
    assert frobenius_distance(v @ b1 @ dagger(v), np.kron(z_observable(d), np.eye(m))) < 1e-8


def test_align_first_observable_reorders_eigenvalues():
    d = 4
    perm = [2, 0, 3, 1]
    b1 = np.diag([omega(d, j) for j in perm]).astype(complex)
    v = align_first_observable(eig_unitary(b1, d))
    assert frobenius_distance(v @ b1 @ dagger(v), z_observable(d)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_extract_bob_round_trip(d, m):
    g = haar_random_unitary(d * m, rng)
    b1 = g @ np.kron(z_observable(d), np.eye(m)) @ dagger(g)
    b2 = g @ np.kron(t_observable(d), np.eye(m)) @ dagger(g)
    u, residuals = _stage(extract_bob, b1, b2, d)
    assert frobenius_distance(u @ b1 @ dagger(u), np.kron(z_observable(d), np.eye(m))) < 1e-7
    assert frobenius_distance(u @ b2 @ dagger(u), np.kron(t_observable(d), np.eye(m))) < 1e-7
    assert residuals == (
        frobenius_distance(u @ b1 @ dagger(u), np.kron(z_observable(d), np.eye(m))),
        frobenius_distance(u @ b2 @ dagger(u), np.kron(t_observable(d), np.eye(m))),
    )


def test_extract_bob_unscrambled():
    d = 5
    u, _ = _stage(extract_bob, z_observable(d), t_observable(d), d)
    assert frobenius_distance(u @ z_observable(d) @ dagger(u), z_observable(d)) < 1e-9
    assert frobenius_distance(u @ t_observable(d) @ dagger(u), t_observable(d)) < 1e-9


def test_extract_bob_rejects_commuting_pair():
    d = 3
    with pytest.raises(ExtractionError) as err:
        _stage(extract_bob, z_observable(d), z_observable(d), d)
    assert err.value.stage == "block-alignment"


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_extract_alice_round_trip(d, m):
    ia1, ia2 = ideal_realization(d).observables_a
    g = haar_random_unitary(d * m, rng)
    a1 = g @ np.kron(ia1, np.eye(m)) @ dagger(g)
    a2 = g @ np.kron(ia2, np.eye(m)) @ dagger(g)
    u, residuals = _stage(extract_alice, a1, a2, d)
    assert frobenius_distance(u @ a1 @ dagger(u), np.kron(ia1, np.eye(m))) < 1e-7
    assert frobenius_distance(u @ a2 @ dagger(u), np.kron(ia2, np.eye(m))) < 1e-7
    assert residuals == (
        frobenius_distance(u @ a1 @ dagger(u), np.kron(ia1, np.eye(m))),
        frobenius_distance(u @ a2 @ dagger(u), np.kron(ia2, np.eye(m))),
    )


def test_extract_alice_unscrambled():
    d = 4
    ia1, ia2 = ideal_realization(d).observables_a
    u, _ = _stage(extract_alice, ia1, ia2, d)
    assert frobenius_distance(u @ ia1 @ dagger(u), ia1) < 1e-9
    assert frobenius_distance(u @ ia2 @ dagger(u), ia2) < 1e-9


def test_extract_alice_rejects_unrelated_observables():
    d = 4
    with pytest.raises(ExtractionError):
        _stage(extract_alice, random_order_d(d, d, rng), random_order_d(d, d, rng), d)


def test_canonicalize_state_ideal():
    d = 3
    r = ideal_realization(d)
    result = canonicalize_state(r, np.eye(d, dtype=complex), np.eye(d, dtype=complex))
    assert abs(result.fidelity - 1.0) < 1e-9
    assert result.aux_state.shape == (1,)
    assert result.off_diagonal_residual < 1e-12
    assert result.diagonal_mismatch < 1e-12


def test_canonicalize_state_product_state_reports_low_fidelity():
    d = 2
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    r = Realization(
        d=d,
        dims=(d, d),
        state=v,
        observables_a=ideal_realization(d).observables_a,
        observables_b=(z_observable(d), t_observable(d)),
    )
    result = canonicalize_state(r, np.eye(d, dtype=complex), np.eye(d, dtype=complex))
    assert abs(result.fidelity - 1 / np.sqrt(d)) < 1e-9
    assert result.diagonal_mismatch > 0.5


@pytest.mark.parametrize("d", [2, 3])
def test_extract_round_trip_with_aux(d):
    r = scramble(ideal_realization(d), 2, 2, seed=17 * d)
    result = extract(r)
    assert result.fidelity >= 1 - 1e-7
    assert result.aux_dims == (2, 2)
    for key in ("bob_observable_1", "bob_observable_2", "alice_observable_1", "alice_observable_2"):
        assert result.residuals[key] <= 1e-7
    # extracted unitaries are unitary
    for u in (result.u_a, result.u_b):
        assert frobenius_distance(dagger(u) @ u, np.eye(u.shape[0])) < 1e-10
    # physics unchanged by canonicalization
    canon = canonicalized_realization(r, result)
    drift = np.abs(
        correlators_from_realization(canon).values - correlators_from_realization(r).values
    ).max()
    assert drift < 1e-8


def test_extract_recovers_aux_schmidt_spectrum():
    # the recovered auxiliary state matches the injected one up to the
    # residual local-unitary freedom of the aux factors, so its Schmidt
    # spectrum is the invariant to compare
    d, ma, mb = 3, 2, 3
    seed = 555
    local = np.random.default_rng(np.random.Philox(seed))
    aux = local.standard_normal(ma * mb) + 1j * local.standard_normal(ma * mb)
    aux /= np.linalg.norm(aux)
    r = scramble(ideal_realization(d), ma, mb, seed=seed)
    result = extract(r)
    s_in = np.linalg.svd(aux.reshape(ma, mb), compute_uv=False)
    s_out = np.linalg.svd(result.aux_state.reshape(ma, mb), compute_uv=False)
    assert np.abs(np.sort(s_in) - np.sort(s_out)).max() < 1e-7


def test_extract_parallel_pairs_reading():
    # d = 8 = 2^3 certifies three maximally entangled qubit pairs at once
    result = extract(ideal_realization(8))
    assert result.fidelity >= 1 - 1e-7


def test_extract_gate_rejects_submaximal_violation():
    d = 3
    r = ideal_realization(d)
    op = kron_sum(*bell_operator(BellFunctional.satwap(d), r, "bob"))
    vals, vecs = np.linalg.eigh(op)
    top = vecs[:, -1]
    other = vecs[:, 0]
    # mix in the bottom eigenvector until the value sits at 95% of the bound
    target = 0.95 * quantum_bound(d)
    alpha = np.sqrt((target - vals[0]) / (vals[-1] - vals[0]))
    state = alpha * top + np.sqrt(1 - alpha**2) * other
    mixed = Realization(
        d=d, dims=r.dims, state=state, observables_a=r.observables_a, observables_b=r.observables_b
    )
    value = evaluate(BellFunctional.satwap(d), correlators_from_realization(mixed))
    assert abs(value - target) < 1e-9
    with pytest.raises(ExtractionError) as err:
        extract(mixed)
    assert err.value.stage == "violation-gate"


def test_extract_gate_rejects_random_realization():
    with pytest.raises(ExtractionError) as err:
        extract(random_realization(3, rng))
    assert err.value.stage == "violation-gate"


def test_extract_rejects_perturbed_realization():
    # epsilon-perturb the observables, re-unitarize by polar projection;
    # the violation drops below the gate
    d = 3
    eps = 1e-3
    r = ideal_realization(d)

    def perturb(o):
        noisy = o + eps * (rng.standard_normal(o.shape) + 1j * rng.standard_normal(o.shape))
        u, _, vh = np.linalg.svd(noisy)
        return u @ vh

    noisy = Realization(
        d=d,
        dims=r.dims,
        state=r.state,
        observables_a=tuple(perturb(o) for o in r.observables_a),
        observables_b=tuple(perturb(o) for o in r.observables_b),
    )
    with pytest.raises(ExtractionError):
        extract(noisy)


def test_scramble_preserves_statistics_and_value():
    d = 3
    r = ideal_realization(d)
    s = scramble(r, 2, 1, seed=4)
    ca = correlators_from_realization(r).values
    cb = correlators_from_realization(s).values
    assert np.abs(ca - cb).max() < 1e-9
    f = BellFunctional.satwap(d)
    assert abs(evaluate(f, correlators_from_realization(s)) - quantum_bound(d)) < 1e-9


def test_scramble_reproducible():
    r = ideal_realization(2)
    s1 = scramble(r, 2, 2, seed=123)
    s2 = scramble(r, 2, 2, seed=123)
    assert np.array_equal(s1.state, s2.state)
    for o1, o2 in zip(s1.observables_a, s2.observables_a):
        assert np.array_equal(o1, o2)


def test_violation_tolerance_scales_with_d():
    assert tol_violation(2) == pytest.approx(2e-6)
    assert tol_violation(10) == pytest.approx(1e-5)


def test_extract_decomposes_each_observable_once(monkeypatch):
    import qsk.bell
    import qsk.selftest

    r = scramble(ideal_realization(3), 2, 2, seed=11)
    calls = []

    def counting(a, d, *args, **kwargs):
        calls.append(a.shape)
        return eig_unitary(a, d, *args, **kwargs)

    for module in (qsk.bell, qsk.selftest):
        monkeypatch.setattr(module, "eig_unitary", counting)
    result = extract(r)
    assert result.fidelity >= 1 - 1e-7
    assert len(calls) == 4


def test_extract_rejects_nan_state_at_input_validation():
    r = ideal_realization(3)
    state = r.state.copy()
    state[0] = np.nan
    bad = Realization(
        d=3, dims=r.dims, state=state, observables_a=r.observables_a, observables_b=r.observables_b
    )
    with pytest.raises(ExtractionError) as err:
        extract(bad)
    assert err.value.stage == "input-validation"


def test_scramble_rejects_nonpositive_aux():
    for aux_a, aux_b in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(ValueError):
            scramble(ideal_realization(2), aux_a, aux_b, seed=1)


def test_scramble_drift_gate_rejects_nan_correlators(monkeypatch):
    nan = CorrelatorTensor(Scenario(3), np.full((2, 2, 3, 3), np.nan, dtype=complex))
    monkeypatch.setattr(qsk.bell, "correlators_from_realization", lambda r: nan)
    with pytest.raises(AssertionError, match="changed the correlations"):
        scramble(ideal_realization(3), 2, 1, seed=0)


def test_block_alignment_gate_rejects_nan_block():
    d = 3
    z, t = z_observable(d), t_observable(d)
    b2 = t.copy()
    b2[0, 1] = np.nan
    with pytest.raises(ExtractionError, match=r"F F\^dag"):
        extract_bob(z, b2, eig_unitary(z, d), eig_unitary(t, d), ideal_realization(d))


def test_conjugation_gate_rejects_nan_unitary():
    z, t = z_observable(3), t_observable(3)
    with pytest.raises(ExtractionError, match="misses its canonical form"):
        qsk.selftest._verify_conjugation(np.full((3, 3), np.nan), (z, t), (z, t), 1)
