import dataclasses
from collections import Counter

import numpy as np
import pytest

import _oracles
from _helpers import frobenius_distance, omega, random_order_d, random_realization
from _oracles import kron_sum

import qsk.selftest
from qsk.bell import Realization, correlators_from_realization
from qsk.canonical import (
    ideal_realization,
    t_observable,
    z_observable,
)
from qsk.linalg import dagger, eig_unitary, haar_random_unitary
from qsk.satwap import BellFunctional, bell_operator, evaluate, quantum_bound
from qsk.selftest import (
    ExtractionError,
    canonicalize_state,
    canonicalized_realization,
    check_multiplicities,
    extract,
    extract_alice,
    extract_bob,
    scramble,
    tol_violation,
    violation_gap,
)

rng = np.random.default_rng(2718281)


def _stage(fn, o1, o2, d):
    """Run an alignment stage on a pair with freshly computed decompositions."""
    return fn(o2, eig_unitary(o1, d), eig_unitary(o2, d))


def test_check_multiplicities():
    assert check_multiplicities(eig_unitary(np.kron(z_observable(3), np.eye(2)), 3)) == 2
    assert check_multiplicities(eig_unitary(t_observable(4), 4)) == 1
    with pytest.raises(ExtractionError) as err:
        check_multiplicities(eig_unitary(np.diag([1.0, 1.0, omega(3, 1)]), 3))
    assert "multiplicit" in str(err.value)


def _align_first(b1, d):
    """extract_bob's first stage: V = E^dag over B1's eigenvectors, ordered by w**j."""
    return dagger(eig_unitary(b1, d).vectors)


def test_align_first_observable_block_diagonal_input():
    d, m = 3, 2
    b1 = np.kron(z_observable(d), np.eye(m))
    v = _align_first(b1, d)
    assert frobenius_distance(v @ b1 @ dagger(v), b1) < 1e-9


def test_align_first_observable_round_trip():
    d, m = 3, 2
    g = haar_random_unitary(d * m, rng)
    b1 = g @ np.kron(z_observable(d), np.eye(m)) @ dagger(g)
    v = _align_first(b1, d)
    assert frobenius_distance(v @ b1 @ dagger(v), np.kron(z_observable(d), np.eye(m))) < 1e-8


def test_align_first_observable_reorders_eigenvalues():
    d = 4
    perm = [2, 0, 3, 1]
    b1 = np.diag([omega(d, j) for j in perm]).astype(complex)
    v = _align_first(b1, d)
    assert frobenius_distance(v @ b1 @ dagger(v), z_observable(d)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_extract_bob_round_trip(d, m):
    g = haar_random_unitary(d * m, rng)
    b1 = g @ np.kron(z_observable(d), np.eye(m)) @ dagger(g)
    b2 = g @ np.kron(t_observable(d), np.eye(m)) @ dagger(g)
    u = _stage(extract_bob, b1, b2, d)
    assert frobenius_distance(u @ b1 @ dagger(u), np.kron(z_observable(d), np.eye(m))) < 1e-7
    assert frobenius_distance(u @ b2 @ dagger(u), np.kron(t_observable(d), np.eye(m))) < 1e-7


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_extracted_second_observable_satisfies_the_fij_block_equations(d, m):
    # in the aligned eigenbasis of B1 = Z (x) I, every block F_ij of B2
    # takes its scalar solution: all five block equations of the loop oracle
    # (diagonal, transpose pairing, block unitarity, first row, off-diagonal)
    g = haar_random_unitary(d * m, np.random.default_rng(100 * d + m))  # own data
    b1 = g @ np.kron(z_observable(d), np.eye(m)) @ dagger(g)
    b2 = g @ np.kron(t_observable(d), np.eye(m)) @ dagger(g)
    u = _stage(extract_bob, b1, b2, d)
    assert max(_oracles.fij_structure(u @ b2 @ dagger(u), d, m)) < 1e-9


def test_extract_bob_unscrambled():
    d = 5
    u = _stage(extract_bob, z_observable(d), t_observable(d), d)
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
    u = _stage(extract_alice, a1, a2, d)
    assert frobenius_distance(u @ a1 @ dagger(u), np.kron(ia1, np.eye(m))) < 1e-7
    assert frobenius_distance(u @ a2 @ dagger(u), np.kron(ia2, np.eye(m))) < 1e-7


def test_extract_alice_unscrambled():
    d = 4
    ia1, ia2 = ideal_realization(d).observables_a
    u = _stage(extract_alice, ia1, ia2, d)
    assert frobenius_distance(u @ ia1 @ dagger(u), ia1) < 1e-9
    assert frobenius_distance(u @ ia2 @ dagger(u), ia2) < 1e-9


def test_extract_alice_rejects_unrelated_observables():
    d = 4
    with pytest.raises(ExtractionError):
        _stage(extract_alice, random_order_d(d, d, rng), random_order_d(d, d, rng), d)


def test_canonicalize_state_ideal():
    fidelity, aux, residuals = canonicalize_state(ideal_realization(3))
    assert abs(fidelity - 1.0) < 1e-9
    assert aux.shape == (1,)
    assert residuals["state_off_diagonal"] < 1e-12
    assert residuals["state_diagonal_mismatch"] < 1e-12


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
    fidelity, _, residuals = canonicalize_state(r)
    assert abs(fidelity - 1 / np.sqrt(d)) < 1e-9
    assert residuals["state_diagonal_mismatch"] > 0.5


def _assert_matches_block_oracle(r, u_a, u_b):
    fast = canonicalize_state(canonicalized_realization(r, u_a, u_b))
    slow = _oracles.canonicalize_state(r, u_a, u_b)
    # same rotation, same anchor, same normalization, same d-term sum: bit for bit
    assert fast[0] == slow[0]
    assert np.array_equal(fast[1], slow[1])
    # block norms by reduction against one norm per block: rounding level
    assert fast[2].keys() == slow[2].keys() == {"state_off_diagonal", "state_diagonal_mismatch"}
    for name, b in slow[2].items():
        assert abs(fast[2][name] - b) <= 1e-15 + 1e-12 * b
    return fast


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("aux", [(1, 1), (2, 3), (4, 2)], ids=str)
def test_canonicalize_state_matches_block_oracle_on_scrambled_violators(d, aux):
    r = scramble(ideal_realization(d), *aux, seed=10 * d + aux[0])
    result = extract(r)
    fidelity, _, _ = _assert_matches_block_oracle(r, result.u_a, result.u_b)
    assert abs(fidelity - 1.0) <= 1e-9
    # unextracted, the scrambled state has nonzero blocks everywhere
    eye_a, eye_b = np.eye(r.dims[0], dtype=complex), np.eye(r.dims[1], dtype=complex)
    _, _, residuals = _assert_matches_block_oracle(r, eye_a, eye_b)
    assert residuals["state_off_diagonal"] > 1e-3


def test_canonicalize_state_matches_block_oracle_on_haar_random_state():
    g = np.random.default_rng(31)
    d, da, db = 4, 8, 12
    r = random_realization(d, g, dim_a=da, dim_b=db)
    _assert_matches_block_oracle(r, haar_random_unitary(da, g), haar_random_unitary(db, g))


def test_canonicalize_state_anchors_on_largest_diagonal_block_when_psi_00_vanishes():
    d = 2
    r = ideal_realization(d)
    state = np.zeros(d * d, dtype=complex)
    state[3] = 1.0  # |11>: psi_00 = 0, psi_11 = 1
    eye = np.eye(d, dtype=complex)
    fidelity, aux, residuals = _assert_matches_block_oracle(
        dataclasses.replace(r, state=state), eye, eye
    )
    assert abs(fidelity - 1 / np.sqrt(2)) <= 1e-15
    assert aux.tolist() == [1.0]
    assert residuals == {"state_off_diagonal": 0.0, "state_diagonal_mismatch": 1.0}


def test_canonicalize_state_nan_entry_gives_nan_fidelity_and_residuals():
    d = 3
    r = scramble(ideal_realization(d), 2, 1, seed=4)
    result = extract(r)
    state = r.state.copy()
    state[5] = np.nan
    canon = canonicalized_realization(dataclasses.replace(r, state=state), result.u_a, result.u_b)
    fidelity, _, residuals = canonicalize_state(canon)
    assert np.isnan(fidelity)
    assert np.isnan(residuals["state_off_diagonal"])
    assert np.isnan(residuals["state_diagonal_mismatch"])


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
    # the result carries the realization rotated by its own unitaries
    canon = canonicalized_realization(r, result.u_a, result.u_b)
    assert np.array_equal(result.canonical.state, canon.state)
    for got, expected in zip(
        (*result.canonical.observables_a, *result.canonical.observables_b),
        (*canon.observables_a, *canon.observables_b),
    ):
        assert np.array_equal(got, expected)
    # physics unchanged by canonicalization
    drift = np.abs(
        correlators_from_realization(result.canonical) - correlators_from_realization(r)
    ).max()
    assert drift < 1e-8


@pytest.mark.parametrize("d,aux", [(2, (1, 1)), (3, (2, 3)), (5, (3, 1))], ids=str)
def test_extract_residuals_are_the_rotated_observables_distances_to_ideal(d, aux):
    # each of the four conjugation residuals is |U X U^dag - X_ideal (x) I|,
    # read off the rotated realization the result carries
    r = scramble(ideal_realization(d), *aux, seed=7 * d)
    result = extract(r)
    ideal = ideal_realization(d)
    for party, u, pair, targets, m in (
        ("bob", result.u_b, r.observables_b, ideal.observables_b, aux[1]),
        ("alice", result.u_a, r.observables_a, ideal.observables_a, aux[0]),
    ):
        for i, (o, target) in enumerate(zip(pair, targets), 1):
            expected = frobenius_distance(u @ o @ dagger(u), np.kron(target, np.eye(m)))
            assert result.residuals[f"{party}_observable_{i}"] == expected


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
    ca = correlators_from_realization(r)
    cb = correlators_from_realization(s)
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


@pytest.mark.parametrize("d", [2, 3, 7])
def test_violation_gap_is_the_value_and_its_distance_to_the_quantum_bound(d):
    ideal = ideal_realization(d)
    value, gap = violation_gap(ideal)
    assert value == evaluate(BellFunctional.satwap(d), correlators_from_realization(ideal))
    assert gap == abs(value - quantum_bound(d)) <= tol_violation(d)
    swapped = dataclasses.replace(ideal, observables_b=ideal.observables_b[::-1])
    assert violation_gap(swapped)[1] > tol_violation(d)


def test_extract_decomposes_each_observable_once(cost):
    r = scramble(ideal_realization(3), 2, 2, seed=11)
    cost.clear()
    result = extract(r)
    assert result.fidelity >= 1 - 1e-7
    assert cost.sizes() <= Counter({6: 4})


def test_a_nan_trace_stops_the_extraction_and_is_named(monkeypatch):
    # a NaN must fail the trace gate, not slip through as "not above tolerance"
    r = scramble(ideal_realization(6), 2, 2, seed=4)
    monkeypatch.setattr(
        qsk.selftest, "check_trace_conditions", lambda dec: {1: 0.0, 2: float("nan"), 3: 0.0}
    )
    with pytest.raises(ExtractionError) as err:
        extract(r)
    assert err.value.stage == "trace-conditions"
    assert err.value.diagnostic.startswith("Tr(A1^2) does not vanish for proper divisor n=2")


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
    # poisoned where scramble reads them, however the property computes them
    nan = np.full((2, 2, 3, 3), np.nan, dtype=complex)
    monkeypatch.setattr(Realization, "correlators", property(lambda r: nan))
    with pytest.raises(ValueError, match="changed the correlations"):
        scramble(ideal_realization(3), 2, 1, seed=0)


def test_block_alignment_gate_rejects_nan_block():
    d = 3
    z, t = z_observable(d), t_observable(d)
    b2 = t.copy()
    b2[0, 1] = np.nan
    with pytest.raises(ExtractionError, match=r"F F\^dag"):
        extract_bob(b2, eig_unitary(z, d), eig_unitary(t, d))


def test_block_alignment_gate_names_the_first_failing_block():
    # blocks (0,2) and (0,3) both fail F F^dag = (4/d^2) I, block (0,3) by
    # more: the gate names (0,2) with its own defect, |(2 F)(2 F)^dag - I| = 3
    d = 4
    z, t = z_observable(d), t_observable(d)
    b2 = t.copy()
    b2[0, 2] *= 2
    b2[0, 3] *= 3
    with pytest.raises(ExtractionError) as err:
        extract_bob(b2, eig_unitary(z, d), eig_unitary(t, d))
    assert err.value.stage == "block-alignment"
    assert "block (0,2) of the second observable" in err.value.diagnostic
    assert err.value.diagnostic.endswith("by 3.000e+00")


def test_alignment_refusals_name_the_relation_that_failed():
    # both gates run only after extract's violation gate has passed, so
    # neither may say that the input does not maximally violate
    d = 3
    z, t = z_observable(d), t_observable(d)
    unequal = np.diag(omega(d) ** np.array([0, 0, 1]))  # multiplicities (2, 1, 0)
    b2 = t.copy()
    b2[0, 1] *= 2
    with pytest.raises(ExtractionError) as multiplicities:
        check_multiplicities(eig_unitary(unequal, d))
    with pytest.raises(ExtractionError) as block:
        extract_bob(b2, eig_unitary(z, d), eig_unitary(t, d))
    for err, relation in (
        (multiplicities, "eigenvalue multiplicities (2, 1, 0) are not one common m >= 1"),
        (block, "fails F F^dag = (4/d^2) I"),
    ):
        assert relation in err.value.diagnostic
        assert "maximally violat" not in str(err.value)
        assert "maximal violator" not in str(err.value)


def test_conjugation_gate_rejects_nan_unitary():
    ideal = ideal_realization(3)
    nan = np.full((3, 3), np.nan)
    with pytest.raises(ExtractionError, match="misses its canonical form"):
        qsk.selftest._verify_conjugation(canonicalized_realization(ideal, nan, nan), ideal)
