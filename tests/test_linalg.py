import numpy as np
import pytest

from _oracles import unitary_power

import qsk.linalg
from qsk.linalg import (
    EigenDecomposition,
    NotOrderDError,
    assert_unitary,
    dagger,
    eig_unitary,
    frobenius_distance,
    haar_random_unitary,
    kron_sum_norm,
    omega,
    partial_trace,
    roots_of_unity,
    worst,
)
from qsk.canonical import maximally_entangled, t_observable, z_observable

rng = np.random.default_rng(20260810)


def test_kron_identity_cases():
    i2 = np.eye(2, dtype=complex)
    assert np.allclose(np.kron(np.diag([1.0, -1.0]).astype(complex), i2), np.diag([1, 1, -1, -1]))


def test_kron_eigenvalue_multiplicities():
    # oracle: raw eigenvalues of the expanded product, snapped and counted
    m = np.kron(z_observable(3), np.eye(2))
    raw = np.linalg.eigvals(m)
    counts = [0, 0, 0]
    for lam in raw:
        j = int(np.round(np.angle(lam) * 3 / (2 * np.pi))) % 3
        assert abs(lam - omega(3, j)) < 1e-9
        counts[j] += 1
    assert counts == [2, 2, 2]
    assert eig_unitary(m, 3).multiplicities == (2, 2, 2)


def test_dagger():
    assert np.allclose(dagger(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(dagger(np.diag([1j, -1j])), np.diag([-1j, 1j]))
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.allclose(dagger(dagger(m)), m)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_unitary_power_order(d):
    assert frobenius_distance(unitary_power(z_observable(d), d), np.eye(d)) < 1e-12


def test_unitary_power_negative():
    w = omega(3, 1)
    expected = np.diag([1, w**2, w])
    assert np.allclose(unitary_power(z_observable(3), -1), expected)


def test_unitary_power_t2_squares_to_identity():
    t2 = t_observable(2)
    assert np.allclose(t2, np.array([[0, -1], [-1, 0]]))
    assert np.allclose(unitary_power(t2, 2), np.eye(2))


def test_unitary_power_group_law():
    d = 6
    t = t_observable(d)
    for _ in range(10):
        j, k = (int(v) for v in rng.integers(-d, d + 1, size=2))
        lhs = unitary_power(t, j + k)
        rhs = unitary_power(t, j) @ unitary_power(t, k)
        assert frobenius_distance(lhs, rhs) < 1e-9


def test_unitary_power_rejects_nonunitary_for_negative_k():
    with pytest.raises(ValueError):
        unitary_power(np.diag([2.0, 1.0]).astype(complex), -1)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_eig_unitary_simple_spectrum(d):
    decomp = eig_unitary(z_observable(d), d)
    assert decomp.multiplicities == (1,) * d
    assert decomp.reconstruction_error(z_observable(d)) < 1e-9


def test_eig_unitary_degenerate_groups():
    m = np.kron(z_observable(2), np.eye(3))
    decomp = eig_unitary(m, 2)
    assert decomp.multiplicities == (3, 3)
    # grouped columns stay orthonormal and reconstruct the operator
    v = decomp.vectors
    assert frobenius_distance(dagger(v) @ v, np.eye(6)) < 1e-10
    assert decomp.reconstruction_error(m) < 1e-9


def test_eig_unitary_snap_failure():
    bad = np.diag([1.0, np.exp(0.3j)])
    with pytest.raises(NotOrderDError):
        eig_unitary(bad, 2)


def test_eig_unitary_snaps_to_exact_roots_grouped_by_exponent():
    d, m = 5, 2
    g = haar_random_unitary(d * m, rng)
    decomp = eig_unitary(g @ np.kron(dagger(z_observable(d)), np.eye(m)) @ dagger(g), d)
    assert decomp.multiplicities == (m,) * d
    expected = [omega(d, j) for j in range(d) for _ in range(m)]
    assert decomp.eigenvalues.tolist() == expected


def test_roots_of_unity_reduces_exponents_and_matches_omega():
    n = 12
    k = np.arange(-2 * n, 3 * n).reshape(5, n)
    assert np.array_equal(roots_of_unity(n, k), roots_of_unity(n, k % n))
    assert roots_of_unity(n, np.arange(n)).tolist() == [omega(n, j) for j in range(n)]


@pytest.mark.parametrize("position", [0, 1, 2])
def test_worst_is_nan_when_any_residual_is_nan(position):
    residuals = [1e-14, 0.0, 3e-15]
    assert worst(*residuals) == 1e-14
    residuals[position] = float("nan")
    assert np.isnan(worst(*residuals))
    assert np.isnan(worst(np.float64(1.0), *residuals))


def test_eig_unitary_projectors_resolve_identity():
    d = 4
    decomp = eig_unitary(t_observable(d), d)
    acc = sum(decomp.projector(j) for j in range(d))
    assert frobenius_distance(acc, np.eye(d)) < 1e-9


def test_partial_trace_maximally_mixed():
    for d in (2, 3, 5):
        rho = partial_trace(maximally_entangled(d), (d, d), "A")
        assert frobenius_distance(rho, np.eye(d) / d) < 1e-12


def test_partial_trace_product_state():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    rho_b = partial_trace(v, (2, 2), "B")
    assert np.allclose(rho_b, np.diag([1.0, 0.0]))


def test_partial_trace_unit_trace():
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v /= np.linalg.norm(v)
    for keep in ("A", "B"):
        assert abs(np.trace(partial_trace(v, (3, 4), keep)) - 1.0) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.ones(5, dtype=complex), (2, 2), "A")


def test_frobenius_distance():
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert frobenius_distance(m, m) == 0.0
    assert abs(frobenius_distance(np.eye(2, dtype=complex), np.zeros((2, 2))) - np.sqrt(2)) < 1e-12
    n = rng.standard_normal((4, 4)) + 0j
    assert abs(frobenius_distance(m, n) - frobenius_distance(n, m)) < 1e-12
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(3))


def test_haar_random_unitary_is_unitary():
    for n in (2, 5, 16):
        u = haar_random_unitary(n, rng)
        assert frobenius_distance(dagger(u) @ u, np.eye(n)) < 1e-10


def test_kron_sum_norm_of_one_term_is_the_kron_product_norm():
    a = 2 * haar_random_unitary(2, rng)
    b = haar_random_unitary(3, rng)
    # |a (x) b| = |a| |b| = 2 sqrt(2) sqrt(3)
    assert abs(kron_sum_norm(a[None], b[None]) - np.linalg.norm(np.kron(a, b))) <= 1e-14
    assert abs(kron_sum_norm(a[None], b[None]) - 2 * np.sqrt(6)) <= 1e-14


def test_kron_sum_norm_of_cancelling_terms_is_zero():
    a = haar_random_unitary(2, rng)
    b = haar_random_unitary(3, rng)
    assert kron_sum_norm(np.stack([a, -a]), np.stack([b, b])) <= 1e-15


# Every gate reads ``not (x <= tol)``: a NaN residual must fail, not pass.


def test_assert_unitary_rejects_nan_entry():
    m = np.eye(3, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        assert_unitary(m)


def test_eig_unitary_snap_gate_rejects_nan_eigenvalue(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(a.shape[0], np.nan + 0j))
    with pytest.raises(NotOrderDError, match="nearest d-th root"):
        eig_unitary(z_observable(3), 3)


@pytest.mark.parametrize("position", [0, 2])
def test_eig_unitary_snap_gate_rejects_one_nan_eigenvalue(position, monkeypatch):
    roots = np.array([omega(3, j) for j in range(3)])
    roots[position] = np.nan
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: roots)
    with pytest.raises(NotOrderDError, match="nearest d-th root"):
        eig_unitary(z_observable(3), 3)


def test_eig_unitary_trace_gate_rejects_nan_projector(monkeypatch):
    monkeypatch.setattr(
        qsk.linalg, "spectral_projectors", lambda a, d: [np.full(a.shape, np.nan)] * d
    )
    with pytest.raises(NotOrderDError, match="projector trace"):
        eig_unitary(z_observable(3), 3)


def test_eig_unitary_eigenspace_gate_rejects_nan_singular_values(monkeypatch):
    svd = np.linalg.svd

    def nan_svd(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return u, np.full_like(s, np.nan), vh

    monkeypatch.setattr(np.linalg, "svd", nan_svd)
    with pytest.raises(NotOrderDError, match="ill-defined"):
        eig_unitary(z_observable(3), 3)


def test_eig_unitary_reconstruction_gate_rejects_nan_error(monkeypatch):
    monkeypatch.setattr(EigenDecomposition, "reconstruction_error", lambda self, a: np.nan)
    with pytest.raises(NotOrderDError, match="reconstruction error"):
        eig_unitary(z_observable(3), 3)
