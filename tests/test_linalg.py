import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import frobenius_distance, omega, projector
from _oracles import (
    eig_unitary_looped_polish,
    eig_unitary_snapped,
    eig_unitary_svd,
    unitary_power,
)

import qsk.linalg
from qsk.linalg import (
    EigenDecomposition,
    NotOrderDError,
    assert_unitary,
    dagger,
    decomposition_from_basis,
    eig_unitary,
    haar_random_unitary,
    kron_sum_norm,
    roots_of_unity,
    worst,
)
from qsk.canonical import (
    ideal_realization,
    maximally_entangled,
    t_eigenbasis,
    t_observable,
    z_observable,
)
from qsk.selftest import scramble

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
    for n in range(2, 65):
        k = np.arange(-2 * n, 3 * n).reshape(5, n)
        assert np.array_equal(roots_of_unity(n, k), roots_of_unity(n, k % n))
        # bitwise: BellFunctional.satwap and extract_bob read these two tables,
        # so any difference from the scalar reference would move the JSON
        assert roots_of_unity(n, np.arange(n)).tolist() == [omega(n, j) for j in range(n)]
        half = roots_of_unity(2 * n, np.arange(1, n + 1)).conj().tolist()
        assert half == [omega(n, -j / 2) for j in range(1, n + 1)], n


@pytest.mark.parametrize("position", [0, 1, 2])
def test_worst_is_nan_when_any_residual_is_nan(position):
    residuals = [1e-14, 0.0, 3e-15]
    assert worst(*residuals) == 1e-14
    residuals[position] = float("nan")
    assert np.isnan(worst(*residuals))
    assert np.isnan(worst(np.float64(1.0), *residuals))


@pytest.mark.parametrize("d", [2, 3, 5, 6])
@pytest.mark.parametrize("canonical, m", [(z_observable, 2), (t_observable, 3)])
def test_eig_unitary_matches_projector_svd_oracle(d, canonical, m):
    # own generator: drawing from the module's would shift every later test's data
    g = haar_random_unitary(d * m, np.random.default_rng(d))
    a = g @ np.kron(canonical(d), np.eye(m)) @ dagger(g)
    fast, oracle = eig_unitary(a, d), eig_unitary_svd(a, d)
    assert fast.multiplicities == oracle.multiplicities == (m,) * d
    for j in range(d):
        assert frobenius_distance(projector(fast, j), projector(oracle, j)) <= 1e-12
    # the qr(P_j V_j) polish brings the error to the SVD path's; without it
    # the error is up to 3x higher on these inputs
    assert fast.reconstruction_error(a) <= 1.5 * oracle.reconstruction_error(a)


def _scrambled_diagonal(mults, seed):
    """A Haar-conjugated diagonal order-d observable, d = len(mults), with
    eigenvalue w**j repeated mults[j] times in a shuffled diagonal."""
    d = len(mults)
    g = np.random.default_rng(seed)
    diagonal = g.permutation(np.repeat(roots_of_unity(d, np.arange(d)), mults))
    u = haar_random_unitary(len(diagonal), g)
    return u @ np.diag(diagonal) @ dagger(u)


POLISH_MULTIPLICITIES = [(3, 1, 0, 2), (1, 2, 3, 1, 0, 0, 2), (1, 1, 2, 0, 3), (4,) * 6, (1,) * 16]


@pytest.mark.parametrize("mults", POLISH_MULTIPLICITIES)
def test_stacked_polish_matches_per_eigenspace_loop(mults):
    # unequal multiplicities and empty eigenspaces: the stacked QR must
    # give the loop's vectors bit for bit
    d = len(mults)
    a = _scrambled_diagonal(mults, seed=len(mults))
    fast, oracle = eig_unitary(a, d), eig_unitary_looped_polish(a, d)
    assert fast.multiplicities == oracle.multiplicities == mults
    assert np.array_equal(fast.eigenvalues, oracle.eigenvalues)
    assert np.array_equal(fast.vectors, oracle.vectors)


@pytest.mark.parametrize("mults", POLISH_MULTIPLICITIES)
def test_eig_unitary_makes_one_qr_per_multiplicity_class(mults, monkeypatch):
    a = _scrambled_diagonal(mults, seed=len(mults))
    qr = np.linalg.qr
    calls = []

    def counting_qr(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    eig_unitary(a, len(mults))
    assert len(calls) == len(set(mults) - {0})
    assert sorted(shape[0] * shape[2] for shape in calls) == sorted(
        m * mults.count(m) for m in set(mults) - {0}
    )


def test_eig_unitary_projectors_resolve_identity():
    d = 4
    decomp = eig_unitary(t_observable(d), d)
    acc = sum(projector(decomp, j) for j in range(d))
    assert frobenius_distance(acc, np.eye(d)) < 1e-9


# The grid of the one-eigensolve tests: the ideal Alice pair, each
# scrambled observable, and Z(3) read at d = 6, whose spectrum misses
# the odd roots (multiplicities (1, 0, 1, 0, 1, 0)).
EIG_GRID = [
    *(("ideal", d, None) for d in (2, 3, 5, 16, 40)),
    *(("scrambled", d, aux) for d in (2, 3, 5) for aux in ((1, 1), (2, 3), (4, 2))),
    ("z3", 6, None),
]


@functools.cache
def _grid_observables(kind, d, aux):
    if kind == "ideal":
        return ideal_realization(d).observables_a
    if kind == "scrambled":
        r = scramble(ideal_realization(d), *aux, seed=d)
        return (*r.observables_a, *r.observables_b)
    return (z_observable(3),)


@pytest.mark.parametrize("kind, d, aux", EIG_GRID)
def test_eig_unitary_matches_the_snapped_two_eigensolve_oracle(kind, d, aux):
    for a in _grid_observables(kind, d, aux):
        fast, oracle = eig_unitary(a, d), eig_unitary_snapped(a, d)
        assert fast.multiplicities == oracle.multiplicities
        assert np.array_equal(fast.vectors, oracle.vectors)
    if kind == "z3":
        assert fast.multiplicities == (1, 0, 1, 0, 1, 0)


@pytest.mark.parametrize("kind, d, aux", EIG_GRID)
def test_eig_unitary_makes_one_hermitian_eigensolve(kind, d, aux, monkeypatch):
    observables = _grid_observables(kind, d, aux)
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigh(*args, **kwargs)

    def unreachable(*args, **kwargs):
        raise AssertionError("eig_unitary called a non-Hermitian eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvals", unreachable)
    monkeypatch.setattr(np.linalg, "eig", unreachable)
    for a in observables:
        eig_unitary(a, d)
    assert calls == [a.shape for a in observables]


@settings(max_examples=100, deadline=None)
@example(d=2, n=1, seed=0, fraction=0.0, sign=1)
@example(d=12, n=24, seed=1, fraction=0.0, sign=-1)
@given(
    d=st.integers(2, 12),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 1.0),
    sign=st.sampled_from([-1, 1]),
)
def test_eig_unitary_refuses_an_eigenvalue_off_every_root(d, n, seed, fraction, sign):
    # one angle moved by delta in [1e-6, pi/d] off its root sits at least
    # 1e-6 in angle from every d-th root; the same matrix without the move
    # passes, so the refusal is the move's
    g = np.random.default_rng(seed)
    u = haar_random_unitary(n, g)
    theta = 2 * np.pi * g.integers(0, d, n) / d
    eig_unitary((u * np.exp(1j * theta)) @ dagger(u), d)
    theta[g.integers(n)] += sign * (1e-6 + fraction * (np.pi / d - 1e-6))
    with pytest.raises(NotOrderDError):
        eig_unitary((u * np.exp(1j * theta)) @ dagger(u), d)


def test_partial_trace_maximally_mixed():
    # Tr_B |phi_d+><phi_d+| = I/d: with psi the state as a (d, d) matrix,
    # the reduced state of A is psi psi^dag
    for d in (2, 3, 5):
        psi = maximally_entangled(d).reshape(d, d)
        assert frobenius_distance(psi @ dagger(psi), np.eye(d) / d) < 1e-12


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
    # own generator: a roundoff-level bound must not depend on test order
    g = np.random.default_rng(202)
    a = haar_random_unitary(2, g)
    b = haar_random_unitary(3, g)
    assert kron_sum_norm(np.stack([a, -a]), np.stack([b, b])) <= 1e-15


def test_real_embedding_of_hermitian_stacks_keeps_kron_sum_norm():
    # x -> Re x + Im x: for Hermitian x the real part is symmetric and the
    # imaginary part antisymmetric, so the embedding keeps the inner
    # product tr(xy), and with it the norm of a sum of Kronecker products
    g = np.random.default_rng(303)

    def hermitian(t, n):
        z = g.standard_normal((t, n, n)) + 1j * g.standard_normal((t, n, n))
        return (z + dagger(z)) / 2

    def embed(m):
        return m.real + m.imag

    x, y = hermitian(2, 5)
    assert abs(np.sum(embed(x) * embed(y)) - np.trace(x @ y)) <= 1e-13
    for t, na, nb in ((1, 2, 3), (4, 3, 2), (7, 4, 4)):
        ls, rs = hermitian(t, na), hermitian(t, nb)
        expected = kron_sum_norm(ls, rs)
        got = kron_sum_norm(embed(ls), embed(rs))
        assert abs(got - expected) <= 1e-13 * expected


# Every gate reads ``not (x <= tol)``: a NaN residual must fail, not pass.


def test_assert_unitary_rejects_nan_entry():
    m = np.eye(3, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        assert_unitary(m)


def _eigh_with_labels(labels):
    """``np.linalg.eigh`` with the eigenvalues it returns edited by ``labels(values)``."""
    eigh = np.linalg.eigh

    def patched(h):
        values, vectors = eigh(h)
        return labels(values.copy()), vectors

    return patched


def _set(index, value):
    def edit(values):
        values[index] = value
        return values

    return edit


@pytest.mark.parametrize(
    "labels",
    [
        lambda v: np.full_like(v, np.nan),
        _set(0, np.nan),
        _set(-1, np.nan),
        _set(0, -0.6),
        _set(-1, 2.6),
    ],
    ids=["all", "first", "last", "below", "above"],
)
def test_eig_unitary_label_gate_rejects_nan_or_out_of_range_labels(labels, monkeypatch):
    # such labels must stop at the label gate, never reach bincount (a
    # ValueError that is no NotOrderDError) or index the columns
    z = z_observable(3)
    monkeypatch.setattr(np.linalg, "eigh", _eigh_with_labels(labels))
    with pytest.raises(NotOrderDError, match=r"eigenvalue labels .* leave 0\.\.2"):
        eig_unitary(z, 3)


def test_eig_unitary_reconstruction_gate_rejects_nan_error(monkeypatch):
    monkeypatch.setattr(EigenDecomposition, "reconstruction_error", lambda self, a: np.nan)
    with pytest.raises(NotOrderDError, match="reconstruction error"):
        eig_unitary(z_observable(3), 3)


# Negative controls for the certificate: each input is unitary to
# ``TOL_SCREEN`` and its labels round into 0..d-1, so only ``_certified``'s
# unitarity or reconstruction gate can refuse it.


def _clock_off_its_roots(d, seed):
    """A Haar-conjugated clock whose eigenvalues sit 5e-7 off their roots, in random directions."""
    g = np.random.default_rng(seed)
    u = haar_random_unitary(d, g)
    return (u * roots_of_unity(d, np.arange(d)) * np.exp(5e-7j * g.choice([-1, 1], d))) @ dagger(u)


@pytest.mark.parametrize("d, gate", [(8, "reconstruction error"), (64, "not unitary")])
def test_certificate_rejects_a_clock_off_its_roots(d, gate):
    # at d = 64 the label operator of the perturbed projectors is not
    # Hermitian, and the polished groups are not mutually orthogonal
    with pytest.raises(NotOrderDError, match=gate):
        eig_unitary(_clock_off_its_roots(d, seed=1), d)


def test_certificate_rejects_a_non_normal_observable():
    # upper triangular: the eigenvalues are exactly the roots on the diagonal
    z = z_observable(8).astype(complex)
    z[0, 1] = 5e-7
    with pytest.raises(NotOrderDError, match="not unitary"):
        eig_unitary(z, 8)


@pytest.mark.parametrize("basis", ["scaled", "nan"])
def test_certificate_rejects_a_bad_polished_basis(basis, monkeypatch):
    a = _scrambled_diagonal((2, 1, 3), seed=3)  # before the patch: Haar sampling reads qr
    qr = np.linalg.qr

    def bad_qr(*args, **kwargs):
        q, r = qr(*args, **kwargs)
        return (q * (1 + 1e-6) if basis == "scaled" else np.full_like(q, np.nan)), r

    monkeypatch.setattr(np.linalg, "qr", bad_qr)
    with pytest.raises(NotOrderDError, match="not unitary"):
        eig_unitary(a, 3)


@pytest.mark.parametrize("mults", [(1, 1, 1), (1, 1, 1, 2), (2, 1, 1, 0, 0)])
def test_certificate_rejects_multiplicities_that_do_not_fit(mults):
    # d = 4 and n = 4: too few eigenspaces, too many columns, too many eigenspaces
    with pytest.raises(NotOrderDError, match="shape"):
        qsk.linalg._certified(t_observable(4), t_eigenbasis(4), mults, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_unitary_refuses_non_finite_input_before_the_projectors(bad, monkeypatch):
    def unreachable(a, d):
        raise AssertionError("spectral_projectors called on a non-finite observable")

    monkeypatch.setattr(qsk.linalg, "spectral_projectors", unreachable)
    z = z_observable(3).astype(complex)
    z[1, 2] = bad
    with pytest.raises(ValueError, match="observable is not unitary"):
        eig_unitary(z, 3)


@pytest.mark.parametrize("d", [2, 5, 40])
def test_decomposition_from_basis_matches_eig_unitary(d):
    t = t_observable(d)
    given, computed = decomposition_from_basis(t, t_eigenbasis(d), d), eig_unitary(t, d)
    assert given.multiplicities == computed.multiplicities == (1,) * d
    assert np.array_equal(given.eigenvalues, computed.eigenvalues)
    assert given.reconstruction_error(t) <= 1e-13
    for r in range(d):
        assert np.abs(projector(given, r) - projector(computed, r)).max() <= 1e-12


def test_decomposition_from_basis_rejects_hyperbolic_mix():
    # columns 0 and 2 of T's basis at d = 4 have eigenvalues +1 and -1; a
    # hyperbolic rotation of the pair preserves V D V^dag but not V^dag V
    d = 4
    v = t_eigenbasis(d)
    c, s = np.cosh(0.5), np.sinh(0.5)
    v[:, [0, 2]] = v[:, [0, 2]] @ np.array([[c, s], [s, c]])
    t = t_observable(d)
    assert frobenius_distance(t, (v * roots_of_unity(d, np.arange(d))) @ dagger(v)) <= 1e-14
    assert frobenius_distance(dagger(v) @ v, np.eye(d)) > 1.8
    with pytest.raises(NotOrderDError, match="not unitary"):
        decomposition_from_basis(t, v, d)


@pytest.mark.parametrize("where", ["basis", "observable"])
def test_decomposition_from_basis_rejects_nan(where):
    d = 5
    t, v = t_observable(d), t_eigenbasis(d)
    (v if where == "basis" else t)[2, 3] = np.nan
    with pytest.raises(NotOrderDError):
        decomposition_from_basis(t, v, d)


def test_decomposition_from_basis_rejects_swapped_columns():
    # still unitary, but column 1 no longer carries w**1
    d = 5
    v = t_eigenbasis(d)[:, [0, 2, 1, 3, 4]]
    with pytest.raises(NotOrderDError, match="reconstruction error"):
        decomposition_from_basis(t_observable(d), v, d)


@pytest.mark.parametrize(
    "observable,basis",
    [
        (t_observable(4), t_eigenbasis(4)[:, :3]),
        (np.kron(t_observable(4), np.eye(2)), np.kron(t_eigenbasis(4), np.eye(2))),
    ],
    ids=["missing-column", "degenerate-spectrum"],
)
def test_decomposition_from_basis_rejects_wrong_shape(observable, basis):
    with pytest.raises(NotOrderDError, match="shape"):
        decomposition_from_basis(observable, basis, 4)
