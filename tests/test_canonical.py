import numpy as np
import pytest

import _oracles
from _oracles import structural_unitaries
from _helpers import frobenius_distance, omega

import qsk
from qsk.bell import born_probabilities, correlators_from_realization
from qsk.canonical import (
    cglmp_eigenbasis,
    cglmp_realization,
    ideal_realization,
    maximally_entangled,
    t_eigenbasis,
    t_observable,
    w1_w2,
    w_alice,
    z_observable,
)
from qsk.linalg import dagger, eig_unitary
from qsk.satwap import BellFunctional, coefficient_a, evaluate
from qsk.cyclotomic import proper_divisors


def test_z_observable_basic():
    assert np.allclose(z_observable(2), np.diag([1, -1]))
    for d in (2, 5, 9):
        z = z_observable(d)
        assert abs(np.trace(z)) < 1e-12
        assert frobenius_distance(np.linalg.matrix_power(z, d), np.eye(d)) < 1e-12


def test_t_observable_d2_frozen():
    assert np.allclose(t_observable(2), np.array([[0, -1], [-1, 0]]))


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_t_observable_structure(d):
    t = t_observable(d)
    assert frobenius_distance(t, t.T) == 0.0
    assert frobenius_distance(dagger(t) @ t, np.eye(d)) < 1e-10
    for n in proper_divisors(d):
        assert abs(np.trace(np.linalg.matrix_power(t, n))) < 1e-8
    assert eig_unitary(t, d).multiplicities == (1,) * d


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_t_eigenvector_formula(d):
    t = t_observable(d)
    basis = np.column_stack([t_eigenbasis(d)[:, r] for r in range(d)])
    for r in range(d):
        v = basis[:, r]
        assert np.linalg.norm(t @ v - omega(d, r) * v) < 1e-9
    # orthonormal columns diagonalize the observable
    assert frobenius_distance(dagger(basis) @ basis, np.eye(d)) < 1e-9
    assert frobenius_distance(dagger(basis) @ t @ basis, np.diag([omega(d, r) for r in range(d)])) < 1e-9


def test_t_eigenvector_d2_direction():
    v = t_eigenbasis(2)[:, 0]
    # eigenvalue +1 eigenvector of [[0,-1],[-1,0]] is proportional to (1,-1)
    assert abs(v[0] + v[1]) < 1e-12
    assert abs(np.linalg.norm(v) - 1) < 1e-12


@pytest.mark.parametrize("d", list(range(2, 17)))
def test_ideal_alice_unitary_order_d(d):
    for a in ideal_realization(d).observables_a:
        assert frobenius_distance(dagger(a) @ a, np.eye(d)) < 1e-9
        assert frobenius_distance(np.linalg.matrix_power(a, d), np.eye(d)) < 1e-8
        for n in proper_divisors(d):
            assert abs(np.trace(np.linalg.matrix_power(a, n))) < 1e-8


def test_ideal_alice_d2_matches_optimal_qubit_pair():
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    a1, a2 = ideal_realization(2).observables_a
    assert frobenius_distance(a1, (sigma_z + sigma_x) / np.sqrt(2)) < 1e-12
    assert frobenius_distance(a2, (sigma_z - sigma_x) / np.sqrt(2)) < 1e-12


def test_maximally_entangled():
    v = maximally_entangled(2)
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))
    for d in (2, 4, 7):
        s = maximally_entangled(d)
        assert abs(np.linalg.norm(s) - 1) < 1e-12
        psi = s.reshape(d, d)  # Tr_B |phi_d+><phi_d+| = psi psi^dag = I/d
        assert frobenius_distance(psi @ dagger(psi), np.eye(d) / d) < 1e-12


@pytest.mark.parametrize("d", [2, 5])
def test_cglmp_attains_quantum_bound(d):
    value = evaluate(
        BellFunctional.satwap(d), correlators_from_realization(cglmp_realization(d))
    )
    assert abs(value - 2 * (d - 1)) < 1e-9


def test_cglmp_observables_order_d():
    d = 6
    cglmp = cglmp_realization(d)
    for o in (*cglmp.observables_a, *cglmp.observables_b):
        assert eig_unitary(o, d).multiplicities == (1,) * d


def test_cglmp_eigenbases_orthonormal():
    d = 5
    for party, setting in (("A", 1), ("A", 2), ("B", 1), ("B", 2)):
        basis = cglmp_eigenbasis(d, party, setting)
        assert frobenius_distance(dagger(basis) @ basis, np.eye(d)) < 1e-10


def test_structural_unitaries():
    d = 7
    f, y, s, m1, m2 = structural_unitaries(d)
    for u in (f, y, s, m1, m2):
        assert frobenius_distance(dagger(u) @ u, np.eye(d)) < 1e-10
    assert frobenius_distance(s @ s, np.eye(d)) < 1e-12
    # the Fourier matrix diagonalizes the cyclic shift
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    diag = dagger(f) @ shift @ f
    assert frobenius_distance(diag, np.diag(np.diag(diag))) < 1e-10
    assert frobenius_distance(diag, dagger(z_observable(d))) < 1e-10


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_w1_w2_conjugations(d):
    z, t = z_observable(d), t_observable(d)
    w1, w2 = w1_w2(d)
    cglmp = cglmp_realization(d)
    (a1p, a2p), (b1p, b2p) = cglmp.observables_a, cglmp.observables_b
    assert frobenius_distance(a1p, w1 @ z @ dagger(w1)) < 1e-8
    assert frobenius_distance(a2p, w1 @ t @ dagger(w1)) < 1e-8
    assert frobenius_distance(b1p, w2 @ z @ dagger(w2)) < 1e-8
    assert frobenius_distance(b2p, w2 @ t @ dagger(w2)) < 1e-8


def test_w1_w2_match_composed_form_up_to_sign():
    d = 5
    f, y, s, m1, m2 = structural_unitaries(d)
    w1, w2 = w1_w2(d)
    assert frobenius_distance(w1, -dagger(m1) @ f @ dagger(y)) < 1e-12
    assert frobenius_distance(w2, -s @ dagger(m2) @ f @ dagger(y)) < 1e-12


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_eigenvector_phase_identities(d):
    w1, w2 = w1_w2(d)
    e = np.eye(d)
    for r in range(d):
        lhs = dagger(w1) @ cglmp_eigenbasis(d, "A", 1)[:, r]
        rhs = np.exp(1j * np.pi * (1 - (r == 0) - r / d)) * e[r]
        assert np.linalg.norm(lhs - rhs) < 1e-8

        lhs = dagger(w1) @ cglmp_eigenbasis(d, "A", 2)[:, r]
        assert np.linalg.norm(lhs + t_eigenbasis(d)[:, r]) < 1e-8

        # first Bob phase: conjugate of exp(i pi (2 - (r-1)/d - delta_r0))
        lhs = dagger(w2) @ cglmp_eigenbasis(d, "B", 1)[:, r]
        rhs = np.exp(-1j * np.pi * (2 - (r - 1) / d - (r == 0))) * e[r]
        assert np.linalg.norm(lhs - rhs) < 1e-8

        lhs = dagger(w2) @ cglmp_eigenbasis(d, "B", 2)[:, r]
        assert np.linalg.norm(lhs + omega(d, r - 1) * t_eigenbasis(d)[:, r]) < 1e-8


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_w_alice_relations(d):
    wa = w_alice(d)
    z, t = z_observable(d), t_observable(d)
    assert frobenius_distance(dagger(wa) @ wa, np.eye(d)) < 1e-10
    a1, a2 = ideal_realization(d).observables_a
    assert frobenius_distance(wa @ z @ dagger(wa), a1) < 1e-8
    assert frobenius_distance(wa @ t @ dagger(wa), a2) < 1e-8


def test_w_alice_d2_explicit():
    # 2x2 arithmetic: the rotation carries sigma_z to (sigma_z+sigma_x)/sqrt(2)
    # and -sigma_x to (sigma_z-sigma_x)/sqrt(2)
    wa = w_alice(2)
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert frobenius_distance(wa @ sigma_z @ dagger(wa), (sigma_z + sigma_x) / np.sqrt(2)) < 1e-12
    assert frobenius_distance(wa @ (-sigma_x) @ dagger(wa), (sigma_z - sigma_x) / np.sqrt(2)) < 1e-12


def test_w_alice_coefficients_fixed_by_linear_system():
    # the conjugated pair (X, Y) must solve Z = a1 X + a1* Y and
    # T = a1* w X + a1 Y; the attained solution has the T coefficients
    # -2(a1*)^3 and +a1*
    d = 5
    a1 = coefficient_a(d, 1)
    wa = w_alice(d)
    z, t = z_observable(d), t_observable(d)
    x = wa @ z @ dagger(wa)
    y = wa @ t @ dagger(wa)
    assert frobenius_distance(a1 * x + a1.conjugate() * y, z) < 1e-9
    assert frobenius_distance(a1.conjugate() * omega(d, 1) * x + a1 * y, t) < 1e-9


@pytest.mark.parametrize("d", list(range(2, 17)))
def test_ideal_realization_attains_bound(d):
    value = evaluate(
        BellFunctional.satwap(d), correlators_from_realization(ideal_realization(d))
    )
    assert abs(value - 2 * (d - 1)) < 1e-9


def test_ideal_realization_bob_marginals_uniform():
    d = 5
    p = born_probabilities(ideal_realization(d))
    marg_b = p.sum(axis=2)
    assert np.abs(marg_b - 1 / d).max() < 1e-9


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_cglmp_and_canonical_statistics_identical(d):
    pa = born_probabilities(cglmp_realization(d))
    pb = born_probabilities(ideal_realization(d))
    assert np.abs(pa - pb).max() < 1e-8


@pytest.mark.parametrize("d", list(range(2, 17)))
def test_every_produced_unitary_is_tightly_unitary(d):
    produced = [z_observable(d), t_observable(d), w_alice(d)]
    produced += list(w1_w2(d))
    produced += list(structural_unitaries(d))
    produced += list(ideal_realization(d).observables_a)
    cglmp = cglmp_realization(d)
    produced += [*cglmp.observables_a, *cglmp.observables_b]
    for u in produced:
        assert frobenius_distance(dagger(u) @ u, np.eye(d)) <= 1e-10


@pytest.mark.parametrize("d", [*range(2, 17), 64])
def test_closed_forms_match_their_loop_oracles(d):
    cglmp = cglmp_realization(d)
    pairs = [
        (z_observable(d), _oracles.z_observable(d)),
        (t_observable(d), _oracles.t_observable(d)),
        (w_alice(d), _oracles.w_alice(d)),
        *zip((*cglmp.observables_a, *cglmp.observables_b), _oracles.cglmp_observables(d)),
        *zip(w1_w2(d), _oracles.w1_w2(d)),
    ]
    for r in range(d):
        pairs.append((t_eigenbasis(d)[:, r], _oracles.t_eigenvector(d, r)))
        for party in ("A", "B"):
            for setting in (1, 2):
                pairs.append(
                    (
                        cglmp_eigenbasis(d, party, setting)[:, r],
                        _oracles.cglmp_eigenvector(d, party, setting, r),
                    )
                )
    for fast, slow in pairs:
        assert np.abs(fast - slow).max() <= 1e-12


def test_canonical_builds_make_no_scalar_omega_call():
    # the scalar omega is a test reference only: no qsk module binds one, so
    # every construction reads its phases off roots_of_unity tables
    assert [name for name, module in vars(qsk).items() if hasattr(module, "omega")] == []
