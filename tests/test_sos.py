import numpy as np
import pytest

from _helpers import random_order_d, random_realization

from qsk.bell import Realization
from qsk.canonical import (
    ideal_alice_observables,
    ideal_realization,
    maximally_entangled,
    t_observable,
    z_observable,
)
from qsk.linalg import dagger, frobenius_distance, haar_random_unitary, kron, omega
from qsk.sos import (
    c_operators,
    cbar_operators,
    check_commutation_relation,
    check_fij_structure,
    check_intermediate_identities,
    check_root_identities,
    check_trace_conditions,
    extract_blocks,
    sos_residual_alice,
    sos_residual_bob,
    stabilizer_residuals,
)

rng = np.random.default_rng(31337)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_c_operators_on_canonical_pair(d):
    cset = c_operators(z_observable(d), t_observable(d), d)
    assert cset.dagger_pairing_residual() < 1e-9
    eye = np.eye(d)
    for i in (1, 2):
        c1 = cset.ops[(i, 1)]
        for k in range(1, d):
            ck = cset.ops[(i, k)]
            assert frobenius_distance(ck @ dagger(ck), eye) < 1e-9
            assert frobenius_distance(cset.ops[(i, d - k)] @ ck, eye) < 1e-9
            assert frobenius_distance(ck, np.linalg.matrix_power(c1, k)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_cbar_operators_on_ideal_alice(d):
    a1, a2 = ideal_alice_observables(d)
    cset = cbar_operators(a1, a2, d)
    assert frobenius_distance(cset.ops[(1, 1)], z_observable(d).conj()) < 1e-8
    assert frobenius_distance(cset.ops[(2, 1)], t_observable(d).conj()) < 1e-8
    for i in (1, 2):
        c1 = cset.ops[(i, 1)]
        for k in range(1, d):
            assert frobenius_distance(cset.ops[(i, k)], np.linalg.matrix_power(c1, k)) < 1e-8


@pytest.mark.parametrize("d", list(range(2, 11)))
def test_sos_residuals_vanish_at_canonical_point(d):
    r = ideal_realization(d)
    assert sos_residual_bob(r) < 1e-8
    assert sos_residual_alice(r) < 1e-8


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sos_is_an_operator_identity(d):
    # arbitrary order-d observables, aux dimensions up to 3d
    for _ in range(3):
        da = d * int(rng.integers(1, 4))
        db = d * int(rng.integers(1, 4))
        r = random_realization(d, rng, dim_a=da, dim_b=db)
        assert sos_residual_bob(r) < 1e-8
        assert sos_residual_alice(r) < 1e-8


def test_sos_identity_at_upper_dimension_range():
    # d = 10 with one aux factor at the 3d ceiling
    d = 10
    r = random_realization(d, rng, dim_a=d, dim_b=3 * d)
    assert sos_residual_bob(r) < 1e-8
    assert sos_residual_alice(r) < 1e-8


@pytest.mark.parametrize("d", list(range(2, 11)))
def test_stabilizers_at_canonical_point(d):
    r = ideal_realization(d)
    for side in ("bob", "alice"):
        residuals = stabilizer_residuals(r, side)
        assert max(residuals.values()) < 1e-9


def test_stabilizers_fail_off_the_maximal_point():
    r = random_realization(3, rng)
    assert max(stabilizer_residuals(r, "bob").values()) > 1e-3


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_commutation_relation_canonical(d):
    assert check_commutation_relation(z_observable(d), t_observable(d), d) < 1e-9


def test_commutation_relation_fails_for_commuting_pair():
    d = 5
    z = z_observable(d)
    residual = check_commutation_relation(z, z, d)
    expected = max(abs(omega(d, -k) - 1) * np.sqrt(d) for k in range(1, d))
    assert abs(residual - expected) < 1e-9


def test_commutation_relation_periodic_in_k():
    # k and k + d give the same residual: exponents only matter mod d
    d = 4
    b1 = random_order_d(d, d, rng)
    b2 = random_order_d(d, d, rng)
    from qsk.linalg import unitary_power

    for k in range(1, d):
        r1 = np.linalg.norm(
            unitary_power(b1, k) @ unitary_power(b2, -k)
            - omega(d, -k) * unitary_power(b2, k) @ unitary_power(b1, -k)
        )
        r2 = np.linalg.norm(
            unitary_power(b1, k + d) @ unitary_power(b2, -(k + d))
            - omega(d, -(k + d)) * unitary_power(b2, k + d) @ unitary_power(b1, -(k + d))
        )
        assert abs(r1 - r2) < 1e-9


def test_trace_conditions_z6():
    report = check_trace_conditions(z_observable(6), 6)
    assert report.passed
    assert [n for n, _ in report.entries] == [1, 2, 3]
    assert all(v < 1e-12 for _, v in report.entries)


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_trace_conditions_canonical_pair(d):
    assert check_trace_conditions(z_observable(d), d).passed
    assert check_trace_conditions(t_observable(d), d).passed


def test_trace_conditions_unequal_multiplicities():
    w = omega(4, 1)
    bad = np.diag([1.0, 1.0, w**2, w**3])
    report = check_trace_conditions(bad, 4)
    assert not report.passed
    assert report.witness == 1


@pytest.mark.parametrize("d", list(range(2, 11)))
def test_intermediate_identities_canonical(d):
    report = check_intermediate_identities(
        z_observable(d), t_observable(d), d, s_values=(0, 1, 2)
    )
    assert report.max_residual < 1e-8


def test_intermediate_identities_zero_exponent_trivial():
    d = 5
    b1 = random_order_d(d, d, rng)
    b2 = random_order_d(d, d, rng)
    # x = 0 instances reduce to Tr(I) = Tr(I) regardless of the pair
    lhs = np.trace(np.linalg.matrix_power(b1, 0))
    rhs = np.trace(np.eye(d))
    assert lhs == rhs


def test_doubled_power_identity_on_canonical_pair():
    d = 6
    z, t = z_observable(d), t_observable(d)
    from qsk.linalg import unitary_power

    for x in range(1, d):
        lhs = np.trace(unitary_power(z, -x) @ unitary_power(t, 2 * x))
        rhs = omega(d, x) * np.trace(unitary_power(z, x))
        assert abs(lhs - rhs) < 1e-9


def test_root_identities_frozen_small_cases():
    # d=2, n=1: sum_k k w^(kn) = -1 = 2/(w - 1)
    assert abs(sum(k * omega(2, k) for k in range(2)) - (-1)) < 1e-12
    assert abs(2 / (omega(2, 1) - 1) - (-1)) < 1e-12
    # d=3, k=1, i=0: each ratio (1 - w^j)/(1 - w^-j) equals -w^j
    total = sum((1 - omega(3, j)) / (1 - omega(3, -j)) for j in (1, 2))
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("d", list(range(2, 25)))
def test_root_identities_sweep(d):
    assert check_root_identities(d).max_residual < 1e-8


def test_fij_structure_canonical_with_aux():
    d, m = 4, 3
    b2 = kron(t_observable(d), np.eye(m))
    report = check_fij_structure(b2, d, m)
    assert report.max_alignment_free < 1e-9
    assert report.first_row < 1e-9
    assert report.off_diagonal < 1e-9
    assert report.aligned


def test_fij_structure_d2_blocks_frozen():
    t2 = t_observable(2)
    blocks = extract_blocks(t2, 2, 1)
    assert abs(blocks[0, 0][0, 0]) < 1e-12          # (d-2)/d vanishes at d=2
    assert abs(blocks[0, 1][0, 0] - (-1)) < 1e-12
    report = check_fij_structure(t2, 2, 1)
    assert report.diagonal < 1e-12
    assert report.block_unitarity < 1e-12


def test_fij_structure_detects_intra_eigenspace_rotation():
    # conjugating by a block unitary that commutes with Z (x) I preserves
    # the alignment-free equations but breaks the scalar block solutions
    d, m = 3, 2
    blocks = [haar_random_unitary(m, rng) for _ in range(d)]
    h = np.zeros((d * m, d * m), dtype=complex)
    for i in range(d):
        h[i * m : (i + 1) * m, i * m : (i + 1) * m] = blocks[i]
    b2 = h @ kron(t_observable(d), np.eye(m)) @ dagger(h)
    report = check_fij_structure(b2, d, m)
    assert report.max_alignment_free < 1e-9
    assert report.off_diagonal > 1e-3
    assert not report.aligned


def test_fij_structure_dimension_check():
    with pytest.raises(ValueError):
        check_fij_structure(t_observable(4), 4, 2)


def test_sos_per_term_stabilization_written_out():
    # spelled-out check of one stabilizer: A1 (x) C_1^(1) fixes the state
    d = 3
    r = ideal_realization(d)
    cset = c_operators(*r.observables_b, d)
    op = kron(r.observables_a[0], cset.ops[(1, 1)])
    psi = maximally_entangled(d)
    assert np.linalg.norm(op @ psi - psi) < 1e-9


def test_random_quadruples_share_no_special_structure():
    # operator identity survives when the two parties have different aux sizes
    d = 4
    state = rng.standard_normal(6 * d**2) + 1j * rng.standard_normal(6 * d**2)
    state /= np.linalg.norm(state)
    r = Realization(
        d=d,
        dims=(2 * d, 3 * d),
        state=state,
        observables_a=(random_order_d(2 * d, d, rng), random_order_d(2 * d, d, rng)),
        observables_b=(random_order_d(3 * d, d, rng), random_order_d(3 * d, d, rng)),
    )
    assert sos_residual_bob(r) < 1e-8
    assert sos_residual_alice(r) < 1e-8


def test_stabilizer_residuals_rejects_unknown_side():
    with pytest.raises(ValueError, match="side must be"):
        stabilizer_residuals(ideal_realization(2), "carol")
