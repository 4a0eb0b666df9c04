import dataclasses
import tracemalloc

import numpy as np
import pytest

import _oracles
from _helpers import random_order_d, random_realization

from qsk.bell import Realization
from qsk.canonical import (
    cglmp_observables,
    ideal_realization,
    maximally_entangled,
    t_observable,
    z_observable,
)
from qsk.linalg import dagger, frobenius_distance, haar_random_unitary, omega, worst
from qsk.satwap import BellFunctional, bell_operator
from qsk.sos import (
    BlockStructureReport,
    RootIdentityReport,
    TraceConditionReport,
    TraceIdentityReport,
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
    # C_i^(k) is the Bob factor the Bell operator pairs with A_i^k; Bob measures (Z, T)
    r = dataclasses.replace(ideal_realization(d), observables_b=(z_observable(d), t_observable(d)))
    c = bell_operator(BellFunctional.satwap(d), r, "bob")[1][:, 1:]
    assert c.shape == (2, d - 1, d, d)
    eye = np.eye(d)
    for i in range(2):
        for k in range(1, d):
            ck = c[i, k - 1]
            assert frobenius_distance(c[i, d - k - 1], dagger(ck)) < 1e-9  # C^(d-k) = C^(k)^dag
            assert frobenius_distance(ck @ dagger(ck), eye) < 1e-9
            assert frobenius_distance(c[i, d - k - 1] @ ck, eye) < 1e-9
            assert frobenius_distance(ck, np.linalg.matrix_power(c[i, 0], k)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_cbar_operators_on_ideal_alice(d):
    r = ideal_realization(d)
    c = bell_operator(BellFunctional.satwap(d), r, "alice")[0][:, 1:]
    assert c.shape == (2, d - 1, d, d)
    assert frobenius_distance(c[0, 0], z_observable(d).conj()) < 1e-8
    assert frobenius_distance(c[1, 0], t_observable(d).conj()) < 1e-8
    for i in range(2):
        for k in range(1, d):
            assert frobenius_distance(c[i, k - 1], np.linalg.matrix_power(c[i, 0], k)) < 1e-8


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
    from _oracles import unitary_power

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
    report = check_intermediate_identities(z_observable(d), t_observable(d), d)
    assert report.max_residual < 1e-8


def _order_d_pairs(d):
    """(Z, T), the CGLMP Bob pair and a random order-d pair at dimension d."""
    yield "canonical", z_observable(d), t_observable(d)
    yield "cglmp-bob", *cglmp_observables(d)[2:]
    yield "random", random_order_d(d, d, rng), random_order_d(d, d, rng)


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_power_stack_checks_match_loop_oracles(d):
    # random pairs break the identities, so this compares nonzero residuals too
    for name, b1, b2 in _order_d_pairs(d):
        report = check_intermediate_identities(b1, b2, d)
        fast = (report.ladder_first, report.ladder_second, report.half_phase, report.doubled_power)
        for got, want in zip(fast, _oracles.intermediate_identities(b1, b2, d)):
            assert abs(got - want) <= 1e-12, name
        assert report.order <= 1e-12, name
        got = check_commutation_relation(b1, b2, d)
        assert abs(got - _oracles.commutation_relation(b1, b2, d)) <= 1e-12, name


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_power_stack_checks_fail_closed_off_order_d(d):
    # e^{i eps} (Z, T) satisfies the commutation relation exactly, but
    # B^d = e^{i d eps} I, so no power may be read mod d
    eps = 1e-3
    phase = np.exp(1j * eps)
    b1, b2 = phase * z_observable(d), phase * t_observable(d)
    floor = abs(np.exp(1j * d * eps) - 1)
    assert _oracles.commutation_relation(b1, b2, d) < 1e-9
    assert check_commutation_relation(b1, b2, d) >= floor
    report = check_intermediate_identities(b1, b2, d)
    assert report.order >= floor
    assert report.max_residual >= floor


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
    from _oracles import unitary_power

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


@pytest.mark.parametrize("d", [2, 3, 7, 16])
def test_root_identities_match_loop_oracle(d):
    report = check_root_identities(d)
    ratio, weighted = _oracles.root_identities(d)
    assert abs(report.ratio_sum - ratio) <= 1e-12
    assert abs(report.weighted_sum - weighted) <= 1e-12
    if d == 16:
        assert report.max_residual <= 1e-13


def test_trace_condition_witness_names_a_nan_entry():
    report = TraceConditionReport(d=6, entries=((1, 0.0), (2, float("nan")), (3, 0.0)))
    assert not report.passed
    assert report.witness == 2


def test_fij_structure_canonical_with_aux():
    d, m = 4, 3
    b2 = np.kron(t_observable(d), np.eye(m))
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
    b2 = h @ np.kron(t_observable(d), np.eye(m)) @ dagger(h)
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
    op = np.kron(r.observables_a[0], bell_operator(BellFunctional.satwap(d), r, "bob")[1][0, 1])
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


def test_sos_residual_memory_stays_below_one_dense_operator():
    # d = 3, aux 8 x 8: one dense (576 x 576) complex operator is 5.06 MiB,
    # while the (L, R) stacks of all 21 Kronecker terms take about 0.4 MiB
    r = random_realization(3, rng, dim_a=24, dim_b=24)
    dense = (24 * 24) ** 2 * 16
    tracemalloc.start()
    try:
        sos_residual_bob(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", range(4), ids=["A1", "A2", "B1", "B2"])
def test_sos_residuals_fail_closed_on_a_non_finite_entry(bad, which):
    r = ideal_realization(3)
    obs = [o.copy() for o in (*r.observables_a, *r.observables_b)]
    obs[which][1, 2] = bad
    r = dataclasses.replace(r, observables_a=tuple(obs[:2]), observables_b=tuple(obs[2:]))
    with np.errstate(all="ignore"):
        residuals = [sos_residual_bob(r), sos_residual_alice(r)]
        bob = stabilizer_residuals(r, "bob")
        alice = stabilizer_residuals(r, "alice")
    assert all(np.isnan(v) for v in residuals)
    # term (i, k) reads A_i, B1, B2 on Bob's side and A1, A2, B_i on Alice's;
    # exactly the terms that read the poisoned observable turn NaN
    for (i, _), v in bob.items():
        assert np.isnan(v) == (which in (i - 1, 2, 3))
    for (i, _), v in alice.items():
        assert np.isnan(v) == (which in (0, 1, i + 1))
    assert np.isnan(worst(*bob.values(), *alice.values()))


def test_stabilizer_residuals_rejects_unknown_side():
    with pytest.raises(ValueError, match="side must be"):
        stabilizer_residuals(ideal_realization(2), "carol")


CLEAN_TRACE = TraceIdentityReport(
    d=3, ladder_first=1e-14, ladder_second=1e-14, half_phase=0.0, doubled_power=0.0, order=0.0
)
CLEAN_ROOT = RootIdentityReport(d=3, ratio_sum=1e-15, weighted_sum=0.0)
CLEAN_BLOCKS = BlockStructureReport(
    d=3, aux_dim=1, diagonal=0.0, transpose_pairing=0.0, block_unitarity=0.0,
    first_row=0.0, off_diagonal=0.0,
)
AGGREGATES = [
    (
        CLEAN_TRACE,
        "max_residual",
        ("ladder_first", "ladder_second", "half_phase", "doubled_power", "order"),
    ),
    (CLEAN_ROOT, "max_residual", ("ratio_sum", "weighted_sum")),
    (CLEAN_BLOCKS, "max_alignment_free", ("diagonal", "transpose_pairing", "block_unitarity")),
]


@pytest.mark.parametrize(
    "report,aggregate,component",
    [
        pytest.param(r, agg, c, id=f"{type(r).__name__}-{c}")
        for r, agg, components in AGGREGATES
        for c in components
    ],
)
def test_nan_in_any_report_component_makes_its_aggregate_nan(report, aggregate, component):
    value = getattr(dataclasses.replace(report, **{component: float("nan")}), aggregate)
    assert np.isnan(value)
    assert not value <= 1e-8


@pytest.mark.parametrize("component", ["first_row", "off_diagonal"])
def test_nan_in_any_scalar_block_equation_is_not_aligned(component):
    assert CLEAN_BLOCKS.aligned
    assert not dataclasses.replace(CLEAN_BLOCKS, **{component: float("nan")}).aligned


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("aux_dim", [1, 2, 3])
def test_fij_structure_matches_loop_oracle(d, aux_dim):
    aligned = np.kron(t_observable(d), np.eye(aux_dim))
    h = haar_random_unitary(d * aux_dim, rng)
    for b2 in (aligned, h @ aligned @ dagger(h)):
        report = check_fij_structure(b2, d, aux_dim)
        fast = (
            report.diagonal,
            report.transpose_pairing,
            report.block_unitarity,
            report.first_row,
            report.off_diagonal,
        )
        assert np.abs(np.subtract(fast, _oracles.fij_structure(b2, d, aux_dim))).max() <= 1e-12


def test_fij_structure_fails_closed_on_a_nan_block():
    b2 = np.kron(t_observable(3), np.eye(2))
    b2[5, 3] = np.nan  # inside block (2, 1): every equation that reads it turns NaN
    report = check_fij_structure(b2, 3, 2)
    assert np.isnan(report.max_alignment_free) and np.isnan(report.off_diagonal)
    assert not report.aligned
