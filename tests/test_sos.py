import dataclasses

import numpy as np
import pytest

import _oracles
from _helpers import frobenius_distance, omega, random_order_d, random_realization

from qsk.bell import Realization
from qsk.canonical import (
    cglmp_realization,
    ideal_realization,
    maximally_entangled,
    t_eigenbasis,
    t_observable,
    z_observable,
)
from qsk.linalg import (
    NotOrderDError,
    dagger,
    decomposition_from_basis,
    eig_unitary,
    haar_random_unitary,
    worst,
)
from qsk.selftest import scramble
from qsk.satwap import BellFunctional, bell_operator
from qsk.sos import (
    check_commutation_relation,
    check_intermediate_identities,
    check_root_identities,
    check_trace_conditions,
    sos_residual_alice,
    sos_residual_bob,
    sos_terms,
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


def _canonical_decompositions(d):
    """The decompositions of (Z, T) from their closed-form eigenbases."""
    return ideal_realization(d).decompositions[2:]


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_commutation_relation_canonical(d):
    assert check_commutation_relation(*_canonical_decompositions(d)) < 1e-9


def test_commutation_relation_fails_for_commuting_pair():
    d = 5
    z = eig_unitary(z_observable(d), d)
    residual = check_commutation_relation(z, z)
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
    traces = check_trace_conditions(eig_unitary(z_observable(6), 6))
    assert list(traces) == [1, 2, 3]
    assert all(v < 1e-12 for v in traces.values())


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_trace_conditions_canonical_pair(d):
    for dec in _canonical_decompositions(d):
        assert worst(*check_trace_conditions(dec).values()) <= 1e-8


def test_trace_conditions_unequal_multiplicities():
    w = omega(4, 1)
    bad = np.diag([1.0, 1.0, w**2, w**3])
    traces = check_trace_conditions(eig_unitary(bad, 4))
    assert [n for n, v in traces.items() if not v <= 1e-8] == [1, 2]


@pytest.mark.parametrize("d", list(range(2, 11)))
def test_intermediate_identities_canonical(d):
    report = check_intermediate_identities(*_canonical_decompositions(d))
    assert worst(*report.values()) < 1e-8


def _order_d_pairs(d):
    """Order-d pairs at dimension d and above, with multiplicities 1, 2 and 3.

    (Z, T), the CGLMP Bob pair, a random pair, a random pair of
    multiplicity 3, and both pairs of the canonical realization scrambled
    with aux dimensions 3 x 2.
    """
    yield "canonical", z_observable(d), t_observable(d)
    yield "cglmp-bob", *cglmp_realization(d).observables_b
    yield "random", random_order_d(d, d, rng), random_order_d(d, d, rng)
    yield "random-multiplicity-3", random_order_d(3 * d, d, rng), random_order_d(3 * d, d, rng)
    scrambled = scramble(ideal_realization(d), 3, 2, seed=d)
    yield "scrambled-alice", *scrambled.observables_a
    yield "scrambled-bob", *scrambled.observables_b


@pytest.mark.parametrize("d", list(range(2, 13)))
def test_power_stack_checks_match_loop_oracles(d, monkeypatch):
    # random pairs break the identities, so this compares nonzero residuals too;
    # the checks read the eigendecompositions, the oracles matrix powers
    for name, b1, b2 in _order_d_pairs(d):
        dec1, dec2 = eig_unitary(b1, d), eig_unitary(b2, d)
        report = check_intermediate_identities(dec1, dec2)
        names = ("ladder_first", "ladder_second", "half_phase", "doubled_power")
        assert tuple(report) == names
        for got, want in zip(report.values(), _oracles.intermediate_identities(b1, b2, d)):
            assert abs(got - want) <= 1e-12, name
        want = _oracles.commutation_relation(b1, b2, d)
        # one block of every k, then blocks of two k, as at large n
        for block in (None, 2 * len(b1) ** 2):
            if block is not None:
                monkeypatch.setattr("qsk.sos._POWER_BLOCK", block)
            assert abs(check_commutation_relation(dec1, dec2) - want) <= 1e-12, name
        monkeypatch.undo()
        for b, dec in ((b1, dec1), (b2, dec2)):
            for n, got in check_trace_conditions(dec).items():
                assert abs(got - abs(np.trace(np.linalg.matrix_power(b, n)))) <= 1e-12, name


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_power_stack_checks_fail_closed_off_order_d(d):
    # e^{i eps} (Z, T) satisfies the commutation relation exactly, but
    # B^d = e^{i d eps} I, so no power may be read mod d.  The checks read
    # powers off a decomposition, and the certificate that ends both
    # constructors refuses the pair: eig_unitary at its reconstruction gate,
    # or for T at eps = 1e-3 at its basis-unitarity gate (the projectors of
    # a unitary that is not order d are not orthogonal, nor is the
    # polished basis), decomposition_from_basis with the closed-form bases
    # at its reconstruction gate
    bases = (np.eye(d, dtype=complex), t_eigenbasis(d))
    for eps, gates in (
        (1e-3, ("reconstruction error", "not unitary")),
        (1e-8, ("reconstruction error", "reconstruction error")),
    ):
        phase = np.exp(1j * eps)
        pair = (phase * z_observable(d), phase * t_observable(d))
        assert _oracles.commutation_relation(*pair, d) < 1e-9
        for b, basis, gate in zip(pair, bases, gates):
            with pytest.raises(NotOrderDError, match=gate):
                eig_unitary(b, d)
            with pytest.raises(NotOrderDError, match="reconstruction error"):
                decomposition_from_basis(b, basis, d)


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
    assert worst(*check_root_identities(d).values()) < 1e-8


@pytest.mark.parametrize("d", [2, 3, 7, 16, 31])
def test_root_identities_match_loop_oracle(d):
    report = check_root_identities(d)
    ratio, weighted = _oracles.root_identities(d)
    assert tuple(report) == ("ratio_sum", "weighted_sum")
    assert abs(report["ratio_sum"] - ratio) <= 1e-12
    assert abs(report["weighted_sum"] - weighted) <= 1e-12
    if d == 16:
        assert worst(*report.values()) <= 1e-13


def test_root_identities_memory_is_quadratic_in_d(cost):
    # one (d - 1, d - 1) table of ratios and one (d - 1, d) table of weighted
    # terms: about two (d, d) complex matrices (1 MiB each) at d = 256, where
    # a (d - 1, d, d) complex grid over i, j and k would take 255
    with cost.traced():
        check_root_identities(256)
    assert cost.stacks(1, 256) <= 8


def test_fij_structure_canonical_with_aux():
    d, m = 4, 3
    b2 = np.kron(t_observable(d), np.eye(m))
    # (diagonal, transpose_pairing, block_unitarity, first_row, off_diagonal)
    assert max(_oracles.fij_structure(b2, d, m)) < 1e-9


def test_fij_structure_d2_blocks_frozen():
    t2 = t_observable(2)
    blocks = _oracles.extract_blocks(t2, 2, 1)
    assert abs(blocks[0, 0][0, 0]) < 1e-12          # (d-2)/d vanishes at d=2
    assert abs(blocks[0, 1][0, 0] - (-1)) < 1e-12
    diagonal, _, block_unitarity, _, _ = _oracles.fij_structure(t2, 2, 1)
    assert diagonal < 1e-12
    assert block_unitarity < 1e-12


def test_fij_structure_detects_intra_eigenspace_rotation():
    # conjugating by a block unitary that commutes with Z (x) I preserves
    # the alignment-free equations but breaks the scalar block solutions
    d, m = 3, 2
    blocks = [haar_random_unitary(m, rng) for _ in range(d)]
    h = np.zeros((d * m, d * m), dtype=complex)
    for i in range(d):
        h[i * m : (i + 1) * m, i * m : (i + 1) * m] = blocks[i]
    b2 = h @ np.kron(t_observable(d), np.eye(m)) @ dagger(h)
    diagonal, pairing, unitarity, _, off_diagonal = _oracles.fij_structure(b2, d, m)
    assert max(diagonal, pairing, unitarity) < 1e-9
    assert off_diagonal > 1e-3


def test_fij_structure_dimension_check():
    with pytest.raises(ValueError):
        _oracles.extract_blocks(t_observable(4), 4, 2)


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


def _phase_error_on_one_coefficient(monkeypatch):
    # c[0, 1, 3] (the A1^3 B2^5 term) of the d = 8 SATWAP table times
    # exp(1e-3 i): the table is no longer Hermitian, and neither is the Bell
    # operator the squares sum to
    satwap = BellFunctional.satwap.__func__

    def mutant(cls, d):
        f = satwap(cls, d)
        c = f.coefficients.copy()
        c[0, 1, 3] *= np.exp(1e-3j)
        return dataclasses.replace(f, coefficients=c)

    monkeypatch.setattr(BellFunctional, "satwap", classmethod(mutant))
    return ideal_realization(8)


def _a1_scaled(monkeypatch):
    # A1 times 1 + 1e-3: no longer unitary
    r = ideal_realization(8)
    a1, a2 = r.observables_a
    return dataclasses.replace(r, observables_a=((1 + 1e-3) * a1, a2))


@pytest.mark.parametrize("mutant", [_phase_error_on_one_coefficient, _a1_scaled])
@pytest.mark.parametrize("side", ["bob", "alice"])
def test_sos_residual_keeps_both_halves_on_a_mutant(monkeypatch, mutant, side):
    # negative controls: each mutant moves both the Hermitian and the
    # anti-Hermitian half of the residual far above rounding, so a residual
    # that dropped either half would not match the dense operator's norm
    r = mutant(monkeypatch)
    terms = sos_terms(r, side)
    m = _oracles.sos_operator(r, terms)
    hermitian = np.linalg.norm(m + dagger(m)) / 2
    anti = np.linalg.norm(m - dagger(m)) / 2
    assert hermitian > 1e-3 and anti > 1e-3
    expected = np.linalg.norm(m)
    residual = (sos_residual_bob if side == "bob" else sos_residual_alice)(r, terms)
    assert residual > 1e-8
    assert abs(residual - expected) <= 1e-12 * expected


def test_sos_residual_memory_stays_below_one_dense_operator(cost):
    # d = 3, aux 8 x 8: one dense (576 x 576) complex operator is 5.06 MiB,
    # while the (L, R) stacks of all 21 Kronecker terms take about 0.4 MiB
    r = random_realization(3, rng, dim_a=24, dim_b=24)
    with cost.traced():
        sos_residual_bob(r)
    assert cost.stacks(1, 24 * 24) < 1


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

