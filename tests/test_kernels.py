"""The batched contraction kernels against their loop-and-Kronecker oracles.

Realizations use unequal local dimensions (aux 2x3 and 3x2, so da != db
exercises every reshape and transpose), Haar-random order-d observables and
a random, non-maximally entangled state.  A second set of cases uses
generic non-unitary matrices, where the SOS identity fails by O(1), so the
residual kernels are compared on a value that is not near zero.
"""

import dataclasses
import weakref

import numpy as np
import pytest

import _oracles
from _helpers import random_order_d, random_probability_tensor, random_realization

import qsk.bell
import qsk.selftest
import qsk.sos
from qsk.bell import (
    Realization,
    born_probabilities,
    correlators_from_probabilities,
    correlators_from_realization,
    expectation,
)
from qsk.canonical import cglmp_realization, ideal_realization, t_eigenbasis
from qsk.cli import realization_from_json, realization_to_json
from qsk.linalg import (
    NotOrderDError,
    dagger,
    decomposition_from_basis,
    haar_random_unitary,
    kron_sum_norm,
    spectral_projectors,
    unitary_powers,
)
from qsk.satwap import BellFunctional, bell_operator, probability_form
from qsk.sos import sos_residual_alice, sos_residual_bob, stabilizer_residuals

CASES = [(d, aux) for d in (2, 3, 5) for aux in ((1, 1), (2, 3), (3, 2))]


def _realization(d: int, aux: tuple[int, int], seed: int) -> Realization:
    rng = np.random.default_rng(seed)
    return random_realization(d, rng, dim_a=d * aux[0], dim_b=d * aux[1])


def _generic(d: int, aux: tuple[int, int], seed: int) -> Realization:
    """Same shapes, but the observables are arbitrary complex matrices."""
    rng = np.random.default_rng(seed)
    da, db = d * aux[0], d * aux[1]

    def matrix(n):
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)

    state = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    return Realization(
        d=d,
        dims=(da, db),
        state=state / np.linalg.norm(state),
        observables_a=(matrix(da), matrix(da)),
        observables_b=(matrix(db), matrix(db)),
    )


def test_kron_sum_norm_matches_summed_kron_products():
    rng = np.random.default_rng(7)
    # (3, 1, 1): more terms than entries per left factor, so the QR is wide
    for t, na, nb in ((1, 1, 1), (3, 1, 1), (3, 2, 5), (4, 5, 2), (6, 3, 3)):
        ls = rng.standard_normal((t, na, na)) + 1j * rng.standard_normal((t, na, na))
        rs = rng.standard_normal((t, nb, nb)) + 1j * rng.standard_normal((t, nb, nb))
        expected = np.linalg.norm(_oracles.kron_sum(ls, rs))
        assert abs(kron_sum_norm(ls, rs) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("d,aux", CASES)
def test_expectation_table_matches_entrywise_einsum(d, aux):
    r = _realization(d, aux, seed=10 * d + aux[0])
    psi = r.state.reshape(r.dims)
    pa = unitary_powers(r.observables_a[0], d)
    pb = unitary_powers(r.observables_b[1], d)
    table = expectation(pa, pb, psi)
    assert table.shape == (d, d)
    expected = np.array([[_oracles.expectation(a, b, psi) for b in pb] for a in pa])
    assert np.abs(table - expected).max() <= 1e-12


@pytest.mark.parametrize("d,aux", CASES)
def test_correlators_match_entrywise_oracle(d, aux):
    r = _realization(d, aux, seed=20 * d + aux[0])
    values = correlators_from_realization(r)
    assert np.abs(values - _oracles.correlators(r)).max() <= 1e-12


@pytest.mark.parametrize("d,aux", CASES)
def test_born_probabilities_match_nested_trace_oracle(d, aux):
    r = _realization(d, aux, seed=30 * d + aux[0])
    p = born_probabilities(r)
    assert np.abs(p - _oracles.born_probabilities(r)).max() <= 1e-12


@pytest.mark.parametrize("d,aux", CASES)
def test_bell_operator_matches_kron_loop(d, aux):
    f = BellFunctional.satwap(d)
    for r in (_realization(d, aux, seed=40 * d + aux[0]), _generic(d, aux, seed=41 * d)):
        for side in ("bob", "alice"):
            dense = _oracles.kron_sum(*bell_operator(f, r, side))
            assert np.abs(dense - _oracles.bell_operator(f, r)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_operator_groups_a_generic_coefficient_table(d):
    # full support, k = 0 and l = 0 included: an index transposition that
    # SATWAP's (k, d - k) support would hide shows here
    rng = np.random.default_rng(42 + d)
    coeff = rng.standard_normal((2, 2, d, d)) + 1j * rng.standard_normal((2, 2, d, d))
    f = BellFunctional(d=d, coefficients=coeff)
    r = _generic(d, (2, 3), seed=43 * d)
    expected = _oracles.bell_operator(f, r)
    bob = _oracles.kron_sum(*bell_operator(f, r, "bob"))
    alice = _oracles.kron_sum(*bell_operator(f, r, "alice"))
    scale = np.abs(expected).max()
    assert np.abs(bob - expected).max() <= 1e-12 * scale
    assert np.abs(alice - expected).max() <= 1e-12 * scale
    assert np.abs(bob - alice).max() <= 1e-12 * scale


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("aux", [(2, 3), (3, 1)])
def test_combination_stacks_match_per_k_oracle(d, aux):
    # the oracle builds each C_i^(k) from matrix_power and scalar
    # coefficient_a / omega, independently of the coefficient table
    r = _realization(d, aux, seed=45 * d + aux[0])
    f = BellFunctional.satwap(d)
    for stack, slow, pair in (
        (bell_operator(f, r, "bob")[1], _oracles.c_operators, r.observables_b),
        (bell_operator(f, r, "alice")[0], _oracles.cbar_operators, r.observables_a),
    ):
        n = pair[0].shape[0]
        assert stack.shape == (2, d, n, n)
        assert not stack[:, 0].any()  # SATWAP puts no coefficient at k = 0
        want = slow(*pair, d)
        assert max(np.abs(stack[i - 1, k] - want[(i, k)]).max() for i, k in want) <= 1e-12


@pytest.mark.parametrize("d,aux", CASES)
def test_sos_residuals_match_dense_oracle(d, aux):
    # order-d observables: the identity holds, both residuals sit at rounding level
    r = _realization(d, aux, seed=50 * d + aux[0])
    assert abs(sos_residual_bob(r) - _oracles.sos_residual(r, "bob")) <= 1e-12
    assert abs(sos_residual_alice(r) - _oracles.sos_residual(r, "alice")) <= 1e-12
    # generic matrices: the identity fails by O(1), and the kernel must report it
    g = _generic(d, aux, seed=51 * d + aux[0])
    for fast, side in ((sos_residual_bob, "bob"), (sos_residual_alice, "alice")):
        expected = _oracles.sos_residual(g, side)
        assert expected > 0.1
        assert abs(fast(g) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("d,aux", CASES)
@pytest.mark.parametrize("side", ["bob", "alice"])
def test_stabilizer_residuals_match_kron_oracle(d, aux, side):
    r = _realization(d, aux, seed=60 * d + aux[0])
    fast = stabilizer_residuals(r, side)
    slow = _oracles.stabilizer_residuals(r, side)
    assert fast.keys() == slow.keys()
    assert max(abs(fast[ik] - slow[ik]) for ik in slow) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8, 17])
def test_fourier_transforms_match_einsum_oracles(d):
    rng = np.random.default_rng(70 + d)
    p = random_probability_tensor(d, rng)
    c = correlators_from_probabilities(p)
    assert np.abs(c - _oracles.correlators_from_probabilities(p)).max() <= 1e-12
    assert np.abs(_oracles.probabilities_from_correlators(c) - p).max() <= 1e-12
    f = BellFunctional.satwap(d)
    assert np.abs(probability_form(f) - _oracles.probability_form(f.coefficients)).max() <= 1e-12


@pytest.mark.parametrize("d,dim", [(2, 2), (3, 7), (5, 5), (8, 12)])
def test_spectral_projectors_match_weighted_power_sums(d, dim):
    a = random_order_d(dim, d, np.random.default_rng(80 + d))
    projs = spectral_projectors(a, d)
    assert projs.shape == (d, dim, dim)
    assert np.abs(projs - np.array(_oracles.spectral_projectors(a, d))).max() <= 1e-12


# ---------------------------------------------------------------------------
# structural guards: the kernels stay batched


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_correlators_make_one_expectation_call_per_setting_pair(monkeypatch):
    calls = _counting(monkeypatch, qsk.bell, "expectation")
    correlators_from_realization(_realization(5, (2, 3), seed=1))
    assert len(calls) == 4


def test_born_probabilities_decompose_each_observable_once(monkeypatch):
    calls = _counting(monkeypatch, qsk.bell, "eig_unitary")
    born_probabilities(_realization(3, (2, 3), seed=2))
    assert len(calls) == 4


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 40])
@pytest.mark.parametrize("build", [ideal_realization, cglmp_realization])
def test_canonical_born_tables_from_supplied_bases_match_oracle(d, build):
    r = build(d)
    p = born_probabilities(r)
    assert np.abs(p - _oracles.born_probabilities(r)).max() <= 1e-12


@pytest.mark.parametrize("build,calls", [(ideal_realization, 2), (cglmp_realization, 0)])
def test_canonical_realizations_decompose_only_observables_without_a_basis(
    build, calls, monkeypatch
):
    counted = _counting(monkeypatch, qsk.bell, "eig_unitary")
    r = build(6)
    born_probabilities(r)
    assert r.decompositions is r.decompositions
    assert len(counted) == calls


def test_replaced_observables_do_not_inherit_supplied_bases(monkeypatch):
    # Bob's pair conjugated by a Haar unitary G: T's closed-form basis no
    # longer fits, so the replaced realization must decompose it afresh
    d = 5
    ideal = ideal_realization(d)
    g = haar_random_unitary(d, np.random.default_rng(14))
    z, t = ideal.observables_b
    with pytest.raises(NotOrderDError):
        decomposition_from_basis(g @ t @ dagger(g), t_eigenbasis(d), d)
    r = dataclasses.replace(ideal, observables_b=(g @ z @ dagger(g), g @ t @ dagger(g)))
    counted = _counting(monkeypatch, qsk.bell, "eig_unitary")
    p = born_probabilities(r)
    assert len(counted) == 4
    assert np.abs(p - _oracles.born_probabilities(r)).max() <= 1e-12


def test_file_reader_and_scramble_carry_no_supplied_bases(monkeypatch):
    ideal = ideal_realization(3)
    copies = [
        realization_from_json(realization_to_json(ideal)),
        qsk.selftest.scramble(ideal, 1, 1, 5),
    ]
    counted = _counting(monkeypatch, qsk.bell, "eig_unitary")
    for r in copies:
        r.decompositions
    assert len(counted) == 8


def test_validate_certifies_a_supplied_basis_instead_of_decomposing_it(monkeypatch):
    # the ideal realization's Bob pair carries closed-form bases, which
    # validate certifies as .decompositions does; only Alice's pair is solved
    counted = _counting(monkeypatch, qsk.bell, "eig_unitary")
    ideal_realization(5).validate()
    assert len(counted) == 2


def test_a_supplied_basis_that_fails_is_named_like_a_validated_observable():
    # the identity is not an eigenbasis of T: the one decomposition path
    # names the observable as validate always has
    r = ideal_realization(3)
    eye = np.eye(3, dtype=complex)
    wrong = Realization(3, r.dims, r.state, r.observables_a, r.observables_b, (None, None, eye, eye))
    with pytest.raises(NotOrderDError, match=r"^observable B2 is not an order-3 observable: "):
        wrong.decompositions_b


def test_realization_needs_one_basis_slot_per_observable():
    r = ideal_realization(3)
    short = Realization(3, r.dims, r.state, r.observables_a, r.observables_b, eigenbases=(None,) * 3)
    with pytest.raises(ValueError):
        short.decompositions


def test_operator_kernels_form_no_kronecker_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense Kronecker product formed")

    monkeypatch.setattr(np, "kron", forbidden)
    r = _realization(3, (2, 3), seed=3)
    bell_operator(BellFunctional.satwap(3), r, "bob")
    bell_operator(BellFunctional.satwap(3), r, "alice")
    sos_residual_bob(r)
    sos_residual_alice(r)
    stabilizer_residuals(r, "bob")
    stabilizer_residuals(r, "alice")


@pytest.mark.parametrize("d,aux", [(3, (2, 3)), (5, (1, 2))])
@pytest.mark.parametrize("residual", [sos_residual_bob, sos_residual_alice])
def test_sos_residual_passes_three_terms_per_square_plus_one(monkeypatch, d, aux, residual):
    # 6(d - 1) + 1 terms split into two real sums: the anti-Hermitian part
    # (L_re (x) R_im and L_im (x) R_re, two terms per square) and the
    # Hermitian part (L^dag L (x) R^dag R per square, and the identity); the
    # squares are read off one grouping of the Bell operator, and every
    # factor acts on one party only, so no (da db x da db) operator is passed.
    # The anti-Hermitian left stack is gone before its right stack is built
    r = _realization(d, aux, seed=90 + d)
    da, db = r.dims
    bell_calls = _counting(monkeypatch, qsk.sos, "bell_operator")
    stacks, built, held = [], [], []
    embedded, original = qsk.sos._embedded_parts, qsk.sos.kron_sum_norm

    def recorded_parts(m, swap=False):
        held.extend(ref() is not None for ref in built)
        out = embedded(m, swap)
        built.append(weakref.ref(out))
        stacks.append((out.dtype, out.shape))
        return out

    def recorded(ls, rs):
        stacks.extend([(ls.dtype, ls.shape), (rs.dtype, rs.shape)])
        return original(ls, rs)

    monkeypatch.setattr(qsk.sos, "_embedded_parts", recorded_parts)
    monkeypatch.setattr(qsk.sos, "kron_sum_norm", recorded)
    residual(r)
    f8 = np.dtype(np.float64)
    assert stacks == [
        (f8, (4 * (d - 1), da, da)),
        (f8, (4 * (d - 1), db, db)),
        (f8, (2 * (d - 1) + 1, da, da)),
        (f8, (2 * (d - 1) + 1, db, db)),
    ]
    assert held == [False]
    assert len(bell_calls) == 1


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("aux", [(1, 1), (2, 3)])
def test_sos_residuals_match_the_one_complex_sum_oracle(d, aux):
    # the two real sums against the single complex Kronecker sum they
    # replace and against the dense residual: at rounding level for
    # order-d observables, to 1e-12 relative where the identity fails
    order_d = _realization(d, aux, seed=70 * d + aux[0])
    arbitrary = _generic(d, aux, seed=71 * d + aux[0])
    for r, generic in ((order_d, False), (arbitrary, True)):
        for fast, side in ((sos_residual_bob, "bob"), (sos_residual_alice, "alice")):
            terms = qsk.sos.sos_terms(r, side)
            got = fast(r, terms)
            for expected in (
                _oracles.sos_residual_one_complex_sum(r, terms),
                _oracles.sos_residual(r, side),
            ):
                bound = 1e-12 * expected if generic else 1e-12
                assert abs(got - expected) <= bound
            assert (got > 0.1) == generic
