"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s`` or
in captured output); a failure prints the offending numbers via the
assertion message.
"""

import numpy as np
import pytest

from _helpers import omega, random_order_d

from qsk.bell import (
    Realization,
    born_probabilities,
    correlators_from_realization,
    local_bound_bruteforce,
    sample_statistics,
)
from qsk.canonical import (
    cglmp_eigenbasis,
    cglmp_realization,
    ideal_realization,
    t_eigenbasis,
    t_observable,
    w1_w2,
    w_alice,
    z_observable,
)
from qsk.cyclotomic import (
    IntegerPolynomial,
    check_product_identity,
    lemma2_conclude,
    proper_divisors,
)
from qsk.linalg import dagger, eig_unitary
from qsk.randomness import certified_bits, ideal_guessing_probability, outcome_distribution
from qsk.satwap import BellFunctional, classical_bound, evaluate, quantum_bound
from qsk.selftest import (
    ExtractionError,
    check_multiplicities,
    extract,
    scramble,
)
from qsk.sos import (
    check_commutation_relation,
    check_intermediate_identities,
    check_trace_conditions,
    sos_residual_alice,
    sos_residual_bob,
    stabilizer_residuals,
)


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_quantum_bound_attained():
    worst = 0.0
    for d in range(2, 17):
        value = evaluate(
            BellFunctional.satwap(d), correlators_from_realization(ideal_realization(d))
        )
        worst = max(worst, abs(value - quantum_bound(d)))
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    _report(1, f"canonical value equals 2(d-1) for d=2..16 (worst {worst:.2e})")


def test_criterion_2_classical_bound_cross_validation():
    worst = 0.0
    for d in range(2, 9):
        brute = local_bound_bruteforce(BellFunctional.satwap(d))
        worst = max(worst, abs(brute - classical_bound(d)))
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    _report(2, f"enumeration matches the closed form for d=2..8 (worst {worst:.2e})")


def test_criterion_3_sos_operator_identities():
    rng = np.random.default_rng(np.random.Philox(30303))
    worst_identity = 0.0
    worst_stabilizer = 0.0
    aux_patterns = [(1, 1), (2, 1), (1, 2), (2, 2)]
    for d in range(2, 9):
        ideal = ideal_realization(d)
        worst_identity = max(worst_identity, sos_residual_bob(ideal), sos_residual_alice(ideal))
        worst_stabilizer = max(
            worst_stabilizer,
            max(stabilizer_residuals(ideal, "bob").values()),
            max(stabilizer_residuals(ideal, "alice").values()),
        )
        for trial in range(20):
            ma, mb = aux_patterns[trial % len(aux_patterns)]
            state = rng.standard_normal(d * ma * d * mb) + 1j * rng.standard_normal(d * ma * d * mb)
            r = Realization(
                d=d,
                dims=(d * ma, d * mb),
                state=state / np.linalg.norm(state),
                observables_a=(random_order_d(d * ma, d, rng), random_order_d(d * ma, d, rng)),
                observables_b=(random_order_d(d * mb, d, rng), random_order_d(d * mb, d, rng)),
            )
            worst_identity = max(worst_identity, sos_residual_bob(r), sos_residual_alice(r))
    assert worst_identity <= 1e-8, f"worst operator-identity residual {worst_identity:.3e}"
    assert worst_stabilizer <= 1e-9, f"worst stabilizer residual {worst_stabilizer:.3e}"
    _report(
        3,
        "both decompositions are operator identities for canonical and 20 random "
        f"quadruples per d=2..8 (worst {worst_identity:.2e}); canonical stabilizers "
        f"within {worst_stabilizer:.2e}",
    )


def test_criterion_4_trace_and_commutation_conditions():
    worst_t, worst_z, worst_rest = 0.0, 0.0, 0.0
    for d in range(2, 13):
        z, t = z_observable(d), t_observable(d)
        for n in proper_divisors(d):
            worst_t = max(worst_t, abs(np.trace(np.linalg.matrix_power(t, n))))
            worst_z = max(worst_z, abs(np.trace(np.linalg.matrix_power(z, n))))
        dz, dt = ideal_realization(d).decompositions[2:]
        worst_rest = max(worst_rest, check_commutation_relation(dz, dt))
        worst_rest = max(worst_rest, *check_intermediate_identities(dz, dt).values())
    assert worst_t <= 1e-8, f"worst |Tr(T^n)| = {worst_t:.3e}"
    assert worst_z <= 1e-12, f"worst |Tr(Z^n)| = {worst_z:.3e}"
    assert worst_rest <= 1e-8, f"worst identity residual {worst_rest:.3e}"
    _report(
        4,
        f"proper-divisor traces vanish (T: {worst_t:.2e}, Z: {worst_z:.2e}) and the "
        f"commutation/trace identities hold to {worst_rest:.2e} for d=2..12",
    )


def test_criterion_5_cglmp_equivalence():
    worst_conj, worst_phase, worst_rot, worst_stats = 0.0, 0.0, 0.0, 0.0
    for d in range(2, 13):
        z, t = z_observable(d), t_observable(d)
        w1, w2 = w1_w2(d)
        cglmp = cglmp_realization(d)
        (a1p, a2p), (b1p, b2p) = cglmp.observables_a, cglmp.observables_b
        worst_conj = max(
            worst_conj,
            np.linalg.norm(a1p - w1 @ z @ dagger(w1)),
            np.linalg.norm(a2p - w1 @ t @ dagger(w1)),
            np.linalg.norm(b1p - w2 @ z @ dagger(w2)),
            np.linalg.norm(b2p - w2 @ t @ dagger(w2)),
        )
        e = np.eye(d)
        for r in range(d):
            worst_phase = max(
                worst_phase,
                np.linalg.norm(
                    dagger(w1) @ cglmp_eigenbasis(d, "A", 1)[:, r]
                    - np.exp(1j * np.pi * (1 - (r == 0) - r / d)) * e[r]
                ),
                np.linalg.norm(
                    dagger(w1) @ cglmp_eigenbasis(d, "A", 2)[:, r] + t_eigenbasis(d)[:, r]
                ),
                np.linalg.norm(
                    dagger(w2) @ cglmp_eigenbasis(d, "B", 1)[:, r]
                    - np.exp(-1j * np.pi * (2 - (r - 1) / d - (r == 0))) * e[r]
                ),
                np.linalg.norm(
                    dagger(w2) @ cglmp_eigenbasis(d, "B", 2)[:, r]
                    + omega(d, r - 1) * t_eigenbasis(d)[:, r]
                ),
            )
        wa = w_alice(d)
        ia1, ia2 = ideal_realization(d).observables_a
        worst_rot = max(
            worst_rot,
            np.linalg.norm(wa @ z @ dagger(wa) - ia1),
            np.linalg.norm(wa @ t @ dagger(wa) - ia2),
        )
        worst_stats = max(
            worst_stats,
            np.abs(
                born_probabilities(cglmp_realization(d))
                - born_probabilities(ideal_realization(d))
            ).max(),
        )
    assert worst_conj <= 1e-8, f"conjugation residual {worst_conj:.3e}"
    assert worst_phase <= 1e-8, f"phase-identity residual {worst_phase:.3e}"
    assert worst_rot <= 1e-8, f"Alice-rotation residual {worst_rot:.3e}"
    assert worst_stats <= 1e-8, f"statistics gap {worst_stats:.3e}"
    _report(
        5,
        "CGLMP conjugations, eigenvector phases, the Alice rotation and the shared "
        f"statistics all agree for d=2..12 (worst {max(worst_conj, worst_phase, worst_rot, worst_stats):.2e})",
    )


def test_criterion_6_extraction_round_trip():
    worst_fid_gap, worst_obs, worst_stats = 0.0, 0.0, 0.0
    runs = 0
    for d in range(2, 7):
        seed_rng = np.random.default_rng(np.random.Philox(606060 + d))
        for _ in range(20):
            seed = int(seed_rng.integers(0, 2**31))
            ma, mb = (int(v) for v in seed_rng.integers(1, 4, size=2))
            scrambled = scramble(ideal_realization(d), ma, mb, seed=seed)
            result = extract(scrambled)
            runs += 1
            worst_fid_gap = max(worst_fid_gap, 1 - result.fidelity)
            worst_obs = max(
                worst_obs,
                *(
                    result.residuals[k]
                    for k in (
                        "bob_observable_1",
                        "bob_observable_2",
                        "alice_observable_1",
                        "alice_observable_2",
                    )
                ),
            )
            worst_stats = max(
                worst_stats,
                np.abs(
                    correlators_from_realization(result.canonical)
                    - correlators_from_realization(scrambled)
                ).max(),
            )
    # d = 8 = 2^3: certifying three maximally entangled qubit pairs at once
    result = extract(scramble(ideal_realization(8), 1, 1, seed=8))
    runs += 1
    worst_fid_gap = max(worst_fid_gap, 1 - result.fidelity)
    assert worst_fid_gap <= 1e-7, f"worst fidelity gap {worst_fid_gap:.3e}"
    assert worst_obs <= 1e-7, f"worst observable residual {worst_obs:.3e}"
    assert worst_stats <= 1e-8, f"worst statistics drift {worst_stats:.3e}"
    _report(
        6,
        f"{runs} scrambled round trips (d=2..6 with aux dims 1..3, plus d=8) recover "
        f"fidelity >= 1-{worst_fid_gap:.1e} with observable residuals <= {worst_obs:.1e}",
    )


def test_criterion_7_exact_cyclotomic_suite():
    for d in range(2, 101):
        assert check_product_identity(d), f"product identity fails at d={d}"
    rng = np.random.default_rng(np.random.Philox(70707))
    cases = 0
    for d in (4, 6, 12, 30):
        for _ in range(1000):
            coeffs = [int(c) for c in rng.integers(-50, 51, size=d)]
            if rng.random() < 0.5:
                coeffs = [coeffs[0]] * d  # equal-coefficient instance
            expected = len(set(coeffs)) == 1
            verdict = lemma2_conclude(IntegerPolynomial(tuple(coeffs)), d)
            assert verdict.equal == expected, (d, coeffs, verdict)
            cases += 1
    assert lemma2_conclude(IntegerPolynomial((7,) * 30), 30).constant == 7
    _report(
        7,
        f"product identity exact for d<=100; classifier exact on {cases} randomized "
        "accept/reject cases for d in {4, 6, 12, 30}",
    )


def test_criterion_8_randomness_certification():
    worst = 0.0
    for d in range(2, 9):
        r = ideal_realization(d)
        for setting in (1, 2):
            dist = outcome_distribution(r, "B", setting)
            worst = max(worst, float(np.abs(dist - 1 / d).max()))
        assert abs(ideal_guessing_probability(r, "B", 1) - 1 / d) <= 1e-9
        assert certified_bits(d) == pytest.approx(np.log2(d))
    assert worst <= 1e-9, f"worst marginal deviation {worst:.3e}"
    # Monte-Carlo uniformity at one million shots
    d = 4
    freqs, counts = sample_statistics(ideal_realization(d), 10**6, seed=88)
    for y in range(2):
        n = int(counts[:, y].sum())
        weighted = (freqs[:, y].sum(axis=1) * counts[:, y][:, None]).sum(axis=0) / n
        se = np.sqrt((1 / d) * (1 - 1 / d) / n)
        dev = np.abs(weighted - 1 / d).max()
        assert dev <= 5 * se, f"empirical marginal off by {dev:.3e} > 5 SE {5 * se:.3e}"
    _report(
        8,
        f"canonical outcome distributions uniform to {worst:.1e}; certified bits equal "
        "log2(d); million-shot marginals within 5 standard errors",
    )


def test_criterion_9_negative_soundness():
    rng = np.random.default_rng(np.random.Philox(90909))
    d = 3
    ideal = ideal_realization(d)

    def perturbed(eps: float) -> Realization:
        def kick(o):
            noisy = o + eps * (rng.standard_normal(o.shape) + 1j * rng.standard_normal(o.shape))
            u, _, vh = np.linalg.svd(noisy)
            return u @ vh

        return Realization(
            d=d,
            dims=ideal.dims,
            state=ideal.state,
            observables_a=tuple(kick(o) for o in ideal.observables_a),
            observables_b=tuple(kick(o) for o in ideal.observables_b),
        )

    rejected = 0
    for _ in range(5):
        try:
            result = extract(perturbed(1e-3))
            assert result.fidelity < 1 - 1e-6
        except ExtractionError:
            rejected += 1
    assert rejected == 5

    state = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    nonviolating = Realization(
        d=d,
        dims=(d, d),
        state=state / np.linalg.norm(state),
        observables_a=(random_order_d(d, d, rng), random_order_d(d, d, rng)),
        observables_b=(random_order_d(d, d, rng), random_order_d(d, d, rng)),
    )
    with pytest.raises(ExtractionError):
        extract(nonviolating)

    lopsided = np.diag([1.0, 1.0, omega(4, 2), omega(4, 3)]).astype(complex)
    decomp = eig_unitary(lopsided, 4)
    traces = check_trace_conditions(decomp)
    witness = next(n for n, v in traces.items() if not v <= 1e-8)
    assert witness == 1
    with pytest.raises(ExtractionError):
        check_multiplicities(decomp)
    _report(
        9,
        "perturbed and non-violating realizations are rejected at the gate; unequal "
        f"multiplicities fail with divisor witness n={witness}",
    )
