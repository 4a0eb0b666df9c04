import random
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles

import qsk
from qsk.cyclotomic import (
    IntegerPolynomial,
    all_ones_poly,
    check_product_identity,
    cyclotomic_poly,
    lemma2_conclude,
    poly_divmod,
    proper_divisors,
)

P = IntegerPolynomial


def _sum(a: IntegerPolynomial, b: IntegerPolynomial) -> IntegerPolynomial:
    return P([x + y for x, y in zip_longest(a.coefficients, b.coefficients, fillvalue=0)])


def test_poly_divmod_exact_cases():
    q, r = poly_divmod(P([-1, 0, 1]), P([-1, 1]))          # (x^2-1)/(x-1)
    assert q == P([1, 1]) and r.is_zero()
    q, r = poly_divmod(P([1, 1, 1, 1]), P([1, 0, 1]))      # (x^3+x^2+x+1)/(x^2+1)
    assert q == P([1, 1]) and r.is_zero()
    f = P([2, -3, 0, 1])
    q, r = poly_divmod(f, f)
    assert q == P([1]) and r.is_zero()


def test_poly_divmod_remainder():
    f = P([1, 2, 0, 1])
    g = P([1, 1])
    q, r = poly_divmod(f, g)
    assert _sum(q * g, r) == f
    assert r.degree < g.degree


def test_poly_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P([1, 1]), P())


def test_poly_arithmetic_is_exact():
    # no floats anywhere: coefficients stay ints, far past 2**53
    big = 10**30
    h = P([big, 1]) * P([-big, 1])          # x^2 - 10**60
    assert h == P([-(big**2), 0, 1])
    assert all(type(c) is int for c in h.coefficients)
    q, r = poly_divmod(h, P([big, 1]))
    assert q == P([-big, 1]) and r.is_zero()


def test_cyclotomic_small_cases_frozen():
    assert cyclotomic_poly(1) == P([-1, 1])
    assert cyclotomic_poly(2) == P([1, 1])
    assert cyclotomic_poly(4) == P([1, 0, 1])
    assert cyclotomic_poly(6) == P([1, -1, 1])
    assert cyclotomic_poly(12) == P([1, 0, -1, 0, 1])


def test_cyclotomic_primes_are_all_ones():
    primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
    for p in primes:
        assert cyclotomic_poly(p) == all_ones_poly(p)


def test_cyclotomic_integer_coefficients():
    for n in (8, 15, 30, 105):
        for c in cyclotomic_poly(n).coefficients:
            assert type(c) is int


def test_proper_divisors():
    assert proper_divisors(6) == [1, 2, 3]
    assert proper_divisors(7) == [1]
    assert proper_divisors(12) == [1, 2, 3, 4, 6]
    with pytest.raises(ValueError):
        proper_divisors(1)


def test_product_identity_d4_frozen():
    prod = cyclotomic_poly(4) * cyclotomic_poly(2)
    assert prod == P([1, 1, 1, 1])


@pytest.mark.parametrize("d", list(range(2, 41)))
def test_product_identity_sweep(d):
    assert check_product_identity(d)


def test_lemma2_accepts_equal_coefficients():
    verdict = lemma2_conclude(P([3, 3, 3, 3]), 4)
    assert verdict.equal and verdict.constant == 3


def test_lemma2_rejects_with_witness():
    verdict = lemma2_conclude(P([1, 1]), 4)
    assert not verdict.equal
    assert verdict.failed_divisor == 1          # division by Phi_{4/1} = Phi_4 fails
    assert verdict.remainder == P([1, 1])


def test_lemma2_accepts_scaled_cyclotomic_product():
    w = cyclotomic_poly(2) * cyclotomic_poly(4) * P([5])
    verdict = lemma2_conclude(w, 4)
    assert verdict.equal and verdict.constant == 5


def test_lemma2_zero_polynomial():
    verdict = lemma2_conclude(P(), 6)
    assert verdict.equal and verdict.constant == 0


def test_lemma2_rejects_overlong_input():
    with pytest.raises(ValueError):
        lemma2_conclude(all_ones_poly(7), 6)


def test_lemma2_agrees_with_numerical_root_evaluation():
    # accepted polynomials vanish at w^n for every proper divisor n;
    # rejected ones either leave a nonzero remainder (by construction)
    # or visibly miss a root
    rng = np.random.default_rng(99)
    d = 12
    for _ in range(100):
        coeffs = [int(c) for c in rng.integers(-9, 10, size=d)]
        w = P(coeffs)
        verdict = lemma2_conclude(w, d)
        # w at the root w**n, by numpy's own polynomial evaluation (highest degree first)
        values = [float(c) for c in reversed(w.coefficients)]
        evals = [abs(np.polyval(values, np.exp(2j * np.pi * n / d))) for n in proper_divisors(d)]
        if verdict.equal:
            assert max(evals) < 1e-10
        else:
            assert verdict.remainder is not None and not verdict.remainder.is_zero()
            assert max(evals) > 1e-10


def test_polynomial_string_rendering():
    assert str(cyclotomic_poly(12)) == "1 - x^2 + x^4"
    assert str(P()) == "0"
    assert str(P([-2, 0, 1])) == "-2 + x^2"
    assert str(P([0, -3, 0, 7])) == "-3*x + 7*x^3"


def _random_integer(rng: random.Random, nonzero: bool = False) -> int:
    if not nonzero and rng.random() < 0.3:
        return 0
    return rng.choice([-1, 1]) * rng.randint(1, 40)


def _random_coefficients(rng: random.Random, degree: int, monic: bool = False) -> tuple[int, ...]:
    """Ascending coefficients of exact degree ``degree``; -1 gives zero."""
    if degree < 0:
        return ()
    lead = 1 if monic else _random_integer(rng, nonzero=True)
    return tuple(_random_integer(rng) for _ in range(degree)) + (lead,)


def _fractions(coeffs: tuple[int, ...]) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


def _assert_canonical(p: IntegerPolynomial) -> None:
    assert not p.coefficients or p.coefficients[-1] != 0
    assert all(type(c) is int for c in p.coefficients)


def test_kernels_match_fraction_oracles_on_random_pairs():
    rng = random.Random(2024)
    shorter = 0
    for _ in range(1200):
        f = _random_coefficients(rng, rng.randint(-1, 10))
        g = _random_coefficients(rng, rng.randint(0, 7), monic=True)
        shorter += len(f) < len(g)
        q, r = poly_divmod(P(f), P(g))
        oq, or_ = _oracles.poly_divmod(_fractions(f), _fractions(g))
        assert q.coefficients == oq and r.coefficients == or_
        h = _random_coefficients(rng, rng.randint(-1, 7))
        prod = P(f) * P(h)
        assert prod.coefficients == _oracles.poly_mul(_fractions(f), _fractions(h))
        for p in (q, r, prod):
            _assert_canonical(p)
    assert shorter > 100  # deg f < deg g is exercised


def test_poly_divmod_refuses_a_non_monic_divisor():
    # x^2 - 1 = (x + 1)/2 * (2x - 2): the quotient leaves the integers
    for divisor in ([-2, 2], [1, -1], [0, 0, 3]):
        with pytest.raises(ValueError, match="not monic"):
            poly_divmod(P([-1, 0, 1]), P(divisor))


def test_cyclotomic_matches_moebius_oracle():
    for n in range(1, 301):
        assert cyclotomic_poly(n).coefficients == _oracles.cyclotomic_poly(n)


def test_cyclotomic_divisions_match_fraction_oracle_at_large_degree():
    f = (-1,) + (0,) * 419 + (1,)
    for m in (7, 12, 105, 210):
        q, r = poly_divmod(P(f), cyclotomic_poly(m))
        oq, or_ = _oracles.poly_divmod(_fractions(f), _fractions(cyclotomic_poly(m).coefficients))
        assert q.coefficients == oq and r.coefficients == or_ == ()


def test_exact_path_makes_no_fraction_arithmetic():
    # a fresh interpreter (this one loads fractions for the oracles) runs
    # both cyclotomic commands at d = 420 without ever loading the module,
    # so no Fraction operation can happen on the exact path
    script = (
        "import sys\n"
        "from qsk.cli import main\n"
        "codes = [main(['cyclotomic', '--d', '420']), main(['verify', '--d', '420', '--cyclotomic'])]\n"
        "sys.exit(codes != [0, 0] or 'fractions' in sys.modules)\n"
    )
    env = {"PYTHONPATH": str(Path(qsk.__file__).parents[1]), "PATH": ""}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Phi_420(x) = 1 - x^2 + x^4 + x^10")
    accept = lemma2_conclude(P((3,) * 420), 420)
    reject = lemma2_conclude(P([1, 2] + [0] * 417 + [5]), 420)
    assert accept.equal and accept.constant == 3
    assert not reject.equal


_integers = st.integers(min_value=-30, max_value=30)


@settings(max_examples=100, deadline=None)
@given(st.lists(_integers, max_size=10), st.lists(_integers, max_size=5))
def test_poly_divmod_property(f_coeffs, g_coeffs):
    f, g = P(f_coeffs), P(g_coeffs + [1])  # monic
    q, r = poly_divmod(f, g)
    assert _sum(q * g, r) == f
    assert r.degree < g.degree
