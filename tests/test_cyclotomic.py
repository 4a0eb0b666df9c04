import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles

from qsk.cyclotomic import (
    RationalPolynomial,
    all_ones_poly,
    check_product_identity,
    cyclotomic_poly,
    lemma2_conclude,
    poly_divmod,
    proper_divisors,
)

P = RationalPolynomial.from_list


def test_poly_divmod_exact_cases():
    q, r = poly_divmod(P([-1, 0, 1]), P([-1, 1]))          # (x^2-1)/(x-1)
    assert q == P([1, 1]) and r.is_zero()
    q, r = poly_divmod(P([1, 1, 1, 1]), P([1, 0, 1]))      # (x^3+x^2+x+1)/(x^2+1)
    assert q == P([1, 1]) and r.is_zero()
    f = P([2, -3, 0, 5])
    q, r = poly_divmod(f, f)
    assert q == P([1]) and r.is_zero()


def test_poly_divmod_remainder():
    f = P([1, 2, 0, 1])
    g = P([1, 1])
    q, r = poly_divmod(f, g)
    assert (q * g + r) == f
    assert r.degree < g.degree


def test_poly_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P([1, 1]), RationalPolynomial.zero())


def test_poly_arithmetic_is_exact():
    # no floats anywhere: coefficients stay Fractions
    f = P([Fraction(1, 3), Fraction(2, 7)])
    g = P([Fraction(5, 11), 1])
    h = f * g
    assert all(isinstance(c, Fraction) for c in h.coefficients)
    assert h.coefficients[0] == Fraction(5, 33)


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
            assert c.denominator == 1


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
    w = (cyclotomic_poly(2) * cyclotomic_poly(4)).scale(5)
    verdict = lemma2_conclude(w, 4)
    assert verdict.equal and verdict.constant == 5


def test_lemma2_zero_polynomial():
    verdict = lemma2_conclude(RationalPolynomial.zero(), 6)
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
        coeffs = list(rng.integers(-9, 10, size=d))
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
    assert str(RationalPolynomial.zero()) == "0"
    assert str(P([Fraction(1, 2), -1])) == "1/2 - x"


def _random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    if not nonzero and rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))


def _random_coefficients(rng: random.Random, degree: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of exact degree ``degree``; -1 gives zero."""
    if degree < 0:
        return ()
    return tuple(_random_rational(rng) for _ in range(degree)) + (
        _random_rational(rng, nonzero=True),
    )


def _assert_canonical(p: RationalPolynomial) -> None:
    assert p.denominator > 0
    assert gcd(p.denominator, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0
    assert all(type(c) is int for c in p.numerators)


def test_kernels_match_fraction_oracles_on_random_pairs():
    rng = random.Random(2024)
    shorter = 0
    for _ in range(1200):
        f = _random_coefficients(rng, rng.randint(-1, 10))
        g = _random_coefficients(rng, rng.randint(0, 7))
        shorter += len(f) < len(g)
        q, r = poly_divmod(P(f), P(g))
        oq, or_ = _oracles.poly_divmod(f, g)
        assert q.coefficients == oq and r.coefficients == or_
        prod = P(f) * P(g)
        assert prod.coefficients == _oracles.poly_mul(f, g)
        for p in (q, r, prod):
            _assert_canonical(p)
    assert shorter > 100  # deg f < deg g is exercised


def test_poly_divmod_non_monic_rational_divisor():
    # (x^2 - 1/4) / (-2/3 x + 1/3): leading 3x/2 is not divisible by -2 numerator-wise
    f = P([Fraction(-1, 4), 0, 1])
    g = P([Fraction(1, 3), Fraction(-2, 3)])
    q, r = poly_divmod(f, g)
    assert (q.coefficients, r.coefficients) == _oracles.poly_divmod(f.coefficients, g.coefficients)
    assert q * g + r == f and r.is_zero()


def test_cyclotomic_matches_moebius_oracle():
    for n in range(1, 301):
        assert cyclotomic_poly(n).coefficients == _oracles.cyclotomic_poly(n)
        assert cyclotomic_poly(n).denominator == 1


def test_cyclotomic_divisions_match_fraction_oracle_at_large_degree():
    f = (Fraction(-1),) + (Fraction(0),) * 419 + (Fraction(1),)
    for m in (7, 12, 105, 210):
        q, r = poly_divmod(P(f), cyclotomic_poly(m))
        oq, or_ = _oracles.poly_divmod(f, cyclotomic_poly(m).coefficients)
        assert q.coefficients == oq and r.coefficients == or_ == ()


_FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__",
    "__ge__", "__bool__",
)


def test_exact_path_makes_no_fraction_arithmetic(monkeypatch):
    accept = all_ones_poly(420).scale(3)
    reject = P([1, 2] + [0] * 417 + [5])
    calls = []
    for name in _FRACTION_OPERATORS:
        def counted(*args, _original=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(Fraction, name, counted)
    cyclotomic_poly.cache_clear()
    phi = cyclotomic_poly(420)
    product_ok = check_product_identity(420)
    verdicts = (lemma2_conclude(accept, 420), lemma2_conclude(reject, 420))
    text = str(phi)
    assert calls == []
    monkeypatch.undo()
    assert product_ok and text.startswith("1 - x^2 + x^4 + x^10")
    assert verdicts[0].equal and verdicts[0].constant == 3
    assert not verdicts[1].equal


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=15)


@settings(max_examples=100, deadline=None)
@given(st.lists(_rationals, max_size=10), st.lists(_rationals, min_size=1, max_size=6))
def test_poly_divmod_property(f_coeffs, g_coeffs):
    f, g = P(f_coeffs), P(g_coeffs)
    if g.is_zero():
        return
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree
