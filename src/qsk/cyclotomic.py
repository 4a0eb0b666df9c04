"""Exact rational polynomial arithmetic and the equal-coefficients argument.

Everything here is exact and no tolerances appear anywhere in this module.
A polynomial is stored as integer numerators over one common positive
denominator, so products and divisions are integer convolutions and
integer pseudo-division (Knuth, TAOCP Vol. 2, 4.6.1): arbitrary-precision
``int`` arithmetic throughout, with ``fractions.Fraction`` only at the
read-out of single coefficients.  The headline result: a rational
polynomial of degree < d that vanishes at ``w**n`` for every proper
divisor n of d has all coefficients equal.  The divisibility route used
to conclude this -- successive exact division by the cyclotomic
polynomials ``Phi_{d/n}`` -- is itself the checkable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def proper_divisors(d: int) -> list[int]:
    """Ascending divisors of d excluding d itself."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return [n for n in range(1, d) if d % n == 0]


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial over the rationals, coefficients ascending in degree.

    Coefficient i is ``numerators[i] / denominator``.  The form is
    canonical, so ``==`` is equality of polynomials: no trailing zero
    numerator, ``denominator > 0`` and coprime to the numerators, and the
    zero polynomial is ``((), 1)`` (degree -1).  Build instances with
    :meth:`from_list`, which canonicalizes.
    """

    numerators: tuple[int, ...]
    denominator: int = 1

    @classmethod
    def from_list(cls, coeffs) -> RationalPolynomial:
        c = [Fraction(x) for x in coeffs]
        den = lcm(1, *(x.denominator for x in c))
        return _canonical([x.numerator * (den // x.denominator) for x in c], den)

    @classmethod
    def zero(cls) -> RationalPolynomial:
        return cls((), 1)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as exact fractions, ascending in degree."""
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def __add__(self, other: RationalPolynomial) -> RationalPolynomial:
        den = lcm(self.denominator, other.denominator)
        fa, fb = den // self.denominator, den // other.denominator
        a, b = self.numerators, other.numerators
        n = max(len(a), len(b))
        return _canonical(
            [(a[i] * fa if i < len(a) else 0) + (b[i] * fb if i < len(b) else 0) for i in range(n)],
            den,
        )

    def scale(self, factor) -> RationalPolynomial:
        f = Fraction(factor)
        return _canonical(
            [c * f.numerator for c in self.numerators], self.denominator * f.denominator
        )

    def __mul__(self, other: RationalPolynomial) -> RationalPolynomial:
        """Integer convolution of the numerators over the product of denominators."""
        if self.is_zero() or other.is_zero():
            return RationalPolynomial.zero()
        b = _nonzero_terms(other.numerators)
        out = [0] * (len(self.numerators) + len(other.numerators) - 1)
        for i, a in enumerate(self.numerators):
            if a:
                for j, bj in b:
                    out[i + j] += a * bj
        return _canonical(out, self.denominator * other.denominator)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        den = self.denominator
        parts = []
        for i, c in enumerate(self.numerators):
            if c == 0:
                continue
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and abs(c) == den:
                parts.append(term if c > 0 else f"-{term}")
            elif i == 0:
                parts.append(str(Fraction(c, den)))
            else:
                parts.append(f"{Fraction(c, den)}*{term}")
        joined = " + ".join(parts)
        return joined.replace("+ -", "- ")


def _canonical(nums: list[int], denominator: int) -> RationalPolynomial:
    """Canonical form of ``nums / denominator`` (ints, denominator > 0); trims ``nums``."""
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        return RationalPolynomial((), 1)
    if denominator != 1:
        g = gcd(denominator, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            denominator //= g
    return RationalPolynomial(tuple(nums), denominator)


def _nonzero_terms(numerators: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(j, c) for j, c in enumerate(numerators) if c]


def poly_divmod(
    f: RationalPolynomial, g: RationalPolynomial
) -> tuple[RationalPolynomial, RationalPolynomial]:
    """Euclidean division: f = q*g + r exactly with deg r < deg g.

    Integer pseudo-division of the numerators F by G keeps the invariant
    ``s F = Q G + R`` with integer Q, R and scale s.  A step whose leading
    remainder term is not divisible by G's leading numerator first
    multiplies R, Q and s by the smallest factor of it that makes the
    term divisible; for a monic divisor such as ``Phi_n`` that never
    happens.  Then ``q = Q g_den / (s f_den)`` and ``r = R / (s f_den)``.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    dg = g.degree
    if f.degree < dg:
        return RationalPolynomial.zero(), f
    rem = list(f.numerators)
    terms = _nonzero_terms(g.numerators)
    lead = g.numerators[-1]
    scale = 1
    quot = [0] * (f.degree - dg + 1)
    for i in range(f.degree - dg, -1, -1):
        t = rem[i + dg]
        if t == 0:
            continue
        if t % lead:
            m = abs(lead) // gcd(t, lead)
            rem = [c * m for c in rem]
            quot = [c * m for c in quot]
            scale *= m
            t *= m
        c = t // lead
        quot[i] = c
        for j, gj in terms:
            rem[i + j] -= c * gj
    den = scale * f.denominator
    return (
        _canonical([c * g.denominator for c in quot], den),
        _canonical(rem[:dg], den),
    )


def _x_power_minus_one(n: int) -> RationalPolynomial:
    return RationalPolynomial((-1,) + (0,) * (n - 1) + (1,))


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> RationalPolynomial:
    """The n-th cyclotomic polynomial Phi_n, by recursive exact division.

    Phi_n = (x^n - 1) / prod_{m | n, m < n} Phi_m; integer coefficients, so
    the cached polynomials hold small ints over denominator 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return RationalPolynomial((-1, 1))
    num = _x_power_minus_one(n)
    for m in range(1, n):
        if n % m == 0:
            q, r = poly_divmod(num, cyclotomic_poly(m))
            if not r.is_zero():
                raise ArithmeticError(f"inexact division while building Phi_{n}")
            num = q
    return num


def all_ones_poly(d: int) -> RationalPolynomial:
    """1 + x + ... + x^(d-1)."""
    return RationalPolynomial((1,) * d)


def check_product_identity(d: int) -> bool:
    """prod_i Phi_{d/n_i} over proper divisors n_i equals 1 + x + ... + x^(d-1)."""
    prod = RationalPolynomial((1,))
    for n in proper_divisors(d):
        prod = prod * cyclotomic_poly(d // n)
    return prod == all_ones_poly(d)


@dataclass(frozen=True)
class EqualCoefficientsVerdict:
    """Outcome of the divisibility argument on a degree < d polynomial.

    ``equal`` is True iff successive division by Phi_{d/n} (n running over
    the proper divisors of d) leaves zero remainders and a constant final
    quotient; ``constant`` is then the common coefficient.  Otherwise
    ``failed_divisor`` names the first n whose cyclotomic division left the
    nonzero ``remainder``.
    """

    equal: bool
    constant: Fraction | None = None
    failed_divisor: int | None = None
    remainder: RationalPolynomial | None = None


def lemma2_conclude(w: RationalPolynomial, d: int) -> EqualCoefficientsVerdict:
    """Run the equal-coefficients argument on ``w`` (degree <= d-1).

    Divides by Phi_{d/n} for each proper divisor n in ascending order,
    requiring exact-zero remainders; accepts iff every remainder vanishes
    and the final quotient is a constant.
    """
    if w.degree > d - 1:
        raise ValueError(f"degree {w.degree} exceeds d-1 = {d - 1}")
    if w.is_zero():
        return EqualCoefficientsVerdict(equal=True, constant=Fraction(0))
    quotient = w
    for n in proper_divisors(d):
        quotient, rem = poly_divmod(quotient, cyclotomic_poly(d // n))
        if not rem.is_zero():
            return EqualCoefficientsVerdict(equal=False, failed_divisor=n, remainder=rem)
    if quotient.degree > 0:
        # Unreachable for inputs of degree <= d-1: the divisor product has
        # degree exactly d-1.
        return EqualCoefficientsVerdict(equal=False, failed_divisor=d, remainder=quotient)
    return EqualCoefficientsVerdict(equal=True, constant=quotient.coefficients[0])
