"""Exact integer polynomial arithmetic and the equal-coefficients argument.

Everything here is exact and no tolerances appear anywhere in this module.
Coefficients are arbitrary-precision ``int``: products are integer
convolutions, and division is long division by a monic divisor, which
every cyclotomic polynomial ``Phi_n`` is, so quotients stay integral.
The headline result: an integer polynomial of degree < d that vanishes at
``w**n`` for every proper divisor n of d has all coefficients equal.  The
divisibility route used to conclude this -- successive exact division by
the cyclotomic polynomials ``Phi_{d/n}`` -- is itself the checkable
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def proper_divisors(d: int) -> list[int]:
    """Ascending divisors of d excluding d itself."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return [n for n in range(1, d) if d % n == 0]


@dataclass(frozen=True)
class IntegerPolynomial:
    """Dense polynomial with integer coefficients, ascending in degree.

    The constructor drops trailing zeros, so ``==`` is equality of
    polynomials and the zero polynomial is ``()`` (degree -1).
    """

    coefficients: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = self.coefficients
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coefficients", tuple(c[:n]))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __mul__(self, other: IntegerPolynomial) -> IntegerPolynomial:
        if self.is_zero() or other.is_zero():
            return IntegerPolynomial()
        b = _nonzero_terms(other.coefficients)
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, bj in b:
                    out[i + j] += a * bj
        return IntegerPolynomial(tuple(out))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and abs(c) == 1:
                parts.append(term if c > 0 else f"-{term}")
            elif i == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{term}")
        joined = " + ".join(parts)
        return joined.replace("+ -", "- ")


def _nonzero_terms(coefficients: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(j, c) for j, c in enumerate(coefficients) if c]


def poly_divmod(
    f: IntegerPolynomial, g: IntegerPolynomial
) -> tuple[IntegerPolynomial, IntegerPolynomial]:
    """Long division f = q*g + r exactly with deg r < deg g, for monic g.

    A monic divisor makes each quotient coefficient the leading remainder
    coefficient itself, so q and r stay integral; any other divisor is
    refused.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.coefficients[-1] != 1:
        raise ValueError(f"divisor {g} is not monic")
    dg = g.degree
    if f.degree < dg:
        return IntegerPolynomial(), f
    rem = list(f.coefficients)
    terms = _nonzero_terms(g.coefficients[:-1])
    quot = [0] * (f.degree - dg + 1)
    for i in range(f.degree - dg, -1, -1):
        c = rem[i + dg]
        if c:
            quot[i] = c
            for j, gj in terms:
                rem[i + j] -= c * gj
    return IntegerPolynomial(tuple(quot)), IntegerPolynomial(tuple(rem[:dg]))


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntegerPolynomial:
    """The n-th cyclotomic polynomial Phi_n, by recursive exact division.

    Phi_n = (x^n - 1) / prod_{m | n, m < n} Phi_m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return IntegerPolynomial((-1, 1))
    num = IntegerPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for m in range(1, n):
        if n % m == 0:
            q, r = poly_divmod(num, cyclotomic_poly(m))
            if not r.is_zero():
                raise ArithmeticError(f"inexact division while building Phi_{n}")
            num = q
    return num


def all_ones_poly(d: int) -> IntegerPolynomial:
    """1 + x + ... + x^(d-1)."""
    return IntegerPolynomial((1,) * d)


def check_product_identity(d: int) -> bool:
    """prod_i Phi_{d/n_i} over proper divisors n_i equals 1 + x + ... + x^(d-1)."""
    prod = IntegerPolynomial((1,))
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
    constant: int | None = None
    failed_divisor: int | None = None
    remainder: IntegerPolynomial | None = None


def lemma2_conclude(w: IntegerPolynomial, d: int) -> EqualCoefficientsVerdict:
    """Run the equal-coefficients argument on ``w`` (degree <= d-1).

    Divides by Phi_{d/n} for each proper divisor n in ascending order,
    requiring exact-zero remainders; accepts iff every remainder vanishes
    and the final quotient is a constant.  A rational polynomial is passed
    scaled to integer coefficients: a nonzero scale leaves ``equal`` and
    ``failed_divisor`` unchanged and scales ``constant`` and ``remainder``.
    """
    if w.degree > d - 1:
        raise ValueError(f"degree {w.degree} exceeds d-1 = {d - 1}")
    if w.is_zero():
        return EqualCoefficientsVerdict(equal=True, constant=0)
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
