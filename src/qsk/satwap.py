"""The two-setting d-outcome SATWAP Bell functional and its bounds.

Coefficient convention: ``a_k = (1/sqrt(2)) w**((2k-d)/8)`` with the
principal branch for fractional powers of ``w = exp(2 pi i / d)``,
equivalently ``a_k = (1-i)/2 * w**(k/4)``.  A variant with conjugated
prefactor ``(1+i)/2`` circulates; it fails the oracle (the CGLMP
realization then evaluates to 0 instead of 2(d-1)), so it is rejected
here.  See the evaluation tests for the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import Realization
from .linalg import roots_of_unity, unitary_powers

TOL_REAL = 1e-9


def coefficient_a(d: int, k: int) -> complex:
    """Correlator coefficient a_k = (1/sqrt(2)) exp(i pi (2k - d) / (4d))."""
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be in [1, {d - 1}], got {k}")
    return complex(np.exp(1j * np.pi * (2 * k - d) / (4 * d)) / np.sqrt(2))


@dataclass(frozen=True)
class BellFunctional:
    """A Bell functional in the correlator picture.

    ``coefficients[x, y, k, l]`` multiplies ``<A_x^k B_y^l>``; the value on
    a correlation is provably real for the SATWAP family (coefficients come
    in conjugate pairs), so evaluation is done in complex arithmetic and
    the imaginary residue is asserted small instead of being discarded.
    """

    d: int
    coefficients: np.ndarray

    @classmethod
    def satwap(cls, d: int) -> BellFunctional:
        """The SATWAP functional: every term pairs A_x^k with B_y^(d-k)."""
        coeff = np.zeros((2, 2, d, d), dtype=complex)
        roots = roots_of_unity(d, np.arange(d)).tolist()
        for k in range(1, d):
            ak = coefficient_a(d, k)
            coeff[0, 0, k, d - k] = ak
            coeff[0, 1, k, d - k] = ak.conjugate() * roots[k]
            coeff[1, 0, k, d - k] = ak.conjugate()
            coeff[1, 1, k, d - k] = ak
        return cls(d=d, coefficients=coeff)


def evaluate(f: BellFunctional, c: np.ndarray) -> float:
    """Value of the functional on (2, 2, d, d) correlators (asserted real)."""
    if c.shape != f.coefficients.shape:
        raise ValueError(f"correlators of shape {c.shape} do not match functional d={f.d}")
    val = complex(np.sum(f.coefficients * c))
    if not abs(val.imag) <= TOL_REAL:
        raise ValueError(
            f"imaginary residue {val.imag:.3e}: malformed correlators or wrong "
            "coefficient convention"
        )
    return val.real


def classical_bound(d: int) -> float:
    """Local-hidden-variable bound (1/2)[3 cot(pi/4d) - cot(3 pi/4d)] - 2."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return 0.5 * (3 / np.tan(np.pi / (4 * d)) - 1 / np.tan(3 * np.pi / (4 * d))) - 2


def quantum_bound(d: int) -> float:
    """Maximal quantum value 2(d - 1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return 2.0 * (d - 1)


def bell_operator(f: BellFunctional, r: Realization, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The Bell operator as its Kronecker terms grouped by one party: stacks
    (L, R) of shape (2, d, n, n) with the operator ``sum_{x,k} L[x,k] (x) R[x,k]``.

    ``side`` names the party whose powers are summed against the
    coefficients c[x, y, k, l].  For "bob", ``L[x, k] = A_x^k`` and
    ``R[x, k] = sum_{y,l} c[x, y, k, l] B_y^l``; "alice" is the mirror,
    ``L[y, l] = sum_{x,k} c[x, y, k, l] A_x^k`` and ``R[y, l] = B_y^l``.
    Each grouping is one (2d, 2d) @ (2d, n^2) product of the rearranged
    coefficient table with the other party's power stacks.  The sum is
    Hermitian by the conjugate-pair structure of the coefficients, and its
    expectation on ``r.state`` equals the evaluated functional.
    """
    d = f.d
    if side == "bob":
        own, other, table = r.observables_a, r.observables_b, f.coefficients.transpose(0, 2, 1, 3)
    elif side == "alice":
        own, other, table = r.observables_b, r.observables_a, f.coefficients.transpose(1, 3, 0, 2)
    else:
        raise ValueError(f"side must be 'bob' or 'alice', got {side!r}")
    powers = np.stack([unitary_powers(o, d) for o in own])
    n = other[0].shape[0]
    other_powers = np.stack([unitary_powers(o, d) for o in other]).reshape(2 * d, n * n)
    summed = (table.reshape(2 * d, 2 * d) @ other_powers).reshape(2, d, n, n)
    return (powers, summed) if side == "bob" else (summed, powers)


def probability_form(f: BellFunctional) -> np.ndarray:
    """Real coefficients t[x,y,a,b] such that the value is sum(t * p).

    This is the inverse Fourier image ``W^T c W`` of the correlator
    coefficients; conjugation symmetry of the a_k makes every entry real.
    W's exponents k*l are reduced mod d before exponentiation: unreduced,
    the imaginary residue grows with d and crosses the 1e-12 gate at d = 56.
    """
    k = np.arange(f.d)
    w = roots_of_unity(f.d, np.outer(k, k))
    t = w.T @ f.coefficients @ w
    if not np.abs(t.imag).max() <= 1e-12:
        raise ValueError("probability-form coefficients are not real")
    return t.real

