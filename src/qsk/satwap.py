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

    ``coefficients[x, y, k]``, shape (2, 2, d), multiplies ``<A_x^k B_y^(d-k)>``
    (k = 0: I (x) I); the value on a correlation is provably real for the
    SATWAP family (coefficients come in conjugate pairs), so evaluation is
    done in complex arithmetic and the imaginary residue is asserted small.
    """

    d: int
    coefficients: np.ndarray

    @classmethod
    def satwap(cls, d: int) -> BellFunctional:
        """The SATWAP functional: a_k, a_k* w^k, a_k* and a_k at k = 1..d-1, 0 at k = 0."""
        coeff = np.zeros((2, 2, d), dtype=complex)
        roots = roots_of_unity(d, np.arange(d)).tolist()
        for k in range(1, d):
            ak = coefficient_a(d, k)
            coeff[:, :, k] = ((ak, ak.conjugate() * roots[k]), (ak.conjugate(), ak))
        return cls(d=d, coefficients=coeff)


def evaluate(f: BellFunctional, c: np.ndarray) -> float:
    """Value of the functional on (2, 2, d, d) correlators (asserted real)."""
    k = np.arange(f.d)
    if c.shape != (2, 2, f.d, f.d):
        raise ValueError(f"correlators of shape {c.shape} do not match functional d={f.d}")
    val = complex(np.sum(f.coefficients * c[:, :, k, -k % f.d]))
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
    coefficients c[x, y, k].  For "bob", ``L[x, k] = A_x^k`` and
    ``R[x, k] = sum_y c[x, y, k] B_y^(d-k)``; "alice" is the mirror,
    ``L[y, l] = sum_x c[x, y, d-l] A_x^(d-l)`` and ``R[y, l] = B_y^l``.
    Each grouping is d batched (2, 2) @ (2, n^2) products of one k-slice
    of the table with the other party's powers at index -k mod d.  The sum
    is Hermitian by the conjugate-pair structure of the coefficients, and
    its expectation on ``r.state`` equals the evaluated functional.
    """
    d, c = f.d, f.coefficients
    neg = -np.arange(d) % d
    if side == "bob":
        own, other, table = r.observables_a, r.observables_b, c
    elif side == "alice":
        own, other, table = r.observables_b, r.observables_a, c[:, :, neg].swapaxes(0, 1)
    else:
        raise ValueError(f"side must be 'bob' or 'alice', got {side!r}")
    powers = np.stack([unitary_powers(o, d) for o in own])
    partners = np.stack([unitary_powers(o, d)[neg] for o in other]).reshape(2, d, -1)
    summed = (table.transpose(2, 0, 1) @ partners.swapaxes(0, 1)).swapaxes(0, 1)
    summed = summed.reshape(2, d, *other[0].shape)
    return (powers, summed) if side == "bob" else (summed, powers)


def probability_form(f: BellFunctional) -> np.ndarray:
    """Real coefficients t[x,y,a,b] such that the value is sum(t * p).

    This is the inverse Fourier image ``sum_k c[x,y,k] w^(ka - kb)`` of the
    correlator coefficients; conjugation symmetry of the a_k makes every
    entry real.  W's exponents k*l are reduced mod d before exponentiation:
    unreduced, the imaginary residue grows with d and crosses the 1e-12
    gate at d = 56.
    """
    k = np.arange(f.d)
    w = roots_of_unity(f.d, np.outer(k, k))
    t = (w.T * f.coefficients[:, :, None, :]) @ w[-k % f.d]
    if not np.abs(t.imag).max() <= 1e-12:
        raise ValueError("probability-form coefficients are not real")
    return t.real
