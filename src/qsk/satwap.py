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

from .bell import CorrelationTensor, CorrelatorTensor, Realization, _fourier_matrix
from .linalg import kron, omega, unitary_powers

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
        for k in range(1, d):
            ak = coefficient_a(d, k)
            coeff[0, 0, k, d - k] = ak
            coeff[0, 1, k, d - k] = ak.conjugate() * omega(d, k)
            coeff[1, 0, k, d - k] = ak.conjugate()
            coeff[1, 1, k, d - k] = ak
        return cls(d=d, coefficients=coeff)

    def validate_satwap(self, tol: float = 1e-12) -> None:
        for k in range(1, self.d):
            ak = self.coefficients[0, 0, k, self.d - k]
            if abs(abs(ak) - 1 / np.sqrt(2)) > tol:
                raise ValueError(f"|a_{k}| != 1/sqrt(2)")
            adk = self.coefficients[0, 0, self.d - k, k]
            if abs(adk - ak.conjugate()) > tol:
                raise ValueError(f"a_{self.d - k} != conj(a_{k})")


def evaluate(f: BellFunctional, c: CorrelatorTensor) -> float:
    """Value of the functional on a correlator tensor (asserted real)."""
    if c.scenario.d != f.d:
        raise ValueError(f"scenario d={c.scenario.d} does not match functional d={f.d}")
    val = complex(np.sum(f.coefficients * c.values))
    if abs(val.imag) > TOL_REAL:
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


def bell_operator(f: BellFunctional, r: Realization) -> np.ndarray:
    """The Bell operator: functional terms with observables substituted.

    Hermitian by the conjugate-pair structure of the coefficients;
    its expectation on ``r.state`` equals the evaluated functional.
    """
    d = f.d
    da, db = r.dims
    pow_a = [unitary_powers(o, d) for o in r.observables_a]
    pow_b = [unitary_powers(o, d) for o in r.observables_b]
    op = np.zeros((da * db, da * db), dtype=complex)
    for x in range(2):
        for y in range(2):
            for k in range(d):
                for l in range(d):
                    ckl = f.coefficients[x, y, k, l]
                    if ckl != 0:
                        op += ckl * kron(pow_a[x][k], pow_b[y][l])
    return op


def probability_form(f: BellFunctional) -> np.ndarray:
    """Real coefficients t[x,y,a,b] such that the value is sum(t * p).

    This is the inverse Fourier image of the correlator coefficients;
    conjugation symmetry of the a_k makes every entry real.
    """
    w = _fourier_matrix(f.d)
    t = np.einsum("xykl,ka,lb->xyab", f.coefficients, w, w)
    if np.abs(t.imag).max() > 1e-12:
        raise ValueError("probability-form coefficients are not real")
    return t.real


def evaluate_probabilities(f: BellFunctional, t: CorrelationTensor) -> float:
    """Value computed in the probability picture, t-dot-p."""
    return float(np.sum(probability_form(f) * t.probabilities))
