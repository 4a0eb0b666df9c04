"""Dense complex linear algebra for order-d unitary observables.

All matrices are ``numpy`` arrays of ``complex128`` (pairs of doubles).
The central object is the *order-d observable*: a unitary ``U`` with
``U**d == I`` whose eigenvalues are d-th roots of unity ``w**j``; outcome
``a`` of the associated d-outcome measurement corresponds to the
eigenvalue ``w**a``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_UNITARY = 1e-9
TOL_EIG = 1e-9
TOL_SCREEN = 1e-6  # eig_unitary's unitarity screen ahead of the projectors


class NotOrderDError(ValueError):
    """Raised when a matrix fails the order-d observable checks."""


def roots_of_unity(n: int, k) -> np.ndarray:
    """``exp(2*pi*i*k/n)`` for integer-valued exponents ``k`` of any shape.

    Each exponent is reduced mod n first, and the angle is formed in real
    arithmetic.  A half or quarter power w**(k/2), w**(k/4) of the d-th
    root, on the principal branch, is ``roots_of_unity(2*d, k)``,
    ``roots_of_unity(4*d, k)``.
    """
    return np.exp(1j * (2 * np.pi * (np.asarray(k) % n) / n))


def worst(*residuals: float) -> float:
    """The largest residual, NaN when any is NaN.

    Builtin ``max`` drops a NaN that is not its first argument
    (``max(1e-14, nan)`` is 1e-14), which would let a gate pass.
    """
    return float(np.max(residuals))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix in a stack (..., n, n)."""
    return a.conj().swapaxes(-1, -2)


def kron_sum_norm(ls: np.ndarray, rs: np.ndarray) -> float:
    """Frobenius norm of ``sum_t ls[t] (x) rs[t]`` for stacks (T, na, na), (T, nb, nb).

    The sum is never formed.  Entry [(i,j), (k,l)] of it is
    ``sum_t L_t[i,k] R_t[j,l]``, entry [(i,k), (j,l)] of ``L^T R`` where
    row t of L is vec(L_t) and row t of R is vec(R_t), so both have the
    same norm (Van Loan and Pitsianis, 1993).  With the thin QR
    ``L^T = Q1 R1`` that norm is ``|R1 R|``: memory O((na^2 + nb^2) T)
    instead of O(na^2 nb^2), and nothing is squared, so no cancellation
    floor.  The stacks may be real or complex; a real pair takes a real QR.
    A non-finite entry makes the result NaN.
    """
    return float(np.linalg.norm(kron_sum_r_factor(ls) @ rs.reshape(len(ls), -1)))


def kron_sum_r_factor(ls: np.ndarray) -> np.ndarray:
    """``kron_sum_norm``'s R1; a caller holding it alone has dropped ``ls``."""
    return np.linalg.qr(ls.reshape(len(ls), -1).T, mode="r")


def _unitarity_error(a: np.ndarray) -> float:
    """``|U^dag U - I|``; a huge finite entry overflows to inf or NaN, which fails any gate."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(dagger(a) @ a - np.eye(a.shape[-1])))


def assert_unitary(a: np.ndarray, tol: float = TOL_UNITARY, what: str = "matrix") -> None:
    err = _unitarity_error(a)
    if not err <= tol:
        raise ValueError(f"{what} is not unitary: |U^dag U - I| = {err:.3e}")


def unitary_powers(a: np.ndarray, d: int) -> np.ndarray:
    """The stack (d, n, n) of powers ``a**0 .. a**(d-1)``, by repeated multiplication."""
    powers = np.empty((d, *a.shape), dtype=complex)
    powers[0] = np.eye(a.shape[0])
    for k in range(1, d):
        np.matmul(powers[k - 1], a, out=powers[k])
    return powers


def spectral_projectors(a: np.ndarray, d: int) -> np.ndarray:
    """The stack (d, n, n) of spectral projectors of an order-d unitary.

    ``P_j = (1/d) sum_k w**(-j k) a**k`` projects onto the ``w**j``
    eigenspace; this inverts the relation ``a = sum_j w**j P_j`` exactly,
    so it is also how measurement projectors are recovered from an
    observable (outcome ``a`` <-> eigenvalue ``w**a``).  The whole stack
    is one (d, d) @ (d, n*n) product of the inverse DFT matrix, 1/d
    included, with the flattened powers.
    """
    k = np.arange(d)
    dft = np.exp(-2j * np.pi * (np.outer(k, k) % d) / d) / d
    n = a.shape[0]
    return (dft @ unitary_powers(a, d).reshape(d, n * n)).reshape(d, n, n)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigendecomposition of an order-d unitary, its eigenvalues exact roots ``w**j``.

    ``vectors`` is unitary with its columns in consecutive runs by
    eigenvalue index: the first ``multiplicities[0]`` columns span the
    ``w**0`` eigenspace, the next ``multiplicities[1]`` the ``w**1``
    eigenspace, and so on (an arbitrary orthonormal basis inside each
    run).  ``multiplicities`` is the one record of the spectrum.

    Both constructors, :func:`eig_unitary` and
    :func:`decomposition_from_basis`, return only what :func:`_certified`
    passed, and that gate holds only when ``B**d = I`` to its tolerance, so
    a caller may read ``B**k`` off ``labels`` with k reduced mod d.
    """

    d: int
    vectors: np.ndarray
    multiplicities: tuple[int, ...]

    @property
    def labels(self) -> np.ndarray:
        """Eigenvalue index j of each column: ``repeat(arange(d), multiplicities)``."""
        return np.repeat(np.arange(self.d), self.multiplicities)

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalue of each column, exactly ``w**j`` for its label j."""
        return roots_of_unity(self.d, self.labels)

    def reconstruction_error(self, a: np.ndarray) -> float:
        return float(np.linalg.norm(a - (self.vectors * self.eigenvalues) @ dagger(self.vectors)))


def _certified(
    a: np.ndarray, vectors: np.ndarray, multiplicities: tuple[int, ...], d: int
) -> EigenDecomposition:
    """The decomposition of ``a`` in the candidate basis ``vectors``, or :class:`NotOrderDError`.

    Column c of ``vectors`` carries the eigenvalue ``w**j`` of its run, the
    runs of lengths ``multiplicities`` in order j = 0..d-1.  The basis must
    be unitary to ``TOL_UNITARY`` (a non-unitary basis can still reconstruct
    ``a``, e.g. a hyperbolic mix of two columns whose eigenvalues are w**0
    and w**(d/2)), and ``V diag(w**j) V^dag`` must reconstruct ``a`` to
    ``TOL_EIG``.  Together they place ``a`` within ``TOL_EIG`` of an exactly
    order-d unitary with these multiplicities, however the basis was found.
    A wrong shape fails, and so does a NaN anywhere.
    """
    n = len(a)
    if not a.shape == vectors.shape == (n, n) or (len(multiplicities), sum(multiplicities)) != (d, n):
        raise NotOrderDError(
            f"basis of shape {vectors.shape}, multiplicities {multiplicities} "
            f"for a {a.shape} observable at d={d}"
        )
    err = _unitarity_error(vectors)
    if not err <= TOL_UNITARY:
        raise NotOrderDError(f"eigenbasis is not unitary: |V^dag V - I| = {err:.3e}")
    decomp = EigenDecomposition(d=d, vectors=vectors, multiplicities=multiplicities)
    with np.errstate(over="ignore", invalid="ignore"):
        err = decomp.reconstruction_error(a)
    if not err <= TOL_EIG:
        raise NotOrderDError(f"eigendecomposition reconstruction error {err:.3e}")
    return decomp


def eig_unitary(a: np.ndarray, d: int) -> EigenDecomposition:
    """Eigendecomposition of ``a`` from one eigensolve, with exact eigenvalues ``w**j``.

    The basis comes from one Hermitian ``eigh`` of the label operator
    ``H = sum_j j P_j`` built from the Fourier-inverted spectral
    projectors: its eigenvalues, rounded, are the labels j, a gap of 1
    apart, so its columns are orthonormal and already sorted into the
    groups j = 0..d-1 however degenerate the spectrum.  Each group is then
    polished as ``qr(P_j V_j)``, which takes the reconstruction error down
    to that of a per-eigenspace SVD; the groups of one multiplicity m go
    through one stacked QR of shape (groups, n, m).

    Raises ``ValueError`` when ``a`` is not unitary to ``TOL_SCREEN`` (a
    NaN or inf entry included), and :class:`NotOrderDError` when a label
    is NaN or outside 0..d-1 or the basis fails :func:`_certified`, the
    gate that puts each eigenvalue within about ``TOL_EIG`` of its root;
    that refusal leads with the input's own order defect ``|U^d - I|``.
    """
    assert_unitary(a, tol=TOL_SCREEN, what="observable")
    projs = spectral_projectors(a, d)
    values, vectors = np.linalg.eigh(np.tensordot(np.arange(d), projs, axes=1))
    j = np.rint(values)
    if not ((j >= 0) & (j <= d - 1)).all():  # a NaN label fails too, before int() of it
        raise NotOrderDError(f"eigenvalue labels {values.min():.3f}..{values.max():.3f} leave 0..{d - 1}")
    mult = np.bincount(j.astype(int), minlength=d)
    offsets = np.concatenate(([0], np.cumsum(mult)))
    # one stacked QR per multiplicity class; set(), not np.unique, whose
    # first call in a process costs milliseconds
    for m in set(mult.tolist()) - {0}:
        ks = np.flatnonzero(mult == m)
        cols = offsets[ks][:, None] + np.arange(m)
        # every eigenspace in one class: the stack itself, not a gathered copy
        stack = projs if len(ks) == d else projs[ks]
        blocks = vectors[:, cols].transpose(1, 0, 2)
        vectors[:, cols] = np.linalg.qr(stack @ blocks)[0].transpose(1, 0, 2)
    try:
        return _certified(a, vectors, tuple(mult.tolist()), d)
    except NotOrderDError as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.linalg.norm(np.linalg.matrix_power(a, d) - np.eye(len(a)))
        raise NotOrderDError(f"|U^{d} - I| = {defect:.3e} ({exc})") from exc


def decomposition_from_basis(a: np.ndarray, vectors: np.ndarray, d: int) -> EigenDecomposition:
    """The decomposition of a simple-spectrum ``a`` in a basis known in closed form.

    Column r of the (d, d) ``vectors`` carries the eigenvalue ``w**r``.
    The basis is gated, not trusted: a basis that fails :func:`_certified`
    raises :class:`NotOrderDError`, and so does any other shape, since d
    multiplicities of 1 admit only n = d.
    """
    return _certified(a, vectors, (1,) * d, d)


def haar_random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
