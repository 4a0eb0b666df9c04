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
TOL_SNAP = 1e-6


class NotOrderDError(ValueError):
    """Raised when a matrix fails the order-d observable checks."""


def omega(d: int, q: float = 1.0) -> complex:
    """Principal-branch power of the d-th root of unity: exp(2*pi*i*q/d).

    Fractional ``q`` (half and quarter powers) always uses the principal
    branch; every construction in this package relies on that convention.
    """
    return complex(np.exp(2j * np.pi * q / d))


def roots_of_unity(n: int, k) -> np.ndarray:
    """``exp(2*pi*i*k/n)`` for integer-valued exponents ``k`` of any shape.

    Each exponent is reduced mod n first, and the angle is formed in real
    arithmetic, so an exponent already in [0, n) gives exactly
    ``omega(n, k)``.  A half or quarter power w**(k/2), w**(k/4) of the
    d-th root is ``roots_of_unity(2*d, k)``, ``roots_of_unity(4*d, k)``.
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
    floor.  A non-finite entry makes the result NaN.
    """
    t = len(ls)
    r1 = np.linalg.qr(ls.reshape(t, -1).T, mode="r")
    return float(np.linalg.norm(r1 @ rs.reshape(t, -1)))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of ``a - b``."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def assert_unitary(a: np.ndarray, tol: float = TOL_UNITARY, what: str = "matrix") -> None:
    n = a.shape[0]
    # a huge finite entry overflows to inf or NaN, which fails the gate below
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.linalg.norm(dagger(a) @ a - np.eye(n))
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
    """Eigendecomposition of an order-d unitary with root-of-unity snapping.

    ``vectors`` is unitary with columns grouped by eigenvalue index:
    ``groups[j]`` lists the column indices spanning the ``w**j``
    eigenspace (an arbitrary orthonormal basis inside each group).
    ``eigenvalues[c]`` is the snapped eigenvalue of column ``c``, exactly
    ``w**j`` for some integer ``j``.
    """

    d: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    def projector(self, j: int) -> np.ndarray:
        cols = self.vectors[:, list(self.groups[j])]
        return cols @ dagger(cols)

    def reconstruction_error(self, a: np.ndarray) -> float:
        return frobenius_distance(a, self.vectors @ np.diag(self.eigenvalues) @ dagger(self.vectors))


def eig_unitary(a: np.ndarray, d: int) -> EigenDecomposition:
    """Eigendecomposition of ``a`` with eigenvalues snapped to ``w**j``.

    Raises :class:`NotOrderDError` when ``a`` is not unitary with
    ``a**d = I``, i.e. when any raw eigenvalue sits further than
    ``TOL_SNAP`` from every d-th root of unity.
    """
    dim = a.shape[0]
    assert_unitary(a, tol=max(TOL_UNITARY, TOL_SNAP), what="observable")
    raw = np.linalg.eigvals(a)
    # float until the gate has passed: int() of a NaN would raise the wrong error
    j = np.round(np.angle(raw) * d / (2 * np.pi)) % d
    dist = np.abs(raw - roots_of_unity(d, j))
    off = ~(dist <= TOL_SNAP)
    if off.any():
        c = int(np.argmax(off))
        raise NotOrderDError(
            f"eigenvalue {raw[c]:.6f} is {dist[c]:.3e} from the nearest d-th root of unity"
        )
    mult = np.bincount(j.astype(int), minlength=d)

    # Orthonormal bases per eigenspace from the Fourier-inverted projectors;
    # stable under degeneracy, unlike generic eigensolver output.
    projs = spectral_projectors(a, d)
    blocks: list[np.ndarray] = []
    groups: list[tuple[int, ...]] = []
    offset = 0
    for j in range(d):
        m = mult[j]
        tr = np.trace(projs[j]).real
        if not abs(tr - m) <= 1e-6:
            raise NotOrderDError(
                f"projector trace {tr:.6f} disagrees with eigenvalue multiplicity {m}"
            )
        groups.append(tuple(range(offset, offset + m)))
        offset += m
        if m == 0:
            continue
        u, s, _ = np.linalg.svd(projs[j])
        if not (s[m - 1] >= 0.5 and (m == dim or s[m] <= 0.5)):
            raise NotOrderDError(f"eigenspace {j} is numerically ill-defined")
        blocks.append(u[:, :m])
    vectors = np.hstack(blocks) if blocks else np.zeros((dim, 0), dtype=complex)

    decomp = EigenDecomposition(
        d=d,
        eigenvalues=np.repeat(roots_of_unity(d, np.arange(d)), mult),
        vectors=vectors,
        groups=tuple(groups),
    )
    err = decomp.reconstruction_error(a)
    if not err <= TOL_EIG:
        raise NotOrderDError(f"eigendecomposition reconstruction error {err:.3e}")
    return decomp


def partial_trace(state: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Reduced density matrix of a pure bipartite state.

    ``keep`` selects the surviving subsystem, ``"A"`` or ``"B"``.
    """
    da, db = dims
    if state.shape != (da * db,):
        raise ValueError(f"state has dimension {state.shape}, expected {da * db}")
    m = state.reshape(da, db)
    if keep.upper() == "A":
        return m @ m.conj().T
    if keep.upper() == "B":
        return m.T @ m.conj()
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def haar_random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
