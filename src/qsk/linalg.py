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


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (dimensions multiply)."""
    return np.kron(a, b)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of ``a - b``."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def assert_unitary(a: np.ndarray, tol: float = TOL_UNITARY, what: str = "matrix") -> None:
    n = a.shape[0]
    err = np.linalg.norm(dagger(a) @ a - np.eye(n))
    if err > tol:
        raise ValueError(f"{what} is not unitary: |U^dag U - I| = {err:.3e}")


def unitary_power(a: np.ndarray, k: int) -> np.ndarray:
    """Integer power ``a**k``; negative ``k`` is a power of the adjoint."""
    if k >= 0:
        return np.linalg.matrix_power(a, k)
    assert_unitary(a, what="base of negative power")
    return np.linalg.matrix_power(dagger(a), -k)


def unitary_powers(a: np.ndarray, d: int) -> list[np.ndarray]:
    """All powers ``a**0 .. a**(d-1)`` computed by repeated multiplication."""
    powers = [np.eye(a.shape[0], dtype=complex)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ a)
    return powers


def spectral_projectors(a: np.ndarray, d: int) -> list[np.ndarray]:
    """Spectral projectors of an order-d unitary via Fourier inversion.

    ``P_j = (1/d) sum_k w**(-j k) a**k`` projects onto the ``w**j``
    eigenspace; this inverts the relation ``a = sum_j w**j P_j`` exactly,
    so it is also how measurement projectors are recovered from an
    observable (outcome ``a`` <-> eigenvalue ``w**a``).
    """
    powers = unitary_powers(a, d)
    return [
        sum(omega(d, -j * k) * powers[k] for k in range(d)) / d
        for j in range(d)
    ]


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


def eig_unitary(a: np.ndarray, d: int, tol_snap: float = TOL_SNAP) -> EigenDecomposition:
    """Eigendecomposition of ``a`` with eigenvalues snapped to ``w**j``.

    Raises :class:`NotOrderDError` when ``a`` is not unitary with
    ``a**d = I``, i.e. when any raw eigenvalue sits further than
    ``tol_snap`` from every d-th root of unity.
    """
    dim = a.shape[0]
    assert_unitary(a, tol=max(TOL_UNITARY, tol_snap), what="observable")
    raw = np.linalg.eigvals(a)
    mult = [0] * d
    for lam in raw:
        j = int(np.round(np.angle(lam) * d / (2 * np.pi))) % d
        dist = abs(lam - omega(d, j))
        if dist > tol_snap:
            raise NotOrderDError(
                f"eigenvalue {lam:.6f} is {dist:.3e} from the nearest d-th root of unity"
            )
        mult[j] += 1

    # Orthonormal bases per eigenspace from the Fourier-inverted projectors;
    # stable under degeneracy, unlike generic eigensolver output.
    projs = spectral_projectors(a, d)
    blocks: list[np.ndarray] = []
    groups: list[tuple[int, ...]] = []
    eigenvalues: list[complex] = []
    offset = 0
    for j in range(d):
        m = mult[j]
        tr = np.trace(projs[j]).real
        if abs(tr - m) > 1e-6:
            raise NotOrderDError(
                f"projector trace {tr:.6f} disagrees with eigenvalue multiplicity {m}"
            )
        groups.append(tuple(range(offset, offset + m)))
        offset += m
        if m == 0:
            continue
        u, s, _ = np.linalg.svd(projs[j])
        if s[m - 1] < 0.5 or (m < dim and s[m] > 0.5):
            raise NotOrderDError(f"eigenspace {j} is numerically ill-defined")
        blocks.append(u[:, :m])
        eigenvalues.extend([omega(d, j)] * m)
    vectors = np.hstack(blocks) if blocks else np.zeros((dim, 0), dtype=complex)

    decomp = EigenDecomposition(
        d=d,
        eigenvalues=np.array(eigenvalues),
        vectors=vectors,
        groups=tuple(groups),
    )
    err = decomp.reconstruction_error(a)
    if err > TOL_EIG:
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
