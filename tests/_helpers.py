"""Shared builders for randomized tests (seeded, reproducible)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qsk.bell import Realization
from qsk.linalg import EigenDecomposition, dagger, haar_random_unitary


def omega(d: int, q: float = 1.0) -> complex:
    """Principal-branch power of the d-th root of unity: exp(2*pi*i*q/d), the scalar reference.

    Fractional ``q`` (half and quarter powers) uses the principal branch,
    the convention of every construction in :mod:`qsk`.
    """
    return complex(np.exp(2j * np.pi * q / d))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of ``a - b``; operands of different shapes raise."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class DeterministicStrategy:
    """Local deterministic assignment x -> a, y -> b."""

    outputs_a: tuple[int, ...]
    outputs_b: tuple[int, ...]


def random_order_d(dim: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-conjugated unitary with eigenvalues among the d-th roots of unity.

    Every root appears at least once; the remaining multiplicity is spread
    at random, so dim >= d is required.
    """
    if dim < d:
        raise ValueError("dim must be at least d")
    mults = [1] * d
    for _ in range(dim - d):
        mults[int(rng.integers(0, d))] += 1
    values = np.concatenate([[omega(d, j)] * m for j, m in enumerate(mults)])
    u = haar_random_unitary(dim, rng)
    return u @ np.diag(values) @ u.conj().T


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_realization(
    d: int, rng: np.random.Generator, dim_a: int | None = None, dim_b: int | None = None
) -> Realization:
    da = dim_a if dim_a is not None else d
    db = dim_b if dim_b is not None else d
    return Realization(
        d=d,
        dims=(da, db),
        state=random_state(da * db, rng),
        observables_a=(random_order_d(da, d, rng), random_order_d(da, d, rng)),
        observables_b=(random_order_d(db, d, rng), random_order_d(db, d, rng)),
    )


def random_probability_tensor(d: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.random((2, 2, d, d))
    return p / p.sum(axis=(2, 3), keepdims=True)


def strategy_probabilities(s: DeterministicStrategy, d: int) -> np.ndarray:
    """The 0/1 tensor of a deterministic strategy: p(a,b|x,y) = 1 at its outputs."""
    p = np.zeros((2, 2, d, d))
    for x in range(2):
        for y in range(2):
            p[x, y, s.outputs_a[x], s.outputs_b[y]] = 1.0
    return p


def check_correlators(c: np.ndarray, tol: float = 1e-9) -> None:
    """Raise unless (2, 2, d, d) correlators have <A^0 B^0> = 1 and the
    conjugation symmetry <A^(d-k) B^(d-l)> = <A^k B^l>*."""
    d = c.shape[-1]
    if c.shape != (2, 2, d, d):
        raise ValueError(f"correlator tensor has shape {c.shape}")
    if not np.abs(c[:, :, 0, 0] - 1.0).max() <= tol:
        raise ValueError("<A^0 B^0> must equal 1")
    flipped = c[:, :, (-np.arange(d)) % d][:, :, :, (-np.arange(d)) % d]
    if not np.abs(flipped - c.conj()).max() <= tol:
        raise ValueError("conjugation symmetry <A^(d-k) B^(d-l)> = <A^k B^l>* violated")


def projector(decomp: EigenDecomposition, j: int) -> np.ndarray:
    """Projector onto the w**j eigenspace: the j-th run of columns of ``decomp.vectors``."""
    start = sum(decomp.multiplicities[:j])
    cols = decomp.vectors[:, start : start + decomp.multiplicities[j]]
    return cols @ dagger(cols)
