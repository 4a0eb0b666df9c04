"""Bipartite Bell-scenario bookkeeping for d-outcome, two-setting experiments.

Probabilities ``p(a,b|x,y)`` and their Fourier-correlator image
``<A_x^k B_y^l>`` are carried as dense arrays indexed ``(x, y, a, b)`` and
``(x, y, k, l)``.  Observables are order-d unitaries (see :mod:`qsk.linalg`);
outcome ``a`` corresponds to eigenvalue ``w**a``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    EigenDecomposition,
    NotOrderDError,
    dagger,
    decomposition_from_basis,
    eig_unitary,
    unitary_powers,
)

TOL_NORM = 1e-9
TOL_BORN = 1e-7  # how far a Born table may sit below 0 or a setting's sum from 1
BRUTE_FORCE_CAP = 12  # largest d for the d^4 enumeration of local strategies


@dataclass(frozen=True)
class Realization:
    """A bipartite state plus two order-d observables per party.

    Its arrays are never mutated in place, so what :attr:`decompositions`,
    :attr:`correlators` and :attr:`born` compute on first use stays valid
    for the object's lifetime; a changed realization is a new object.

    ``eigenbases`` is for constructors that build an observable from a
    basis known in closed form: per observable, in the order (A1, A2, B1,
    B2), a (d, d) unitary whose column r has eigenvalue ``w**r``, or None.
    It is init-only, so ``dataclasses.replace`` does not carry it over to
    the changed realization.
    """

    d: int
    dims: tuple[int, int]
    state: np.ndarray
    observables_a: tuple[np.ndarray, np.ndarray]
    observables_b: tuple[np.ndarray, np.ndarray]
    _bases: tuple = field(init=False, repr=False, compare=False)
    eigenbases: InitVar[tuple | None] = None

    def __post_init__(self, eigenbases):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        object.__setattr__(self, "_bases", eigenbases or (None,) * 4)

    def validate(self) -> tuple[EigenDecomposition, ...]:
        """Check shapes, finiteness, normalization and the order-d property.

        Returns the decompositions of (A1, A2, B1, B2), made afresh by
        :meth:`_decompose`, which names a failing observable.
        """
        da, db = self.dims
        if self.state.shape != (da * db,):
            raise ValueError(f"state dimension {self.state.shape} != {da}*{db}")
        if not np.isfinite(self.state).all():
            raise ValueError("state has non-finite entries")
        with np.errstate(over="ignore"):  # a huge entry overflows to a failing inf
            norm = np.linalg.norm(self.state)
        if not abs(norm - 1.0) <= TOL_NORM:
            raise ValueError("state is not normalized")
        for side, obs, dim in (("A", self.observables_a, da), ("B", self.observables_b, db)):
            for i, o in enumerate(obs):
                if o.shape != (dim, dim):
                    raise ValueError(f"observable {side}{i + 1} has shape {o.shape}")
                if not np.isfinite(o).all():
                    raise ValueError(f"observable {side}{i + 1} has non-finite entries")
        return (*self._decompose("A"), *self._decompose("B"))

    @cached_property
    def decompositions(self) -> tuple[EigenDecomposition, ...]:
        """(A1, A2, B1, B2) decomposed at most once: a supplied basis through
        :func:`decomposition_from_basis`, any other observable through
        :func:`eig_unitary`."""
        return (*self._decompose("A"), *self.decompositions_b)

    @cached_property
    def decompositions_b(self) -> tuple[EigenDecomposition, ...]:
        """(B1, B2) of :attr:`decompositions`, decomposed without Alice's pair."""
        return self._decompose("B")

    def _decompose(self, side: str) -> tuple[EigenDecomposition, ...]:
        """The pair of party ``side`` ("A" or "B"), each observable certified in
        its supplied basis or decomposed by :func:`eig_unitary`; a failure
        raises :class:`NotOrderDError` naming the observable, e.g. B2."""
        d, decs = self.d, []
        pair = self.observables_a if side == "A" else self.observables_b
        bases = self._bases[:2] if side == "A" else self._bases[2:]
        for i, (o, v) in enumerate(zip(pair, bases, strict=True), 1):
            try:
                decs.append(eig_unitary(o, d) if v is None else decomposition_from_basis(o, v, d))
            except ValueError as exc:
                raise NotOrderDError(
                    f"observable {side}{i} is not an order-{d} observable: {exc}"
                ) from exc
        return tuple(decs)

    @cached_property
    def correlators(self) -> np.ndarray:
        """:func:`correlators_from_realization`, computed at most once."""
        return correlators_from_realization(self)

    @cached_property
    def born(self) -> np.ndarray:
        """:func:`born_probabilities`, computed at most once."""
        return born_probabilities(self)


def born_probabilities(r: Realization) -> np.ndarray:
    """p(a,b|x,y) = <psi| P_x^(a) (x) Q_y^(b) |psi> from the eigenbases.

    With ``Phi = V_x^dag Psi conj(W_y)`` in the eigenbases V_x of A_x and
    W_y of B_y (:attr:`Realization.decompositions`), ``p[x, y, a, b]``
    sums ``|Phi|^2`` over the columns of eigenvalue group a and the rows
    of group b: ``M |Phi|^2 M^T`` with the 0/1 group-membership matrices M.
    Returned only if every entry is finite, no entry lies below
    ``-TOL_BORN`` and each setting sums to 1 within ``TOL_BORN``.
    """
    d = r.d
    psi = r.state.reshape(r.dims)
    decomps = r.decompositions
    dec_a, dec_b = decomps[:2], decomps[2:]
    p = np.zeros((2, 2, d, d))
    for x in range(2):
        left = dagger(dec_a[x].vectors) @ psi
        for y in range(2):
            weights = np.abs(left @ dec_b[y].vectors.conj()) ** 2
            p[x, y] = membership(dec_a[x]) @ weights @ membership(dec_b[y]).T
    if not np.isfinite(p).all():
        raise ValueError("probability table has non-finite entries")
    if not p.min() >= -TOL_BORN:
        raise ValueError(f"negative probability {p.min():.3e}")
    for (x, y), total in np.ndenumerate(p.sum(axis=(2, 3))):
        if not abs(total - 1.0) <= TOL_BORN:
            raise ValueError(f"setting ({x},{y}) sums to {total!r}")
    return p


def membership(decomp: EigenDecomposition) -> np.ndarray:
    """The (d, n) 0/1 matrix with a 1 at [j, c] when column c lies in group j."""
    return (np.arange(decomp.d)[:, None] == decomp.labels).astype(float)


def _fourier_matrix(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d)


def correlators_from_probabilities(p: np.ndarray) -> np.ndarray:
    """Two-dimensional discrete Fourier transform of p(a,b|x,y): ``W p W^T``."""
    w = _fourier_matrix(p.shape[-1])
    return w @ p @ w.T


def expectation(ops_a: np.ndarray, ops_b: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The (K, L) values <psi| A_k (x) B_l |psi> for stacks (K, da, da), (L, db, db).

    ``psi`` is the state as a (da, db) matrix.  With ``G_k = psi^dag A_k psi``
    each value is ``sum(G_k * B_l)`` (B itself, not its transpose), so the
    whole table is one matrix product and no Kronecker product is formed.
    """
    g = psi.conj().T @ ops_a @ psi
    return g.reshape(len(ops_a), -1) @ ops_b.reshape(len(ops_b), -1).T


def correlators_from_realization(r: Realization) -> np.ndarray:
    """<A_x^k (x) B_y^l> computed directly from operator powers."""
    d = r.d
    psi = r.state.reshape(r.dims)
    pow_a = [unitary_powers(o, d) for o in r.observables_a]
    pow_b = [unitary_powers(o, d) for o in r.observables_b]
    return np.array([[expectation(pa, pb, psi) for pb in pow_b] for pa in pow_a])


def local_bound_bruteforce(functional) -> float:
    """Exact local bound by enumerating all d^4 deterministic strategies.

    ``functional`` must expose ``d`` and a complex coefficient array
    ``coefficients`` of shape (2, 2, d, d) over correlator indices
    (x, y, k, l).
    """
    d = functional.d
    if d > BRUTE_FORCE_CAP:
        raise ValueError(f"d={d} exceeds the enumeration cap {BRUTE_FORCE_CAP}")
    coeff = functional.coefficients
    # V[x,y,a,b] = value contributed by setting pair (x,y) when the
    # strategy outputs (a, b) there.
    w = _fourier_matrix(d)
    v = np.einsum("xykl,ka,lb->xyab", coeff, w, w)
    if not np.abs(v.imag).max() <= 1e-9:
        raise ValueError("functional is not real on deterministic strategies")
    v = v.real
    total = (
        v[0, 0][:, None, :, None]
        + v[0, 1][:, None, None, :]
        + v[1, 0][None, :, :, None]
        + v[1, 1][None, :, None, :]
    )
    return float(total.max())


def sample_statistics(r: Realization, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical frequencies from i.i.d. sampling with uniform random settings.

    Returns the (2, 2, d, d) frequencies and the (2, 2) shot count of each
    setting; a setting that drew no shot holds an all-zero slice.  Seeded
    with the counter-based Philox generator: a fixed seed reproduces both
    exactly, and the generator family supports non-overlapping jumps if
    callers partition shots across workers.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    d = r.d
    exact = r.born
    rng = np.random.default_rng(np.random.Philox(seed))
    setting_counts = rng.multinomial(shots, [0.25] * 4).reshape(2, 2)
    freqs = np.zeros((2, 2, d, d))
    for x in range(2):
        for y in range(2):
            n = int(setting_counts[x, y])
            if n == 0:
                continue
            cell = np.clip(exact[x, y].reshape(-1), 0.0, None)
            cell = cell / cell.sum()
            freqs[x, y] = rng.multinomial(n, cell).reshape(d, d) / n
    return freqs, setting_counts
