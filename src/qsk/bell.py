"""Bipartite Bell-scenario bookkeeping for d-outcome, two-setting experiments.

Probabilities ``p(a,b|x,y)`` and their Fourier-correlator image
``<A_x^k B_y^l>`` are carried as dense arrays indexed ``(x, y, a, b)`` and
``(x, y, k, l)``.  Observables are order-d unitaries (see :mod:`qsk.linalg`);
outcome ``a`` corresponds to eigenvalue ``w**a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import EigenDecomposition, dagger, eig_unitary, unitary_powers

TOL_NORM = 1e-9
BRUTE_FORCE_CAP = 12  # largest d for the d^4 enumeration of local strategies


@dataclass(frozen=True)
class Scenario:
    """d outcomes per measurement, m measurements per party."""

    d: int
    m: int = 2

    def __post_init__(self):
        if self.d < 2 or self.m < 2:
            raise ValueError(f"need d >= 2 and m >= 2, got d={self.d}, m={self.m}")


@dataclass(frozen=True)
class CorrelationTensor:
    """Conditional probabilities p(a,b|x,y), indexed (x, y, a, b).

    ``setting_counts`` records per-setting shot counts for empirical
    tensors; settings that were never sampled hold an all-zero slice and
    are exempt from the normalization invariant.
    """

    scenario: Scenario
    probabilities: np.ndarray
    setting_counts: np.ndarray | None = None

    def validate(self, tol: float = TOL_NORM) -> None:
        d, m = self.scenario.d, self.scenario.m
        if self.probabilities.shape != (m, m, d, d):
            raise ValueError(f"probability tensor has shape {self.probabilities.shape}")
        if not self.probabilities.min() >= -tol:
            raise ValueError(f"negative probability {self.probabilities.min():.3e}")
        sums = self.probabilities.sum(axis=(2, 3))
        for x in range(m):
            for y in range(m):
                if self.setting_counts is not None and self.setting_counts[x, y] == 0:
                    continue
                if not abs(sums[x, y] - 1.0) <= tol:
                    raise ValueError(f"setting ({x},{y}) sums to {sums[x, y]!r}")


@dataclass(frozen=True)
class CorrelatorTensor:
    """Fourier correlators <A_x^k B_y^l>, indexed (x, y, k, l) with k,l in [0, d)."""

    scenario: Scenario
    values: np.ndarray

    def validate(self, tol: float = TOL_NORM) -> None:
        d, m = self.scenario.d, self.scenario.m
        if self.values.shape != (m, m, d, d):
            raise ValueError(f"correlator tensor has shape {self.values.shape}")
        if not np.abs(self.values[:, :, 0, 0] - 1.0).max() <= tol:
            raise ValueError("<A^0 B^0> must equal 1")
        flipped = self.values[:, :, (-np.arange(d)) % d][:, :, :, (-np.arange(d)) % d]
        if not np.abs(flipped - self.values.conj()).max() <= tol:
            raise ValueError("conjugation symmetry <A^(d-k) B^(d-l)> = <A^k B^l>* violated")


@dataclass(frozen=True)
class DeterministicStrategy:
    """Local deterministic assignment x -> a, y -> b."""

    outputs_a: tuple[int, ...]
    outputs_b: tuple[int, ...]

    def probabilities(self, scenario: Scenario) -> CorrelationTensor:
        d, m = scenario.d, scenario.m
        p = np.zeros((m, m, d, d))
        for x in range(m):
            for y in range(m):
                p[x, y, self.outputs_a[x], self.outputs_b[y]] = 1.0
        return CorrelationTensor(scenario, p)


@dataclass(frozen=True)
class Realization:
    """A bipartite state plus two order-d observables per party.

    Its arrays are never mutated in place, so the statistics that
    :attr:`correlators` and :attr:`born` compute on first use stay valid
    for the object's lifetime; a changed realization is a new object.
    """

    d: int
    dims: tuple[int, int]
    state: np.ndarray
    observables_a: tuple[np.ndarray, np.ndarray]
    observables_b: tuple[np.ndarray, np.ndarray]
    scenario: Scenario = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.d, 2))

    def validate(self) -> tuple[EigenDecomposition, ...]:
        """Check shapes, finiteness, normalization and the order-d property.

        Returns the decompositions of (A1, A2, B1, B2) computed on the way.
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
        decomps = []
        for side, obs, dim in (("A", self.observables_a, da), ("B", self.observables_b, db)):
            for i, o in enumerate(obs):
                if o.shape != (dim, dim):
                    raise ValueError(f"observable {side}{i + 1} has shape {o.shape}")
                if not np.isfinite(o).all():
                    raise ValueError(f"observable {side}{i + 1} has non-finite entries")
                decomps.append(eig_unitary(o, self.d))  # raises NotOrderDError on failure
        return tuple(decomps)

    @cached_property
    def correlators(self) -> CorrelatorTensor:
        """:func:`correlators_from_realization`, computed at most once."""
        return correlators_from_realization(self)

    @cached_property
    def born(self) -> CorrelationTensor:
        """:func:`born_probabilities`, computed at most once."""
        return born_probabilities(self)


def born_probabilities(r: Realization) -> CorrelationTensor:
    """p(a,b|x,y) = <psi| P_x^(a) (x) Q_y^(b) |psi> from the eigenbases.

    With ``Phi = V_x^dag Psi conj(W_y)`` in the eigenbases V_x of A_x and
    W_y of B_y, ``p[x, y, a, b]`` sums ``|Phi|^2`` over the columns of
    eigenvalue group a and the rows of group b: ``M |Phi|^2 M^T`` with the
    0/1 group-membership matrices M.
    """
    d = r.d
    psi = r.state.reshape(r.dims)
    dec_a = [eig_unitary(o, d) for o in r.observables_a]
    dec_b = [eig_unitary(o, d) for o in r.observables_b]
    p = np.zeros((2, 2, d, d))
    for x in range(2):
        left = dagger(dec_a[x].vectors) @ psi
        for y in range(2):
            weights = np.abs(left @ dec_b[y].vectors.conj()) ** 2
            p[x, y] = _membership(dec_a[x]) @ weights @ _membership(dec_b[y]).T
    tensor = CorrelationTensor(r.scenario, p)
    tensor.validate(tol=1e-7)
    return tensor


def _membership(decomp: EigenDecomposition) -> np.ndarray:
    """The (d, n) 0/1 matrix with a 1 at [j, c] when column c lies in group j."""
    m = np.zeros((decomp.d, decomp.vectors.shape[1]))
    for j, cols in enumerate(decomp.groups):
        m[j, list(cols)] = 1.0
    return m


def _fourier_matrix(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d)


def correlators_from_probabilities(t: CorrelationTensor) -> CorrelatorTensor:
    """Two-dimensional discrete Fourier transform of p(a,b|x,y): ``W p W^T``."""
    w = _fourier_matrix(t.scenario.d)
    return CorrelatorTensor(t.scenario, w @ t.probabilities @ w.T)


def probabilities_from_correlators(c: CorrelatorTensor) -> CorrelationTensor:
    """Exact inverse of :func:`correlators_from_probabilities`."""
    d = c.scenario.d
    w = _fourier_matrix(d).conj() / d
    p = w.T @ c.values @ w
    if not np.abs(p.imag).max() <= 1e-9:
        raise ValueError("inverse transform produced complex probabilities")
    return CorrelationTensor(c.scenario, p.real)


def expectation(ops_a: np.ndarray, ops_b: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The (K, L) values <psi| A_k (x) B_l |psi> for stacks (K, da, da), (L, db, db).

    ``psi`` is the state as a (da, db) matrix.  With ``G_k = psi^dag A_k psi``
    each value is ``sum(G_k * B_l)`` (B itself, not its transpose), so the
    whole table is one matrix product and no Kronecker product is formed.
    """
    g = psi.conj().T @ ops_a @ psi
    return g.reshape(len(ops_a), -1) @ ops_b.reshape(len(ops_b), -1).T


def correlators_from_realization(r: Realization) -> CorrelatorTensor:
    """<A_x^k (x) B_y^l> computed directly from operator powers."""
    d = r.d
    psi = r.state.reshape(r.dims)
    pow_a = [unitary_powers(o, d) for o in r.observables_a]
    pow_b = [unitary_powers(o, d) for o in r.observables_b]
    values = np.array([[expectation(pa, pb, psi) for pb in pow_b] for pa in pow_a])
    return CorrelatorTensor(r.scenario, values)


def local_bound_bruteforce(functional) -> tuple[float, DeterministicStrategy]:
    """Exact local bound by enumerating all d^4 deterministic strategies.

    ``functional`` must expose ``d`` and a complex coefficient array
    ``coefficients`` of shape (2, 2, d, d) over correlator indices
    (x, y, k, l).  Returns the bound together with an attaining strategy.
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
    idx = np.unravel_index(np.argmax(total), total.shape)
    a1, a2, b1, b2 = (int(i) for i in idx)
    return float(total[idx]), DeterministicStrategy((a1, a2), (b1, b2))


def sample_statistics(r: Realization, shots: int, seed: int) -> CorrelationTensor:
    """Empirical frequencies from i.i.d. sampling with uniform random settings.

    Seeded with the counter-based Philox generator: a fixed seed reproduces
    the tensor exactly, and the generator family supports non-overlapping
    jumps if callers partition shots across workers.
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
            cell = np.clip(exact.probabilities[x, y].reshape(-1), 0.0, None)
            cell = cell / cell.sum()
            freqs[x, y] = rng.multinomial(n, cell).reshape(d, d) / n
    return CorrelationTensor(r.scenario, freqs, setting_counts=setting_counts)
