"""Bipartite Bell-scenario bookkeeping for d-outcome, two-setting experiments.

Probabilities ``p(a,b|x,y)`` and their Fourier-correlator image
``<A_x^k B_y^l>`` are carried as dense arrays indexed ``(x, y, a, b)`` and
``(x, y, k, l)``.  Observables are order-d unitaries (see :mod:`qsk.linalg`);
outcome ``a`` corresponds to eigenvalue ``w**a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import EigenDecomposition, eig_unitary, unitary_powers

TOL_NORM = 1e-9


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
        if self.probabilities.min() < -tol:
            raise ValueError(f"negative probability {self.probabilities.min():.3e}")
        sums = self.probabilities.sum(axis=(2, 3))
        for x in range(m):
            for y in range(m):
                if self.setting_counts is not None and self.setting_counts[x, y] == 0:
                    continue
                if abs(sums[x, y] - 1.0) > tol:
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
        if np.abs(self.values[:, :, 0, 0] - 1.0).max() > tol:
            raise ValueError("<A^0 B^0> must equal 1")
        flipped = self.values[:, :, (-np.arange(d)) % d][:, :, :, (-np.arange(d)) % d]
        if np.abs(flipped - self.values.conj()).max() > tol:
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
    """A bipartite state plus two order-d observables per party."""

    d: int
    dims: tuple[int, int]
    state: np.ndarray
    observables_a: tuple[np.ndarray, np.ndarray]
    observables_b: tuple[np.ndarray, np.ndarray]
    scenario: Scenario = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.d, 2))

    def validate(self, tol: float = TOL_NORM) -> tuple[EigenDecomposition, ...]:
        """Check shapes, finiteness, normalization and the order-d property.

        Returns the decompositions of (A1, A2, B1, B2) computed on the way.
        """
        da, db = self.dims
        if self.state.shape != (da * db,):
            raise ValueError(f"state dimension {self.state.shape} != {da}*{db}")
        if not np.isfinite(self.state).all():
            raise ValueError("state has non-finite entries")
        if not abs(np.linalg.norm(self.state) - 1.0) <= tol:
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


def born_probabilities(r: Realization) -> CorrelationTensor:
    """p(a,b|x,y) = <psi| P_x^(a) (x) Q_y^(b) |psi> from spectral projectors."""
    d = r.d
    psi = r.state.reshape(r.dims)
    proj_a = [eig_unitary(o, d) for o in r.observables_a]
    proj_b = [eig_unitary(o, d) for o in r.observables_b]
    p = np.zeros((2, 2, d, d))
    for x in range(2):
        pa = [proj_a[x].projector(a) for a in range(d)]
        for y in range(2):
            qb = [proj_b[y].projector(b) for b in range(d)]
            for a in range(d):
                left = psi.conj().T @ pa[a] @ psi
                for b in range(d):
                    p[x, y, a, b] = np.trace(left @ qb[b].T).real
    tensor = CorrelationTensor(r.scenario, p)
    tensor.validate(tol=1e-7)
    return tensor


def _fourier_matrix(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d)


def correlators_from_probabilities(t: CorrelationTensor) -> CorrelatorTensor:
    """Two-dimensional discrete Fourier transform of p(a,b|x,y)."""
    w = _fourier_matrix(t.scenario.d)
    values = np.einsum("ka,xyab,lb->xykl", w, t.probabilities, w)
    return CorrelatorTensor(t.scenario, values)


def probabilities_from_correlators(c: CorrelatorTensor) -> CorrelationTensor:
    """Exact inverse of :func:`correlators_from_probabilities`."""
    d = c.scenario.d
    w = _fourier_matrix(d).conj()
    p = np.einsum("ka,xykl,lb->xyab", w.T, c.values, w) / d**2
    if np.abs(p.imag).max() > 1e-9:
        raise ValueError("inverse transform produced complex probabilities")
    return CorrelationTensor(c.scenario, p.real)


def expectation(op_a: np.ndarray, op_b: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| op_a (x) op_b |psi> without forming the Kronecker product."""
    return complex(np.einsum("ab,ac,cd,bd->", psi.conj(), op_a, psi, op_b))


def correlators_from_realization(r: Realization) -> CorrelatorTensor:
    """<A_x^k (x) B_y^l> computed directly from operator powers."""
    d = r.d
    psi = r.state.reshape(r.dims)
    pow_a = [unitary_powers(o, d) for o in r.observables_a]
    pow_b = [unitary_powers(o, d) for o in r.observables_b]
    values = np.zeros((2, 2, d, d), dtype=complex)
    for x in range(2):
        for y in range(2):
            for k in range(d):
                for l in range(d):
                    values[x, y, k, l] = expectation(pow_a[x][k], pow_b[y][l], psi)
    return CorrelatorTensor(r.scenario, values)


def local_bound_bruteforce(functional, cap: int = 12) -> tuple[float, DeterministicStrategy]:
    """Exact local bound by enumerating all d^4 deterministic strategies.

    ``functional`` must expose ``d`` and a complex coefficient array
    ``coefficients`` of shape (2, 2, d, d) over correlator indices
    (x, y, k, l).  Returns the bound together with an attaining strategy.
    """
    d = functional.d
    if d > cap:
        raise ValueError(f"d={d} exceeds the enumeration cap {cap}")
    coeff = functional.coefficients
    # V[x,y,a,b] = value contributed by setting pair (x,y) when the
    # strategy outputs (a, b) there.
    w = _fourier_matrix(d)
    v = np.einsum("xykl,ka,lb->xyab", coeff, w, w)
    if np.abs(v.imag).max() > 1e-9:
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
    exact = born_probabilities(r)
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
