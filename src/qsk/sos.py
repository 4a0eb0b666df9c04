"""Sum-of-squares machinery for the SATWAP Bell operator.

Both decompositions verified here are *operator identities*: the residual
vanishes for arbitrary order-d unitary observables, not only at the
maximal violation.  What maximal violation adds is the per-term
stabilization of the state, checked separately.

Also houses the algebraic consequence suite used by the extraction:
the twisted commutation relation, the vanishing-trace conditions over
proper divisors, intermediate trace identities, root-of-unity sum
identities, and the block structure of the second observable in the
eigenbasis of the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import Realization
from .cyclotomic import proper_divisors
from .linalg import dagger, kron, omega, unitary_power, unitary_powers
from .satwap import BellFunctional, bell_operator, coefficient_a, quantum_bound


@dataclass(frozen=True)
class COperatorSet:
    """The 2(d-1) one-party combinations entering a sum-of-squares form.

    ``side`` is "bob" for combinations of Bob's observables (each paired
    with a power of an Alice observable) and "alice" for the transposed
    role.  ``ops[(i, k)]`` holds the combination for pairing index
    i in {1, 2} and power k in [1, d).
    """

    d: int
    side: str
    ops: dict[tuple[int, int], np.ndarray]

    def dagger_pairing_residual(self) -> float:
        """max_k |C_i^(d-k) - dagger(C_i^(k))|; zero for order-d inputs."""
        worst = 0.0
        for i in (1, 2):
            for k in range(1, self.d):
                worst = max(
                    worst,
                    float(np.linalg.norm(self.ops[(i, self.d - k)] - dagger(self.ops[(i, k)]))),
                )
        return worst


def c_operators(b1: np.ndarray, b2: np.ndarray, d: int) -> COperatorSet:
    """Bob-side combinations C_1^(k) = a_k B1^-k + a_k* w^k B2^-k and
    C_2^(k) = a_k* B1^-k + a_k B2^-k."""
    inv1 = unitary_powers(dagger(b1), d)
    inv2 = unitary_powers(dagger(b2), d)
    ops = {}
    for k in range(1, d):
        ak = coefficient_a(d, k)
        ops[(1, k)] = ak * inv1[k] + ak.conjugate() * omega(d, k) * inv2[k]
        ops[(2, k)] = ak.conjugate() * inv1[k] + ak * inv2[k]
    return COperatorSet(d=d, side="bob", ops=ops)


def cbar_operators(a1: np.ndarray, a2: np.ndarray, d: int) -> COperatorSet:
    """Alice-side combinations C~_1^(k) = a_k* A1^-k + a_k A2^-k and
    C~_2^(k) = w^-k a_k A1^-k + a_k* A2^-k."""
    inv1 = unitary_powers(dagger(a1), d)
    inv2 = unitary_powers(dagger(a2), d)
    ops = {}
    for k in range(1, d):
        ak = coefficient_a(d, k)
        ops[(1, k)] = ak.conjugate() * inv1[k] + ak * inv2[k]
        ops[(2, k)] = omega(d, -k) * ak * inv1[k] + ak.conjugate() * inv2[k]
    return COperatorSet(d=d, side="alice", ops=ops)


def _sos_terms(r: Realization, side: str):
    """Yield ((i, k), X_{i,k}) for the decomposition on ``side``, in (i, k) order.

    X_{i,k} is A_i^k (x) C_i^(k) for "bob" and C~_i^(k) (x) B_i^k for "alice".
    """
    d = r.d
    if side == "bob":
        cset = c_operators(*r.observables_b, d)
        partner = [unitary_powers(o, d) for o in r.observables_a]
    elif side == "alice":
        cset = cbar_operators(*r.observables_a, d)
        partner = [unitary_powers(o, d) for o in r.observables_b]
    else:
        raise ValueError(f"side must be 'bob' or 'alice', got {side!r}")
    for i in (1, 2):
        for k in range(1, d):
            if side == "bob":
                yield (i, k), kron(partner[i - 1][k], cset.ops[(i, k)])
            else:
                yield (i, k), kron(cset.ops[(i, k)], partner[i - 1][k])


def _sos_residual(r: Realization, side: str) -> float:
    da, db = r.dims
    n = da * db
    acc = quantum_bound(r.d) * np.eye(n) - bell_operator(BellFunctional.satwap(r.d), r)
    for _, term in _sos_terms(r, side):
        p = np.eye(n) - term
        acc -= 0.5 * (dagger(p) @ p)
    return float(np.linalg.norm(acc))


def sos_residual_bob(r: Realization) -> float:
    """|beta_Q I - BellOp - (1/2) sum P^dag P| with P_{i,k} = I - A_i^k (x) C_i^(k)."""
    return _sos_residual(r, "bob")


def sos_residual_alice(r: Realization) -> float:
    """Residual of the mirrored decomposition with P~_{i,k} = I - C~_i^(k) (x) B_i^k."""
    return _sos_residual(r, "alice")


def stabilizer_residuals(r: Realization, side: str = "bob") -> dict[tuple[int, int], float]:
    """Per-term state residuals |(I - X_{i,k}) |psi>| of a decomposition.

    These vanish exactly when the realization maximally violates; they are
    the conditions that drive the extraction.
    """
    psi = r.state
    return {ik: float(np.linalg.norm(psi - term @ psi)) for ik, term in _sos_terms(r, side)}


def check_commutation_relation(b1: np.ndarray, b2: np.ndarray, d: int) -> float:
    """max_k |B1^k B2^-k - w^-k B2^k B1^-k|.

    The twisted commutation relation is a consequence of maximal violation
    and holds for the canonical pair; a commuting pair fails it.
    """
    p1 = unitary_powers(b1, d)
    p2 = unitary_powers(b2, d)
    i1 = unitary_powers(dagger(b1), d)
    i2 = unitary_powers(dagger(b2), d)
    worst = 0.0
    for k in range(1, d):
        lhs = p1[k] @ i2[k]
        rhs = omega(d, -k) * (p2[k] @ i1[k])
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


@dataclass(frozen=True)
class TraceConditionReport:
    """|Tr(B^n)| over every proper divisor n of d."""

    d: int
    entries: tuple[tuple[int, float], ...]
    tolerance: float = 1e-8

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for _, v in self.entries)

    @property
    def witness(self) -> int | None:
        """A divisor with nonvanishing trace, if any."""
        for n, v in self.entries:
            if v > self.tolerance:
                return n
        return None


def check_trace_conditions(b: np.ndarray, d: int, tolerance: float = 1e-8) -> TraceConditionReport:
    """Vanishing of Tr(B^n) for every proper divisor n of d.

    Equal eigenvalue multiplicities imply all these traces vanish; a
    witness divisor certifies unequal multiplicities.
    """
    divisors = set(proper_divisors(d))
    entries = []
    power = np.eye(b.shape[0], dtype=complex)
    for n in range(1, d):
        power = power @ b
        if n in divisors:
            entries.append((n, float(abs(np.trace(power)))))
    return TraceConditionReport(d=d, entries=tuple(entries), tolerance=tolerance)


@dataclass(frozen=True)
class TraceIdentityReport:
    """Max residuals of the intermediate trace identities on a pair (B1, B2)."""

    d: int
    ladder_first: float      # Tr(B1^x) = w^(sx) Tr(B1^((2s+1)x) B2^(-2sx))
    ladder_second: float     # Tr(B2^y) = w^(sy) Tr(B1^(2sy) B2^((-2s+1)y))
    half_phase: float        # Tr(B1^x) = w^(-x/2) Tr(B2^x), x <= floor(d/2)
    doubled_power: float     # Tr(B1^-x B2^(2x)) = w^x Tr(B1^x)

    @property
    def max_residual(self) -> float:
        return max(self.ladder_first, self.ladder_second, self.half_phase, self.doubled_power)


def check_intermediate_identities(
    b1: np.ndarray, b2: np.ndarray, d: int, s_values: tuple[int, ...] = (0, 1, 2, 3)
) -> TraceIdentityReport:
    """Trace identities that follow from the twisted commutation relation.

    Sampled over s in ``s_values`` and all x, y in [0, d); the identities
    are d-periodic in the exponents so the sample is exhaustive in x, y.
    The doubled-power identity carries the phase w**x (the phase follows
    from multiplying the commutation relation at k = x by B2^x and
    tracing; on the canonical pair both sides vanish for x in [1, d)).
    """
    r1 = r2 = r3 = r4 = 0.0
    for s in s_values:
        for x in range(d):
            lhs = np.trace(unitary_power(b1, x))
            rhs = omega(d, s * x) * np.trace(
                unitary_power(b1, (2 * s + 1) * x) @ unitary_power(b2, -2 * s * x)
            )
            r1 = max(r1, abs(lhs - rhs))
        for y in range(d):
            lhs = np.trace(unitary_power(b2, y))
            rhs = omega(d, s * y) * np.trace(
                unitary_power(b1, 2 * s * y) @ unitary_power(b2, (-2 * s + 1) * y)
            )
            r2 = max(r2, abs(lhs - rhs))
    for x in range(1, d // 2 + 1):
        lhs = np.trace(unitary_power(b1, x))
        rhs = omega(d, -x / 2) * np.trace(unitary_power(b2, x))
        r3 = max(r3, abs(lhs - rhs))
    for x in range(1, d):
        lhs = np.trace(unitary_power(b1, -x) @ unitary_power(b2, 2 * x))
        rhs = omega(d, x) * np.trace(unitary_power(b1, x))
        r4 = max(r4, abs(lhs - rhs))
    return TraceIdentityReport(
        d=d,
        ladder_first=float(r1),
        ladder_second=float(r2),
        half_phase=float(r3),
        doubled_power=float(r4),
    )


@dataclass(frozen=True)
class RootIdentityReport:
    """Residuals of the closing root-of-unity identities."""

    d: int
    ratio_sum: float      # sum_{j != i} (1 - w^(k(j-i))) / (1 - w^(i-j)) = k
    weighted_sum: float   # sum_k k w^(kn) = d / (w^n - 1)

    @property
    def max_residual(self) -> float:
        return max(self.ratio_sum, self.weighted_sum)


def check_root_identities(d: int) -> RootIdentityReport:
    """Verify the two root-of-unity sum identities over all valid indices."""
    r1 = 0.0
    for k in range(1, d):
        for i in range(d):
            total = sum(
                (1 - omega(d, k * (j - i))) / (1 - omega(d, i - j))
                for j in range(d)
                if j != i
            )
            r1 = max(r1, abs(total - k))
    r2 = 0.0
    ks = np.arange(d)
    for n in range(1, d):
        total = np.sum(ks * np.exp(2j * np.pi * ks * n / d))
        r2 = max(r2, abs(total - d / (omega(d, n) - 1)))
    return RootIdentityReport(d=d, ratio_sum=r1, weighted_sum=float(r2))


@dataclass(frozen=True)
class BlockStructureReport:
    """Residuals of the block equations for B2 in the eigenbasis of B1 = Z (x) I.

    ``first_row`` and ``off_diagonal`` compare blocks against their scalar
    solutions and hold only after the intra-eigenspace alignment; the other
    three are alignment-independent consequences of maximal violation.
    """

    d: int
    aux_dim: int
    diagonal: float        # F_ii = ((d-2)/d) w^(i+1/2) I
    transpose_pairing: float  # F_ij = w^(i+j+1) dagger(F_ji)
    block_unitarity: float    # F_ij dagger(F_ij) = (4/d^2) I, i != j
    first_row: float          # F_0j = (2/d) w^((j+1)/2) I
    off_diagonal: float       # F_ij = -(2/d) w^((i+j+1)/2) I, i,j >= 1, i != j

    @property
    def aligned(self) -> bool:
        return max(self.first_row, self.off_diagonal) <= 1e-7

    @property
    def max_alignment_free(self) -> float:
        return max(self.diagonal, self.transpose_pairing, self.block_unitarity)


def extract_blocks(b2: np.ndarray, d: int, aux_dim: int) -> np.ndarray:
    """The (d, d) grid of aux_dim x aux_dim blocks of an operator on C^d (x) aux."""
    n = d * aux_dim
    if b2.shape != (n, n):
        raise ValueError(f"operator has shape {b2.shape}, expected ({n}, {n})")
    return b2.reshape(d, aux_dim, d, aux_dim).transpose(0, 2, 1, 3)


def check_fij_structure(b2: np.ndarray, d: int, aux_dim: int) -> BlockStructureReport:
    """Block equations for the second observable given B1 = Z (x) I.

    The caller must already be in a basis where the first observable is
    the clock; the report then quantifies how far ``b2`` is from the
    canonical partner T (x) I, equation by equation.
    """
    blocks = extract_blocks(b2, d, aux_dim)
    eye = np.eye(aux_dim)
    r_diag = max(
        float(np.linalg.norm(blocks[i, i] - ((d - 2) / d) * omega(d, i + 0.5) * eye))
        for i in range(d)
    )
    r_pair = 0.0
    r_unit = 0.0
    r_first = 0.0
    r_off = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            f = blocks[i, j]
            r_pair = max(
                r_pair,
                float(np.linalg.norm(f - omega(d, i + j + 1) * dagger(blocks[j, i]))),
            )
            r_unit = max(
                r_unit, float(np.linalg.norm(f @ dagger(f) - (4 / d**2) * eye))
            )
            if i == 0:
                r_first = max(
                    r_first,
                    float(np.linalg.norm(f - (2 / d) * omega(d, (j + 1) / 2) * eye)),
                )
            elif j != 0:
                r_off = max(
                    r_off,
                    float(np.linalg.norm(f + (2 / d) * omega(d, (i + j + 1) / 2) * eye)),
                )
    return BlockStructureReport(
        d=d,
        aux_dim=aux_dim,
        diagonal=r_diag,
        transpose_pairing=r_pair,
        block_unitarity=r_unit,
        first_row=r_first,
        off_diagonal=r_off,
    )
