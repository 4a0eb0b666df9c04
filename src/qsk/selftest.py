"""Constructive extraction of the canonical form from a maximal violator.

Given a realization achieving the maximal SATWAP value, the pipeline
recovers local unitaries U_A, U_B such that

    U_B B1 U_B^dag = Z (x) I,   U_B B2 U_B^dag = T (x) I,
    U_A A1 U_A^dag = A1_ideal (x) I,   U_A A2 U_A^dag = A2_ideal (x) I,
    (U_A (x) U_B) |psi> = |phi_d+> (x) |aux>.

Stages: violation gate, vanishing-trace diagnostics, eigenspace alignment
of the first observable, block alignment of the second from its first
block row, and the qudit-side rotation for Alice.  The pipeline demands
(numerically) exact maximal violation; noisy inputs are rejected at the
gate rather than extracted approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import canonical
from .bell import Realization
from .bell import correlators_from_realization  # noqa: F401  kept bound here for perfbench's span wrappers
from .linalg import EigenDecomposition, dagger, haar_random_unitary, omega, worst
from .linalg import eig_unitary  # noqa: F401  kept bound here for perfbench's span wrappers
from .satwap import BellFunctional, evaluate, quantum_bound
from .sos import check_trace_conditions, extract_blocks

TOL_EXTRACT = 1e-7
TOL_BLOCK_UNITARY = 1e-6


def tol_violation(d: int) -> float:
    """Violation-gate tolerance; residuals accumulate over d^2 block operations."""
    return 1e-6 * d


class ExtractionError(Exception):
    """A pipeline stage failed; ``stage`` and ``diagnostic`` say where and why."""

    def __init__(self, stage: str, diagnostic: str):
        self.stage = stage
        self.diagnostic = diagnostic
        super().__init__(f"[{stage}] {diagnostic}")


@dataclass(frozen=True)
class StateCanonicalization:
    """Outcome of rewriting (U_A (x) U_B)|psi> over the qudit pair and aux.

    ``fidelity`` is the overlap with |phi_d+> (x) aux where aux is the
    normalized first diagonal block; the two residuals quantify the
    block-diagonal product structure that maximal violation forces.
    """

    fidelity: float
    aux_state: np.ndarray
    off_diagonal_residual: float
    diagonal_mismatch: float


@dataclass(frozen=True)
class ExtractionResult:
    u_a: np.ndarray
    u_b: np.ndarray
    aux_dims: tuple[int, int]
    aux_state: np.ndarray
    fidelity: float
    residuals: dict[str, float]
    log: tuple[str, ...]


def check_multiplicities(decomp: EigenDecomposition) -> int:
    """Common eigenvalue multiplicity m of a decomposed order-d observable.

    All d eigenvalues w**j must occur equally often and the dimension must
    be d*m; unequal multiplicities mean the input cannot maximally violate.
    """
    mults = decomp.multiplicities
    m = mults[0]
    if any(x != m for x in mults) or m == 0:
        raise ExtractionError(
            "multiplicities",
            f"not a maximal violator: eigenvalue multiplicities {mults} are unequal",
        )
    return m


def align_first_observable(decomp: EigenDecomposition) -> np.ndarray:
    """Unitary V with V B1 V^dag = Z (x) I, eigenspaces ordered by w**j.

    The intra-eigenspace bases are arbitrary at this stage; the second
    observable's block alignment fixes them.
    """
    check_multiplicities(decomp)
    return dagger(decomp.vectors)


def extract_bob(
    b1: np.ndarray,
    b2: np.ndarray,
    dec1: EigenDecomposition,
    dec2: EigenDecomposition,
    ideal: Realization,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Unitary U_B with U_B B1 U_B^dag = Z (x) I and U_B B2 U_B^dag = T (x) I.

    ``dec1`` and ``dec2`` are the decompositions of ``b1`` and ``b2``, and
    (Z, T) are read from the Bob pair of the canonical realization ``ideal``.
    After aligning B1, the first block row F_0i of the rotated B2 supplies
    the intra-eigenspace corrections: block i of the fixing unitary is
    (d/2) w**(-(i+1)/2) F_0i, unitary exactly when F_0i F_0i^dag = (4/d^2) I,
    which is a consequence of maximal violation.  Returns U_B together
    with the two conjugation residuals it verified.
    """
    d = dec1.d
    v = align_first_observable(dec1)
    m = dec1.multiplicities[0]
    m_b2 = check_multiplicities(dec2)
    if m != m_b2:
        raise ExtractionError(
            "multiplicities", f"observables disagree on aux dimension: {m} vs {m_b2}"
        )
    blocks = extract_blocks(v @ b2 @ dagger(v), d, m)
    fixing = np.zeros((d * m, d * m), dtype=complex)
    fixing[:m, :m] = np.eye(m)
    for i in range(1, d):
        u_i = (d / 2) * omega(d, -(i + 1) / 2) * blocks[0, i]
        err = np.linalg.norm(u_i @ dagger(u_i) - np.eye(m))
        if not err <= TOL_BLOCK_UNITARY:
            raise ExtractionError(
                "block-alignment",
                f"realization does not maximally violate: block (0,{i}) of the "
                f"second observable fails F F^dag = (4/d^2) I by {err:.3e}",
            )
        fixing[i * m : (i + 1) * m, i * m : (i + 1) * m] = u_i
    u_b = fixing @ v
    return u_b, _verify_conjugation(u_b, (b1, b2), ideal.observables_b, m)


def _verify_conjugation(u, sources, targets, m: int) -> tuple[float, float]:
    """Residuals |u S u^dag - T (x) I_m| of the first and second observable."""
    residuals = []
    for which, source, target in zip(("first", "second"), sources, targets):
        res = float(np.linalg.norm(u @ source @ dagger(u) - np.kron(target, np.eye(m))))
        if not res <= TOL_EXTRACT:
            raise ExtractionError(
                "block-alignment", f"{which} observable misses its canonical form by {res:.3e}"
            )
        residuals.append(res)
    return residuals[0], residuals[1]


def extract_alice(
    a1: np.ndarray,
    a2: np.ndarray,
    dec1: EigenDecomposition,
    dec2: EigenDecomposition,
    ideal: Realization,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Unitary U_A carrying (A1, A2) to the Alice pair of ``ideal`` (x) I.

    A maximally violating Alice pair obeys exactly the same operator
    relations as Bob's (the two one-party combination families coincide up
    to phases), so the Bob pipeline aligns it to (Z, T) (x) I; composing
    with the qudit-side rotation w_alice lands on the ideal pair.  Returns
    U_A together with the two conjugation residuals it verified.
    """
    d = dec1.d
    v, _ = extract_bob(a1, a2, dec1, dec2, ideal)
    m = a1.shape[0] // d
    u_a = np.kron(canonical.w_alice(d), np.eye(m)) @ v
    return u_a, _verify_conjugation(u_a, (a1, a2), ideal.observables_a, m)


def canonicalize_state(
    r: Realization, u_a: np.ndarray, u_b: np.ndarray
) -> StateCanonicalization:
    """Rotate the state and decompose it over the two qudits and the aux pair.

    Writing (U_A (x) U_B)|psi> = sum_ij |ij> |psi_ij>, maximal violation
    forces psi_ij = 0 for i != j and all psi_ii equal; the returned
    fidelity is |<phi_d+ (x) aux | rotated psi>| with aux the normalized
    psi_00 (falling back to the largest diagonal block when psi_00
    vanishes).  Failure is reported through the numbers, never raised.
    """
    d = r.d
    da, db = r.dims
    ma, mb = da // d, db // d
    rotated = (u_a @ r.state.reshape(da, db) @ u_b.T).reshape(-1)
    grid = rotated.reshape(d, ma, d, mb)
    off = worst(
        0.0,
        *(float(np.linalg.norm(grid[i, :, j, :])) for i in range(d) for j in range(d) if i != j),
    )
    diagonal = [grid[i, :, i, :].reshape(-1) for i in range(d)]
    mismatch = worst(
        *(float(np.linalg.norm(diagonal[i] - diagonal[j])) for i in range(d) for j in range(d))
    )
    anchor = diagonal[0]
    if np.linalg.norm(anchor) < 1e-12:
        norms = [np.linalg.norm(v) for v in diagonal]
        anchor = diagonal[int(np.argmax(norms))]
    if np.linalg.norm(anchor) < 1e-12:
        aux = np.zeros(ma * mb, dtype=complex)
        fidelity = 0.0
    else:
        aux = anchor / np.linalg.norm(anchor)
        fidelity = float(abs(sum(np.vdot(aux, v) for v in diagonal)) / np.sqrt(d))
    return StateCanonicalization(
        fidelity=fidelity,
        aux_state=aux,
        off_diagonal_residual=off,
        diagonal_mismatch=mismatch,
    )


def extract(r: Realization, ideal: Realization | None = None) -> ExtractionResult:
    """Full pipeline: gate, trace diagnostics, both extractions, state form.

    The observables are extracted onto those of the canonical realization
    ``ideal`` (built here when not given), so a report that already holds
    it hands it in.
    """
    d = r.d
    log: list[str] = []
    try:
        dec_a1, dec_a2, dec_b1, dec_b2 = r.validate()
        value = evaluate(BellFunctional.satwap(d), r.correlators)
    except ValueError as exc:
        raise ExtractionError("input-validation", str(exc)) from exc
    gap = abs(value - quantum_bound(d))
    gate = tol_violation(d)
    if not gap <= gate:
        raise ExtractionError(
            "violation-gate",
            f"value {value:.9f} misses the quantum bound {quantum_bound(d)} "
            f"by {gap:.3e} (tolerance {gate:.1e})",
        )
    log.append(f"violation gate: |{value:.9f} - {quantum_bound(d)}| = {gap:.2e}")

    for name, obs in (
        ("A1", r.observables_a[0]),
        ("A2", r.observables_a[1]),
        ("B1", r.observables_b[0]),
        ("B2", r.observables_b[1]),
    ):
        report = check_trace_conditions(obs, d)
        if not report.passed:
            n = report.witness
            raise ExtractionError(
                "trace-conditions",
                f"Tr({name}^{n}) does not vanish for proper divisor n={n}: "
                f"unequal eigenvalue multiplicities",
            )
    log.append("vanishing-trace conditions: all four observables pass")

    ideal = ideal if ideal is not None else canonical.ideal_realization(d)
    u_b, (res_b1, res_b2) = extract_bob(*r.observables_b, dec_b1, dec_b2, ideal)
    log.append(f"Bob alignment: residuals ({res_b1:.2e}, {res_b2:.2e})")

    u_a, (res_a1, res_a2) = extract_alice(*r.observables_a, dec_a1, dec_a2, ideal)
    log.append(f"Alice alignment: residuals ({res_a1:.2e}, {res_a2:.2e})")

    state = canonicalize_state(r, u_a, u_b)
    log.append(
        f"state: fidelity {state.fidelity:.9f}, off-diagonal "
        f"{state.off_diagonal_residual:.2e}, diagonal mismatch {state.diagonal_mismatch:.2e}"
    )

    return ExtractionResult(
        u_a=u_a,
        u_b=u_b,
        aux_dims=(r.dims[0] // d, r.dims[1] // d),
        aux_state=state.aux_state,
        fidelity=state.fidelity,
        residuals={
            "violation_gap": gap,
            "bob_observable_1": res_b1,
            "bob_observable_2": res_b2,
            "alice_observable_1": res_a1,
            "alice_observable_2": res_a2,
            "state_off_diagonal": state.off_diagonal_residual,
            "state_diagonal_mismatch": state.diagonal_mismatch,
        },
        log=tuple(log),
    )


def canonicalized_realization(r: Realization, result: ExtractionResult) -> Realization:
    """Apply the extracted local unitaries to the whole realization."""
    da, db = r.dims
    state = (result.u_a @ r.state.reshape(da, db) @ result.u_b.T).reshape(-1)
    return Realization(
        d=r.d,
        dims=r.dims,
        state=state,
        observables_a=tuple(result.u_a @ o @ dagger(result.u_a) for o in r.observables_a),
        observables_b=tuple(result.u_b @ o @ dagger(result.u_b) for o in r.observables_b),
    )


def scramble(r: Realization, aux_a: int, aux_b: int, seed: int) -> Realization:
    """Hide a realization inside the equivalence class the statistics fix.

    Tensors a random auxiliary state onto the parties, conjugates by
    Haar-random local unitaries, and asserts that the correlators are
    unchanged; extraction must see through exactly this freedom.
    """
    if aux_a < 1 or aux_b < 1:
        raise ValueError(f"aux dimensions must be positive, got {aux_a}x{aux_b}")
    rng = np.random.default_rng(np.random.Philox(seed))
    da, db = r.dims
    aux = rng.standard_normal(aux_a * aux_b) + 1j * rng.standard_normal(aux_a * aux_b)
    aux /= np.linalg.norm(aux)
    embedded = np.einsum(
        "ab,st->asbt", r.state.reshape(da, db), aux.reshape(aux_a, aux_b)
    ).reshape(-1)
    g_a = haar_random_unitary(da * aux_a, rng)
    g_b = haar_random_unitary(db * aux_b, rng)
    state = (g_a @ embedded.reshape(da * aux_a, db * aux_b) @ g_b.T).reshape(-1)
    scrambled = Realization(
        d=r.d,
        dims=(da * aux_a, db * aux_b),
        state=state,
        observables_a=tuple(
            g_a @ np.kron(o, np.eye(aux_a)) @ dagger(g_a) for o in r.observables_a
        ),
        observables_b=tuple(
            g_b @ np.kron(o, np.eye(aux_b)) @ dagger(g_b) for o in r.observables_b
        ),
    )
    drift = np.abs(scrambled.correlators.values - r.correlators.values).max()
    if not drift <= 1e-9:
        raise AssertionError(f"scrambling changed the correlations by {drift:.3e}")
    return scrambled
