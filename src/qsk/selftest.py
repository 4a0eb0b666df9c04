"""Constructive extraction of the canonical form from a maximal violator.

Given a realization achieving the maximal SATWAP value, the pipeline
recovers local unitaries U_A, U_B such that

    U_B B1 U_B^dag = Z (x) I,   U_B B2 U_B^dag = T (x) I,
    U_A A1 U_A^dag = A1_ideal (x) I,   U_A A2 U_A^dag = A2_ideal (x) I,
    (U_A (x) U_B) |psi> = |phi_d+> (x) |aux>.

Stages: violation gate, vanishing-trace diagnostics, then the alignment
of each party (eigenspaces of the first observable, blocks of the second
from its first block row, and for Alice the qudit-side rotation) find the
witness (U_A, U_B), raising only when none can be built; one checker,
:func:`check_self_test`, decides whether it self-tests the realization.
The pipeline demands (numerically) exact maximal violation; noisy inputs
are rejected at the gate rather than extracted approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import canonical
from .bell import Realization
from .bell import correlators_from_realization  # noqa: F401  kept bound here for perfbench's span wrappers
from .linalg import EigenDecomposition, dagger, haar_random_unitary, roots_of_unity
from .linalg import eig_unitary  # noqa: F401  kept bound here for perfbench's span wrappers
from .satwap import BellFunctional, evaluate, quantum_bound
from .sos import TOL_TRACE, check_trace_conditions

TOL_BLOCK_UNITARY = 1e-6


def tol_violation(d: int) -> float:
    """Violation-gate tolerance; residuals accumulate over d^2 block operations."""
    return 1e-6 * d


def violation_gap(r: Realization) -> tuple[float, float]:
    """``r``'s SATWAP value and its gap to the quantum bound 2(d - 1)."""
    value = evaluate(BellFunctional.satwap(r.d), r.correlators)
    return value, abs(value - quantum_bound(r.d))


class ExtractionError(Exception):
    """A pipeline stage failed; ``stage`` and ``diagnostic`` say where and why."""

    def __init__(self, stage: str, diagnostic: str):
        self.stage = stage
        self.diagnostic = diagnostic
        super().__init__(f"[{stage}] {diagnostic}")


@dataclass(frozen=True)
class ExtractionResult:
    """The witness (``u_a``, ``u_b``); the violation gap and the checker's numbers on it."""

    u_a: np.ndarray
    u_b: np.ndarray
    fidelity: float
    residuals: dict[str, float]


def check_multiplicities(decomp: EigenDecomposition) -> int:
    """Common eigenvalue multiplicity m of a decomposed order-d observable.

    All d eigenvalues w**j must occur equally often, m >= 1 times each, so
    that the dimension is d*m; the alignment needs this on the whole space.
    """
    mults = decomp.multiplicities
    m = mults[0]
    if any(x != m for x in mults) or m == 0:
        raise ExtractionError(
            "multiplicities",
            f"eigenvalue multiplicities {mults} are not one common m >= 1",
        )
    return m


def extract_bob(
    second: np.ndarray, dec1: EigenDecomposition, dec2: EigenDecomposition
) -> np.ndarray:
    """Unitary V carrying a maximally violating pair to (Z, T) (x) I.

    The first observable's eigenvectors (``dec1``), ordered by w**j, carry
    it to Z (x) I; in that frame the second observable's first block row
    F_0i fixes the bases within the eigenspaces: block row i of V is
    corrected by (d/2) w**(-(i+1)/2) F_0i, unitary exactly when F_0i F_0i^dag
    = (4/d^2) I.  Maximal violation forces that relation when the reduced
    states have full rank; a maximal violator with a smaller support can fail
    it.  The d - 1 corrections are one batched expression behind one batched
    unitarity gate.
    """
    d = dec1.d
    m, m_2 = check_multiplicities(dec1), check_multiplicities(dec2)
    if m != m_2:
        raise ExtractionError(
            "multiplicities", f"observables disagree on aux dimension: {m} vs {m_2}"
        )
    v = dagger(dec1.vectors)
    # block (0, i) of v second v^dag, for i >= 1: only the first m rows are formed
    first_row = (v[:m] @ second @ dagger(v)).reshape(m, d, m).swapaxes(0, 1)[1:]
    half = roots_of_unity(2 * d, np.arange(1, d + 1)).conj()  # w**(-(i+1)/2)
    corrections = (d / 2) * half[1:, None, None] * first_row
    errs = np.linalg.norm(corrections @ dagger(corrections) - np.eye(m), axis=(1, 2))
    passing = errs <= TOL_BLOCK_UNITARY
    if not passing.all():
        i = int(np.argmin(passing))  # the first failing block, (0, i + 1)
        raise ExtractionError(
            "block-alignment",
            f"block (0,{i + 1}) of the second observable fails F F^dag = (4/d^2) I "
            f"by {errs[i]:.3e}",
        )
    rows = v.reshape(d, m, -1)
    return np.concatenate([rows[:1], corrections @ rows[1:]]).reshape(v.shape)


def extract_alice(
    second: np.ndarray, dec1: EigenDecomposition, dec2: EigenDecomposition
) -> np.ndarray:
    """Unitary U_A carrying a maximally violating Alice pair to the ideal one (x) I.

    A maximally violating Alice pair obeys exactly the same operator
    relations as Bob's (the two one-party combination families coincide up
    to phases), so Bob's alignment carries it to (Z, T) (x) I; the
    qudit-side rotation W_A (x) I, applied to the aligned block rows, lands
    on the ideal pair.
    """
    d = dec1.d
    v = extract_bob(second, dec1, dec2)
    return (canonical.w_alice(d) @ v.reshape(d, -1)).reshape(v.shape)


def canonicalize_state(canon: Realization) -> tuple[float, np.ndarray, dict[str, float]]:
    """Decompose the rotated state over the two qudits and the aux pair.

    Writing (U_A (x) U_B)|psi> = sum_ij |ij> |psi_ij>, maximal violation
    forces psi_ij = 0 for i != j and all psi_ii equal.  The residuals are
    the largest |psi_ij| off the diagonal and the largest |psi_ii - psi_jj|,
    from one reduction over all d^2 block norms and one broadcast difference.
    The fidelity is |<phi_d+ (x) aux | rotated psi>| with aux the normalized
    psi_00 (falling back to the largest diagonal block when psi_00
    vanishes).  Returns the fidelity, aux and the two named residuals;
    failure is reported through the numbers, never raised.
    """
    d = canon.d
    da, db = canon.dims
    ma, mb = da // d, db // d
    grid = canon.state.reshape(d, ma, d, mb).transpose(0, 2, 1, 3)  # block [i, j] is psi_ij
    norms = np.linalg.norm(grid, axis=(2, 3))
    off = float(np.max(norms[~np.eye(d, dtype=bool)]))
    diagonal = grid[np.arange(d), np.arange(d)].reshape(d, -1)
    mismatch = float(np.linalg.norm(diagonal[:, None] - diagonal[None], axis=-1).max())
    a = int(np.argmax(np.diagonal(norms))) if norms[0, 0] < 1e-12 else 0
    if norms[a, a] < 1e-12:
        aux = np.zeros(ma * mb, dtype=complex)
        fidelity = 0.0
    else:
        with np.errstate(invalid="ignore"):  # a NaN block gives a NaN fidelity, not a warning
            aux = diagonal[a] / np.linalg.norm(diagonal[a])
        fidelity = float(abs(sum(np.vdot(aux, v) for v in diagonal)) / np.sqrt(d))
    return fidelity, aux, {"state_off_diagonal": off, "state_diagonal_mismatch": mismatch}


def check_self_test(
    r: Realization, u_a: np.ndarray, u_b: np.ndarray, ideal: Realization
) -> dict[str, float]:
    """Every residual of the witness (``u_a``, ``u_b``), by products and norms alone.

    Rotates ``r`` once and reads off the four residuals |X - X_ideal (x) I|,
    Bob's pair first, :func:`canonicalize_state`'s ``fidelity`` and two
    residuals, and the ``statistics_drift`` of the correlators.  A failed
    claim, NaN included, shows in the numbers; this never raises.
    """
    canon = canonicalized_realization(r, u_a, u_b)
    residuals = {}
    for party, pair, targets, dim in (
        ("bob", canon.observables_b, ideal.observables_b, canon.dims[1]),
        ("alice", canon.observables_a, ideal.observables_a, canon.dims[0]),
    ):
        eye = np.eye(dim // canon.d)
        for i, (o, target) in enumerate(zip(pair, targets), 1):
            residuals[f"{party}_observable_{i}"] = float(np.linalg.norm(o - np.kron(target, eye)))
    fidelity, _, state = canonicalize_state(canon)
    drift = float(np.abs(canon.correlators - r.correlators).max())
    return {**residuals, **state, "fidelity": fidelity, "statistics_drift": drift}


def extract(r: Realization, ideal: Realization | None = None) -> ExtractionResult:
    """Full pipeline: gate, trace diagnostics, both alignments, then the checker.

    The witness is checked against the canonical realization ``ideal``
    (built here when not given), so a report that already holds it hands
    it in.  Raises :class:`ExtractionError` only where no witness is built.
    """
    d = r.d
    try:
        dec_a1, dec_a2, dec_b1, dec_b2 = r.validate()
        value, gap = violation_gap(r)
    except ValueError as exc:
        raise ExtractionError("input-validation", str(exc)) from exc
    gate = tol_violation(d)
    if not gap <= gate:
        raise ExtractionError(
            "violation-gate",
            f"value {value:.9f} misses the quantum bound {quantum_bound(d)} "
            f"by {gap:.3e} (tolerance {gate:.1e})",
        )

    for name, dec in zip(("A1", "A2", "B1", "B2"), (dec_a1, dec_a2, dec_b1, dec_b2)):
        # the first divisor whose trace does not vanish; a NaN trace fails too
        n = next((n for n, v in check_trace_conditions(dec).items() if not v <= TOL_TRACE), None)
        if n is not None:
            raise ExtractionError(
                "trace-conditions",
                f"Tr({name}^{n}) does not vanish for proper divisor n={n}: "
                f"unequal eigenvalue multiplicities",
            )

    u_b = extract_bob(r.observables_b[1], dec_b1, dec_b2)
    u_a = extract_alice(r.observables_a[1], dec_a1, dec_a2)
    ideal = ideal if ideal is not None else canonical.ideal_realization(d)
    checked = check_self_test(r, u_a, u_b, ideal)
    fidelity = checked.pop("fidelity")
    return ExtractionResult(u_a, u_b, fidelity, {"violation_gap": gap, **checked})


def canonicalized_realization(r: Realization, u_a: np.ndarray, u_b: np.ndarray) -> Realization:
    """The realization rotated by the local unitaries ``u_a`` and ``u_b``."""
    da, db = r.dims
    return Realization(
        d=r.d,
        dims=r.dims,
        state=(u_a @ r.state.reshape(da, db) @ u_b.T).reshape(-1),
        observables_a=tuple(u_a @ o @ dagger(u_a) for o in r.observables_a),
        observables_b=tuple(u_b @ o @ dagger(u_b) for o in r.observables_b),
    )


def scramble(r: Realization, aux_a: int, aux_b: int, seed: int) -> Realization:
    """Hide a realization inside the equivalence class the statistics fix.

    Tensors a random auxiliary state onto the parties, conjugates by
    Haar-random local unitaries, and checks that the correlators are
    unchanged (``ValueError`` if not); extraction must see through exactly
    this freedom.
    """
    if aux_a < 1 or aux_b < 1:
        raise ValueError(f"aux dimensions must be positive, got {aux_a}x{aux_b}")
    rng = np.random.default_rng(np.random.Philox(seed))
    da, db = r.dims
    aux = rng.standard_normal(aux_a * aux_b) + 1j * rng.standard_normal(aux_a * aux_b)
    aux /= np.linalg.norm(aux)
    embedded = Realization(
        d=r.d,
        dims=(da * aux_a, db * aux_b),
        state=np.einsum("ab,st->asbt", r.state.reshape(da, db), aux.reshape(aux_a, aux_b)).ravel(),
        observables_a=tuple(np.kron(o, np.eye(aux_a)) for o in r.observables_a),
        observables_b=tuple(np.kron(o, np.eye(aux_b)) for o in r.observables_b),
    )
    g_a = haar_random_unitary(da * aux_a, rng)
    g_b = haar_random_unitary(db * aux_b, rng)
    scrambled = canonicalized_realization(embedded, g_a, g_b)
    drift = np.abs(scrambled.correlators - r.correlators).max()
    if not drift <= 1e-9:
        raise ValueError(f"scrambling changed the correlations by {drift:.3e}")
    return scrambled
