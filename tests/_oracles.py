"""Loop-and-Kronecker reference forms of the batched kernels (test oracles).

Each function here is the direct transcription of a definition: one
``einsum`` per correlator entry, one trace per Born probability, one dense
``kron`` per Bell-operator or sum-of-squares term.  They are slow (O(n^4)
per entry or per term) and exist only to cross-check the fast kernels in
:mod:`qsk` at small d.
"""

from __future__ import annotations

import numpy as np

from qsk.bell import Realization
from qsk.linalg import dagger, eig_unitary, unitary_powers
from qsk.satwap import BellFunctional, quantum_bound
from qsk.sos import c_operators, cbar_operators


def expectation(op_a: np.ndarray, op_b: np.ndarray, psi: np.ndarray) -> complex:
    """<psi| op_a (x) op_b |psi> for one pair of operators, psi as a (da, db) matrix."""
    return complex(np.einsum("ab,ac,cd,bd->", psi.conj(), op_a, psi, op_b))


def correlators(r: Realization) -> np.ndarray:
    """<A_x^k (x) B_y^l> entry by entry, indexed (x, y, k, l)."""
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
    return values


def born_probabilities(r: Realization) -> np.ndarray:
    """p(a,b|x,y) = Tr(psi^dag P_a psi Q_b^T) from the spectral projectors."""
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
    return p


def bell_operator(f: BellFunctional, r: Realization) -> np.ndarray:
    """Sum of c_{xykl} A_x^k (x) B_y^l, one dense Kronecker product per term."""
    d = f.d
    da, db = r.dims
    pow_a = [unitary_powers(o, d) for o in r.observables_a]
    pow_b = [unitary_powers(o, d) for o in r.observables_b]
    op = np.zeros((da * db, da * db), dtype=complex)
    for x in range(2):
        for y in range(2):
            for k in range(d):
                for l in range(d):
                    ckl = f.coefficients[x, y, k, l]
                    if ckl != 0:
                        op += ckl * np.kron(pow_a[x][k], pow_b[y][l])
    return op


def sos_terms(r: Realization, side: str) -> list[tuple[tuple[int, int], np.ndarray]]:
    """((i, k), X_{i,k}) with X_{i,k} formed as a dense Kronecker product."""
    d = r.d
    if side == "bob":
        cset = c_operators(*r.observables_b, d)
        partner = [unitary_powers(o, d) for o in r.observables_a]
        return [
            ((i, k), np.kron(partner[i - 1][k], cset.ops[(i, k)]))
            for i in (1, 2)
            for k in range(1, d)
        ]
    cset = cbar_operators(*r.observables_a, d)
    partner = [unitary_powers(o, d) for o in r.observables_b]
    return [
        ((i, k), np.kron(cset.ops[(i, k)], partner[i - 1][k]))
        for i in (1, 2)
        for k in range(1, d)
    ]


def sos_residual(r: Realization, side: str) -> float:
    """|beta_Q I - BellOp - (1/2) sum P^dag P| with every P^dag P formed densely."""
    da, db = r.dims
    n = da * db
    acc = quantum_bound(r.d) * np.eye(n) - bell_operator(BellFunctional.satwap(r.d), r)
    for _, term in sos_terms(r, side):
        p = np.eye(n) - term
        acc -= 0.5 * (dagger(p) @ p)
    return float(np.linalg.norm(acc))


def stabilizer_residuals(r: Realization, side: str) -> dict[tuple[int, int], float]:
    """|psi - X_{i,k} psi| with X_{i,k} applied as a dense matrix."""
    psi = r.state
    return {ik: float(np.linalg.norm(psi - term @ psi)) for ik, term in sos_terms(r, side)}
