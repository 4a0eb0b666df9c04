"""Loop-and-Kronecker reference forms of the fast kernels (test oracles).

Each function here is the direct transcription of a definition: one
``einsum`` per correlator entry, one trace per Born probability, one dense
``kron`` per Bell-operator or sum-of-squares term, the Bell operator's
grouped stacks as one product of the zero-padded (2d, 2d) coefficient
table (every reader of a functional reads it through the dense (2, 2, d, d)
table of :func:`dense_coefficients`), ``Fraction`` arithmetic
term by term for polynomials, an ``einsum`` per Fourier transform, a
sum of weighted powers per spectral projector, one ``norm`` per block of
a canonicalized state, and a ``matrix_power`` per operator power
(negative exponents through the adjoint, no exponent reduced mod d; the
sum-of-squares combinations read B^-k as B^(d-k), the power the Bell
operator pairs with A^k).  They are slow and exist only to
cross-check the fast kernels in :mod:`qsk`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from _helpers import DeterministicStrategy, omega, projector

import qsk.linalg
from qsk.bell import Realization, _fourier_matrix
from qsk.linalg import (
    EigenDecomposition,
    assert_unitary,
    dagger,
    eig_unitary,
    kron_sum_norm,
    unitary_powers,
    worst,
)
from qsk.satwap import BellFunctional, coefficient_a, quantum_bound


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
        pa = [projector(proj_a[x], a) for a in range(d)]
        for y in range(2):
            qb = [projector(proj_b[y], b) for b in range(d)]
            for a in range(d):
                left = psi.conj().T @ pa[a] @ psi
                for b in range(d):
                    p[x, y, a, b] = np.trace(left @ qb[b].T).real
    return p


def dense_coefficients(c: np.ndarray) -> np.ndarray:
    """The (2, 2, d, d) table over correlator indices (x, y, k, l) that holds
    c[x, y, k] at l = -k mod d and 0 elsewhere."""
    d = c.shape[-1]
    dense = np.zeros((2, 2, d, d), dtype=complex)
    for k in range(d):
        dense[:, :, k, -k % d] = c[:, :, k]
    return dense


def bell_operator(f: BellFunctional, r: Realization) -> np.ndarray:
    """Sum of c_{xykl} A_x^k (x) B_y^l, one dense Kronecker product per term."""
    d = f.d
    da, db = r.dims
    pow_a = [unitary_powers(o, d) for o in r.observables_a]
    pow_b = [unitary_powers(o, d) for o in r.observables_b]
    coefficients = dense_coefficients(f.coefficients)
    op = np.zeros((da * db, da * db), dtype=complex)
    for x in range(2):
        for y in range(2):
            for k in range(d):
                for l in range(d):
                    ckl = coefficients[x, y, k, l]
                    if ckl != 0:
                        op += ckl * np.kron(pow_a[x][k], pow_b[y][l])
    return op


def bell_operator_stacks(f: BellFunctional, r: Realization, side: str) -> tuple[np.ndarray, ...]:
    """The Bell operator's stacks (L, R) grouped by ``side``, as one dense
    (2d, 2d) @ (2d, n^2) product of the zero-padded (x, k) x (y, l) table
    with the other party's whole power stack."""
    d = f.d
    dense = dense_coefficients(f.coefficients)
    if side == "bob":
        own, other, table = r.observables_a, r.observables_b, dense.transpose(0, 2, 1, 3)
    else:
        own, other, table = r.observables_b, r.observables_a, dense.transpose(1, 3, 0, 2)
    powers = np.stack([unitary_powers(o, d) for o in own])
    n = other[0].shape[0]
    other_powers = np.stack([unitary_powers(o, d) for o in other]).reshape(2 * d, n * n)
    summed = (table.reshape(2 * d, 2 * d) @ other_powers).reshape(2, d, n, n)
    return (powers, summed) if side == "bob" else (summed, powers)


def kron_sum(ls: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """sum_t ls[t] (x) rs[t] over every leading index t, one dense Kronecker product per term."""
    ls = ls.reshape(-1, *ls.shape[-2:])
    rs = rs.reshape(-1, *rs.shape[-2:])
    return sum(np.kron(lt, rt) for lt, rt in zip(ls, rs))


def c_operators(b1: np.ndarray, b2: np.ndarray, d: int) -> dict[tuple[int, int], np.ndarray]:
    """C_1^(k) = a_k B1^(d-k) + a_k* w^k B2^(d-k) and C_2^(k) = a_k* B1^(d-k) + a_k B2^(d-k).

    Built k by k; B^(d-k) is the B^-k of an order-d observable, the power
    the Bell operator pairs with A_i^k.
    """
    ops = {}
    for k in range(1, d):
        ak = coefficient_a(d, k)
        inv1 = np.linalg.matrix_power(b1, d - k)
        inv2 = np.linalg.matrix_power(b2, d - k)
        ops[(1, k)] = ak * inv1 + ak.conjugate() * omega(d, k) * inv2
        ops[(2, k)] = ak.conjugate() * inv1 + ak * inv2
    return ops


def cbar_operators(a1: np.ndarray, a2: np.ndarray, d: int) -> dict[tuple[int, int], np.ndarray]:
    """C~_1^(k) = a_k* A1^(d-k) + a_k A2^(d-k) and C~_2^(k) = w^-k a_k A1^(d-k) + a_k* A2^(d-k).

    Built k by k; A^(d-k) is the A^-k of an order-d observable, the power
    the Bell operator pairs with B_i^k.
    """
    ops = {}
    for k in range(1, d):
        ak = coefficient_a(d, k)
        inv1 = np.linalg.matrix_power(a1, d - k)
        inv2 = np.linalg.matrix_power(a2, d - k)
        ops[(1, k)] = ak.conjugate() * inv1 + ak * inv2
        ops[(2, k)] = omega(d, -k) * ak * inv1 + ak.conjugate() * inv2
    return ops


def sos_terms(r: Realization, side: str) -> list[tuple[tuple[int, int], np.ndarray]]:
    """((i, k), X_{i,k}) with X_{i,k} formed as a dense Kronecker product."""
    d = r.d
    if side == "bob":
        ops = c_operators(*r.observables_b, d)
        return [
            ((i, k), np.kron(unitary_power(r.observables_a[i - 1], k), ops[(i, k)]))
            for i in (1, 2)
            for k in range(1, d)
        ]
    ops = cbar_operators(*r.observables_a, d)
    return [
        ((i, k), np.kron(ops[(i, k)], unitary_power(r.observables_b[i - 1], k)))
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


def sos_operator(r: Realization, terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """beta_Q I - sum_t X_t - (1/2) sum_t P_t^dag P_t, formed densely from stacks (L, R).

    X_t = L_t (x) R_t and P_t = I - X_t, so the Bell operator is the one
    the stacks sum to, whatever coefficient table they were grouped from.
    """
    ls, rs = terms
    n = r.dims[0] * r.dims[1]
    acc = quantum_bound(r.d) * np.eye(n, dtype=complex)
    for lt, rt in zip(ls, rs):
        x = np.kron(lt, rt)
        p = np.eye(n) - x
        acc -= x + 0.5 * (dagger(p) @ p)
    return acc


def sos_residual_one_complex_sum(r: Realization, terms: tuple[np.ndarray, np.ndarray]) -> float:
    """The residual from (L, R) = ``sos.sos_terms`` as one complex Kronecker sum.

    With X = L (x) R, ``P^dag P = I - X - X^dag + (L^dag L) (x) (R^dag R)``,
    so the residual is the sum of the 3T + 1 terms (1/2) X^dag, -(1/2) X,
    -(1/2) (L^dag L) (x) (R^dag R) and (beta_Q - T/2) I (x) I, whose norm
    is one ``kron_sum_norm`` call on complex stacks: one complex thin QR of
    shape (da^2, 3T + 1).
    """
    ls, rs = terms
    da, db = r.dims
    scale = quantum_bound(r.d) - 0.5 * len(ls)
    left = np.concatenate(
        [0.5 * dagger(ls), -0.5 * ls, -0.5 * (dagger(ls) @ ls), scale * np.eye(da)[None]]
    )
    right = np.concatenate([dagger(rs), rs, dagger(rs) @ rs, np.eye(db)[None]])
    return kron_sum_norm(left, right)


def stabilizer_residuals(r: Realization, side: str) -> dict[tuple[int, int], float]:
    """|psi - X_{i,k} psi| with X_{i,k} applied as a dense matrix."""
    psi = r.state
    return {ik: float(np.linalg.norm(psi - term @ psi)) for ik, term in sos_terms(r, side)}


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Product of two ascending coefficient tuples, one Fraction product per term."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def poly_divmod(
    f: tuple[Fraction, ...], g: tuple[Fraction, ...]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Schoolbook division f = q g + r over Fraction coefficients."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    dg, df = len(g) - 1, len(f) - 1
    if df < dg:
        return (), tuple(f)
    rem = list(f)
    quot = [Fraction(0)] * (df - dg + 1)
    for i in range(df - dg, -1, -1):
        c = rem[i + dg] / g[-1]
        quot[i] = c
        if c != 0:
            for j, gj in enumerate(g):
                rem[i + j] -= c * gj
    return _trim(quot), _trim(rem[:dg])


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n from the Moebius product, independently.

    ``Phi_n = prod_{m | n} (1 - x^m)^mu(n/m)`` for n >= 2, expanded as a
    power series truncated at degree phi(n): multiplying by ``1 - x^m`` is
    ``c[i] -= c[i-m]`` and dividing by it is ``c[i] += c[i-m]``.
    """
    if n == 1:
        return (-1, 1)
    degree = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    c = [1] + [0] * degree
    for m in range(1, n + 1):
        if n % m:
            continue
        mu = _moebius(n // m)
        if mu == 1:
            for i in range(degree, m - 1, -1):
                c[i] -= c[i - m]
        elif mu == -1:
            for i in range(m, degree + 1):
                c[i] += c[i - m]
    return tuple(c)


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def correlators_from_probabilities(p: np.ndarray) -> np.ndarray:
    """<A_x^k B_y^l> = sum_ab w^(ka) w^(lb) p(a,b|x,y) as one einsum."""
    w = _fourier_matrix(p.shape[-1])
    return np.einsum("ka,xyab,lb->xykl", w, p, w)


def probabilities_from_correlators(c: np.ndarray) -> np.ndarray:
    """The inverse transform, 1/d^2 sum_kl w^(-ka) w^(-lb) <A_x^k B_y^l>."""
    d = c.shape[-1]
    w = _fourier_matrix(d).conj()
    return np.einsum("ka,xykl,lb->xyab", w.T, c, w) / d**2


def probability_form(coefficients: np.ndarray) -> np.ndarray:
    """t[x,y,a,b] = sum_kl c[x,y,k,l] w^(ka) w^(lb) as one einsum over the
    dense table of the (2, 2, d) coefficients."""
    w = _fourier_matrix(coefficients.shape[-1])
    return np.einsum("xykl,ka,lb->xyab", dense_coefficients(coefficients), w, w)


def best_deterministic_strategy(functional) -> tuple[float, DeterministicStrategy]:
    """A deterministic strategy of largest value and that value, by a loop
    over all d^4 output assignments (a1, a2, b1, b2), each valued term by
    term in the probability picture."""
    t = probability_form(functional.coefficients).real

    def value(s: DeterministicStrategy) -> float:
        a, b = s.outputs_a, s.outputs_b
        return float(sum(t[x, y, a[x], b[y]] for x in range(2) for y in range(2)))

    outputs = product(range(functional.d), repeat=4)
    best = max((DeterministicStrategy((a1, a2), (b1, b2)) for a1, a2, b1, b2 in outputs), key=value)
    return value(best), best


def spectral_projectors(a: np.ndarray, d: int) -> list[np.ndarray]:
    """P_j = (1/d) sum_k w^(-jk) a^k, one weighted sum of powers per j."""
    powers = unitary_powers(a, d)
    return [sum(omega(d, -j * k) * powers[k] for k in range(d)) / d for j in range(d)]


def eig_unitary_svd(a: np.ndarray, d: int) -> EigenDecomposition:
    """Eigenbasis from one SVD per eigenspace: the top m_j left singular
    vectors of each Fourier-inverted projector P_j, m_j counted from the
    snapped raw eigenvalues."""
    raw = np.linalg.eigvals(a)
    mult = np.bincount(np.round(np.angle(raw) * d / (2 * np.pi)).astype(int) % d, minlength=d)
    projs = spectral_projectors(a, d)
    blocks = [np.linalg.svd(projs[j])[0][:, : mult[j]] for j in range(d)]
    return EigenDecomposition(
        d=d,
        vectors=np.hstack(blocks),
        multiplicities=tuple(mult.tolist()),
    )


def eig_unitary_looped_polish(a: np.ndarray, d: int) -> EigenDecomposition:
    """The label-operator eigenbasis of ``eig_unitary``, polished as one
    ``qr(P_j V_j)`` per eigenspace in a loop over j, from the same
    projector stack; no gate."""
    raw = np.linalg.eigvals(a)
    mult = np.bincount(np.round(np.angle(raw) * d / (2 * np.pi)).astype(int) % d, minlength=d)
    projs = qsk.linalg.spectral_projectors(a, d)
    vectors = np.linalg.eigh(np.tensordot(np.arange(d), projs, axes=1))[1]
    offsets = np.concatenate(([0], np.cumsum(mult)))
    for j in np.flatnonzero(mult):
        cols = slice(offsets[j], offsets[j + 1])
        vectors[:, cols] = np.linalg.qr(projs[j] @ vectors[:, cols])[0]
    return EigenDecomposition(
        d=d,
        vectors=vectors,
        multiplicities=tuple(mult.tolist()),
    )


TOL_SNAP = 1e-6


def eig_unitary_snapped(a: np.ndarray, d: int) -> EigenDecomposition:
    """The two-eigensolve ``eig_unitary``: multiplicities counted from
    ``eigvals`` of ``a`` behind a ``TOL_SNAP`` root-of-unity gate, columns
    from the label operator's ``eigh``, the same stacked QR polish and
    certificate."""
    assert_unitary(a, tol=max(qsk.linalg.TOL_UNITARY, TOL_SNAP), what="observable")
    raw = np.linalg.eigvals(a)
    # float until the gate has passed: int() of a NaN would raise the wrong error
    j = np.round(np.angle(raw) * d / (2 * np.pi)) % d
    dist = np.abs(raw - qsk.linalg.roots_of_unity(d, j))
    off = ~(dist <= TOL_SNAP)
    if off.any():
        c = int(np.argmax(off))
        raise qsk.linalg.NotOrderDError(
            f"eigenvalue {raw[c]:.6f} is {dist[c]:.3e} from the nearest d-th root of unity"
        )
    mult = np.bincount(j.astype(int), minlength=d)

    projs = qsk.linalg.spectral_projectors(a, d)
    vectors = np.linalg.eigh(np.tensordot(np.arange(d), projs, axes=1))[1]
    offsets = np.concatenate(([0], np.cumsum(mult)))
    # one stacked QR per multiplicity class; set(), not np.unique, whose
    # first call in a process costs milliseconds
    for m in set(mult.tolist()) - {0}:
        ks = np.flatnonzero(mult == m)
        cols = offsets[ks][:, None] + np.arange(m)
        # every eigenspace in one class: the stack itself, not a gathered copy
        stack = projs if len(ks) == d else projs[ks]
        blocks = vectors[:, cols].transpose(1, 0, 2)
        vectors[:, cols] = np.linalg.qr(stack @ blocks)[0].transpose(1, 0, 2)
    return qsk.linalg._certified(a, vectors, tuple(mult.tolist()), d)


def root_identities(d: int) -> tuple[float, float]:
    """Residuals of both root-of-unity sum identities, index by index."""
    r1 = 0.0
    for k in range(1, d):
        for i in range(d):
            total = sum(
                (1 - omega(d, k * (j - i))) / (1 - omega(d, i - j)) for j in range(d) if j != i
            )
            r1 = max(r1, abs(total - k))
    r2 = 0.0
    for n in range(1, d):
        total = sum(k * omega(d, k * n) for k in range(d))
        r2 = max(r2, abs(total - d / (omega(d, n) - 1)))
    return r1, r2


def canonicalize_state(
    r: Realization, u_a: np.ndarray, u_b: np.ndarray
) -> tuple[float, np.ndarray, dict[str, float]]:
    """The state canonicalization block by block: one ``norm`` per block pair.

    Rotates the state of ``r`` itself and returns what
    :func:`qsk.selftest.canonicalize_state` returns for the rotated
    realization: the fidelity, the aux state and the two named residuals.
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
    return fidelity, aux, {"state_off_diagonal": off, "state_diagonal_mismatch": mismatch}


def unitary_power(a: np.ndarray, k: int) -> np.ndarray:
    """Integer power ``a**k``; negative ``k`` is a power of the adjoint."""
    if k >= 0:
        return np.linalg.matrix_power(a, k)
    assert_unitary(a, what="base of negative power")
    return np.linalg.matrix_power(dagger(a), -k)


def commutation_relation(b1: np.ndarray, b2: np.ndarray, d: int) -> float:
    """max_k |B1^k B2^-k - w^-k B2^k B1^-k| from adjoint powers, k by k."""
    worst = 0.0
    for k in range(1, d):
        lhs = unitary_power(b1, k) @ unitary_power(b2, -k)
        rhs = omega(d, -k) * (unitary_power(b2, k) @ unitary_power(b1, -k))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def intermediate_identities(b1: np.ndarray, b2: np.ndarray, d: int) -> tuple[float, ...]:
    """(ladder_first, ladder_second, half_phase, doubled_power), index by index.

    The ladders run over every s in [0, d), with the exponents and phases
    as written, unreduced.
    """
    r1 = r2 = r3 = r4 = 0.0
    for s in range(d):
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
    return float(r1), float(r2), float(r3), float(r4)


def z_observable(d: int) -> np.ndarray:
    """diag(w**0, ..., w**(d-1)), one omega() call per entry."""
    return np.diag([omega(d, i) for i in range(d)]).astype(complex)


def t_observable(d: int) -> np.ndarray:
    """T[i,j] = delta_ij w**(i+1/2) - (2/d) (-1)**(delta_i0+delta_j0) w**((i+j+1)/2), entry by entry."""
    t = np.zeros((d, d), dtype=complex)
    for i in range(d):
        t[i, i] += omega(d, i + 0.5)
    for i in range(d):
        for j in range(d):
            sign = (-1) ** ((i == 0) + (j == 0))
            t[i, j] -= (2.0 / d) * sign * omega(d, (i + j + 1) / 2)
    return t


def t_eigenvector(d: int, r: int) -> np.ndarray:
    """(2/d) sum_q (-1)**delta_q0 w**(-q/2) / (1 - w**(r-q-1/2)) |q>, entry by entry."""
    return (2.0 / d) * np.array(
        [(-1) ** (q == 0) * omega(d, -q / 2) / (1 - omega(d, r - q - 0.5)) for q in range(d)]
    )


def cglmp_eigenvector(d: int, party: str, setting: int, r: int) -> np.ndarray:
    """w**((r - alpha_x) q) for Alice, w**(-(r - beta_y) q) for Bob, entry by entry."""
    shift = (setting - 0.5) / 2 if party == "A" else setting / 2
    sign = 1 if party == "A" else -1
    return np.array([omega(d, sign * (r - shift) * q) for q in range(d)]) / np.sqrt(d)


def cglmp_observables(d: int) -> tuple[np.ndarray, ...]:
    """sum_r w**r |v_r><v_r|, one outer product per outcome r."""

    def build(party: str, setting: int) -> np.ndarray:
        m = np.zeros((d, d), dtype=complex)
        for r in range(d):
            v = cglmp_eigenvector(d, party, setting, r)
            m += omega(d, r) * np.outer(v, v.conj())
        return m

    return build("A", 1), build("A", 2), build("B", 1), build("B", 2)


def structural_unitaries(d: int) -> tuple[np.ndarray, ...]:
    """(F, Y, S, M1, M2) entry by entry, with unreduced fractional exponents."""
    f = np.array([[omega(d, i * j) for j in range(d)] for i in range(d)]) / np.sqrt(d)
    y = np.diag([(-1) ** (1 - (j == 0)) * omega(d, (d - j) / 2) for j in range(d)])
    s = np.zeros((d, d), dtype=complex)
    for j in range(d):
        s[j, d - 1 - j] = 1.0
    m1 = np.diag([omega(d, j / 4) for j in range(d)])
    m2 = np.diag([omega(d, j / 2) for j in range(d)])
    return f, y, s, m1, m2


def w1_w2(d: int) -> tuple[np.ndarray, np.ndarray]:
    """W1[i,j] = (-1)**(1-delta_j0) w**(-i/4 + ij + j/2) / sqrt(d) and
    W2[d-1-i,j] = (-1)**(1-delta_j0) w**(-i/2 + ij + j/2) / sqrt(d), entry by entry."""
    w1 = np.zeros((d, d), dtype=complex)
    w2 = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            sign = (-1) ** (1 - (j == 0))
            w1[i, j] = sign * omega(d, -i / 4 + i * j + j / 2) / np.sqrt(d)
            w2[d - 1 - i, j] = sign * omega(d, -i / 2 + i * j + j / 2) / np.sqrt(d)
    return w1, w2


def w_alice(d: int) -> np.ndarray:
    """W2^T W1 from the entrywise W1, W2."""
    w1, w2 = w1_w2(d)
    return w2.T @ w1


def extract_blocks(b2: np.ndarray, d: int, aux_dim: int) -> np.ndarray:
    """The (d, d) grid of aux_dim x aux_dim blocks of an operator on C^d (x) aux."""
    n = d * aux_dim
    if b2.shape != (n, n):
        raise ValueError(f"operator has shape {b2.shape}, expected ({n}, {n})")
    return b2.reshape(d, aux_dim, d, aux_dim).transpose(0, 2, 1, 3)


def fij_structure(b2: np.ndarray, d: int, aux_dim: int) -> tuple[float, ...]:
    """(diagonal, transpose_pairing, block_unitarity, first_row, off_diagonal), block by block."""
    blocks = extract_blocks(b2, d, aux_dim)
    eye = np.eye(aux_dim)
    r_diag = max(
        float(np.linalg.norm(blocks[i, i] - ((d - 2) / d) * omega(d, i + 0.5) * eye))
        for i in range(d)
    )
    r_pair = r_unit = r_first = r_off = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            f = blocks[i, j]
            r_pair = max(
                r_pair, float(np.linalg.norm(f - omega(d, i + j + 1) * dagger(blocks[j, i])))
            )
            r_unit = max(r_unit, float(np.linalg.norm(f @ dagger(f) - (4 / d**2) * eye)))
            if i == 0:
                r_first = max(
                    r_first, float(np.linalg.norm(f - (2 / d) * omega(d, (j + 1) / 2) * eye))
                )
            elif j != 0:
                r_off = max(
                    r_off, float(np.linalg.norm(f + (2 / d) * omega(d, (i + j + 1) / 2) * eye))
                )
    return r_diag, r_pair, r_unit, r_first, r_off
