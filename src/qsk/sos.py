"""Sum-of-squares machinery for the SATWAP Bell operator.

Both decompositions verified here are *operator identities*: the residual
vanishes for arbitrary order-d unitary observables, not only at the
maximal violation.  What maximal violation adds is the per-term
stabilization of the state, checked separately.  The terms of both
decompositions are the Bell operator's own Kronecker terms, grouped by
one party (``satwap.bell_operator``); every residual is read off their
stacks (L, R), and no operator on the joint space is formed.  Each
residual is the sum of a Hermitian and an anti-Hermitian part, which are
orthogonal, so its norm is that of two sums of Kronecker products of
Hermitian factors; x -> Re x + Im x embeds those factors isometrically as
real matrices, so both norms are taken in real arithmetic.

Also houses the algebraic consequence suite used by the extraction:
the twisted commutation relation, the vanishing-trace conditions over
proper divisors, intermediate trace identities and root-of-unity sum
identities.  The trace and commutation checks read every power off an
``EigenDecomposition``; each check with several residuals returns them as
a dict keyed by name.
"""

from __future__ import annotations

import numpy as np

from .bell import Realization, membership
from .cyclotomic import proper_divisors
from .linalg import EigenDecomposition, dagger, kron_sum_norm, kron_sum_r_factor
from .linalg import roots_of_unity, worst
from .satwap import BellFunctional, bell_operator, quantum_bound

TOL_TRACE = 1e-8

_POWER_BLOCK = 2**18  # entries of the H_k stack check_commutation_relation holds at once


def sos_terms(r: Realization, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (L, R) with X_{i,k} = L[t] (x) R[t] at t = (i - 1)(d - 1) + k - 1.

    X_{i,k} is A_i^k (x) C_i^(k) for "bob" and C~_i^(k) (x) B_i^k for
    "alice": the k >= 1 slice of the Bell operator grouped by that party,
    so C_1^(k) = a_k B1^(d-k) + a_k* w^k B2^(d-k) and
    C_2^(k) = a_k* B1^(d-k) + a_k B2^(d-k), and C~_1^(k) = a_k* A1^(d-k) +
    a_k A2^(d-k) and C~_2^(k) = w^-k a_k A1^(d-k) + a_k* A2^(d-k).  SATWAP
    puts no coefficient at k = 0, so the X_{i,k} sum to the Bell operator.
    The residual and the stabilizers of one side accept this grouping, so
    a caller that needs both builds it once.
    """
    ls, rs = bell_operator(BellFunctional.satwap(r.d), r, side)
    return ls[:, 1:].reshape(-1, *ls.shape[2:]), rs[:, 1:].reshape(-1, *rs.shape[2:])


def _embedded_parts(m: np.ndarray, swap: bool = False) -> np.ndarray:
    """Real embeddings of the Hermitian parts of each matrix in a stack (T, n, n).

    With m = a + i b, the parts are m_re = (m + m^dag)/2 and
    m_im = (m - m^dag)/(2i); each is embedded as x -> Re x + Im x, that is
    (a + a^T + b - b^T)/2 = (s + t^T)/2 and (b + b^T - a + a^T)/2 =
    (s^T - t)/2 with s = a + b and t = a - b.  The result is the float64
    stack (2T, n, n) of the m_re then the m_im, in the other order if
    ``swap``; it is written straight from the real and imaginary views,
    with no complex intermediate.
    """
    s, t = m.real + m.imag, m.real - m.imag
    out = np.empty((2, *m.shape))
    re, im = (out[1], out[0]) if swap else (out[0], out[1])
    np.add(s, t.swapaxes(1, 2), out=re)
    np.subtract(s.swapaxes(1, 2), t, out=im)
    out *= 0.5
    return out.reshape(-1, *m.shape[1:])


def _embedded_gram(m: np.ndarray) -> np.ndarray:
    """The real embedding Re + Im of each m_t^dag m_t, as a float64 stack.

    With m = a + i b, m^dag m = a^T a + b^T b + i (a^T b - b^T a), so its
    embedding is a^T (a + b) + b^T (b - a): two real products per matrix.
    """
    a, b = np.ascontiguousarray(m.real), np.ascontiguousarray(m.imag)
    at, bt = a.swapaxes(1, 2), b.swapaxes(1, 2)
    return at @ (a + b) + bt @ (b - a)


def _sos_residual(r: Realization, terms: tuple[np.ndarray, np.ndarray]) -> float:
    """Residual of the decomposition as the norms of two real Kronecker sums.

    With X = L (x) R, ``P^dag P = I - X - X^dag + (L^dag L) (x) (R^dag R)``
    holds for any L, R (no unitarity is assumed), and the T terms X sum to
    the Bell operator, so the residual M = ``beta_Q I - BellOp - (1/2) sum
    P^dag P`` splits as M = H + K with

        H = (beta_Q - T/2) I (x) I - (1/2) sum_t (L_t^dag L_t) (x) (R_t^dag R_t),
        K = (1/2) sum_t (L_t^dag (x) R_t^dag - L_t (x) R_t).

    H is Hermitian and K anti-Hermitian for every L and R, so they are
    orthogonal in the Frobenius inner product and |M|^2 = |H|^2 + |K|^2.
    With the Hermitian parts L = L_re + i L_im and R = R_re + i R_im,
    |K| = |sum_t (L_re,t (x) R_im,t + L_im,t (x) R_re,t)|, so every factor
    of both sums is Hermitian.  x -> Re x + Im x maps Hermitian matrices
    isometrically, inner products included, onto real ones (a symmetric
    and an antisymmetric matrix are orthogonal), and ``kron_sum_norm``
    depends on its stacks only through their Gram matrices; so each norm
    is ``kron_sum_norm`` of float64 stacks, 2T terms for K and T + 1 for
    H.  No operator on the joint space is formed.  The norms combine as
    ``sqrt(k*k + h*h)``, which keeps a NaN a NaN (``hypot(inf, nan)`` is
    inf).
    """
    ls, rs = terms
    da, db = r.dims
    r1 = kron_sum_r_factor(_embedded_parts(ls))  # K's left stack is freed before its right one
    k = float(np.linalg.norm(r1 @ _embedded_parts(rs, swap=True).reshape(r1.shape[1], -1)))
    scale = quantum_bound(r.d) - 0.5 * len(ls)
    left = np.concatenate([-0.5 * _embedded_gram(ls), scale * np.eye(da)[None]])
    right = np.concatenate([_embedded_gram(rs), np.eye(db)[None]])
    h = kron_sum_norm(left, right)
    return float(np.sqrt(k * k + h * h))


def sos_residual_bob(r: Realization, terms=None) -> float:
    """|beta_Q I - BellOp - (1/2) sum P^dag P| with P_{i,k} = I - A_i^k (x) C_i^(k).

    ``terms`` is ``sos_terms(r, "bob")`` when the caller has built it.
    """
    return _sos_residual(r, sos_terms(r, "bob") if terms is None else terms)


def sos_residual_alice(r: Realization, terms=None) -> float:
    """Residual of the mirrored decomposition with P~_{i,k} = I - C~_i^(k) (x) B_i^k.

    ``terms`` is ``sos_terms(r, "alice")`` when the caller has built it.
    """
    return _sos_residual(r, sos_terms(r, "alice") if terms is None else terms)


def stabilizer_residuals(r: Realization, side: str, terms=None) -> dict[tuple[int, int], float]:
    """Per-term state residuals |(I - X_{i,k}) |psi>| of a decomposition.

    These vanish exactly when the realization maximally violates; they are
    the conditions that drive the extraction.  With psi as a (da, db)
    matrix, X_{i,k} |psi> is ``L psi R^T``, one batched product over terms.
    ``terms`` is ``sos_terms(r, side)`` when the caller has built it.
    """
    ls, rs = sos_terms(r, side) if terms is None else terms
    psi = r.state.reshape(r.dims)
    norms = np.linalg.norm(psi - ls @ psi @ rs.swapaxes(1, 2), axis=(1, 2))
    keys = [(i, k) for i in (1, 2) for k in range(1, r.d)]
    return dict(zip(keys, norms.tolist()))


def check_commutation_relation(dec1: EigenDecomposition, dec2: EigenDecomposition) -> float:
    """max_k |B1^k B2^-k - w^-k B2^k B1^-k| over k in [1, d).

    With B1 = V diag(lambda) V^dag, B2 = W diag(mu) W^dag and G = V^dag W,
    the relation at k reads ``diag(lambda^k) H_k^dag - w^-k H_k
    diag(lambda^-k)`` in the eigenbasis of B1, with ``H_k = G diag(mu^k)
    G^dag``; each power is a root of unity read off the labels
    (``linalg._certified`` proved B^d = I), and the k run in blocks of
    about ``_POWER_BLOCK`` entries of H.  The relation is a consequence of
    maximal violation; a commuting pair fails it.
    """
    d, l1, l2 = dec1.d, dec1.labels, dec2.labels
    g = dagger(dec1.vectors) @ dec2.vectors
    gh = dagger(g)
    residual = 0.0
    step = max(1, _POWER_BLOCK // len(l1) ** 2)
    for start in range(1, d, step):
        k = np.arange(start, min(start + step, d))[:, None]
        lam = roots_of_unity(d, k * l1)[:, :, None]
        h = (g * roots_of_unity(d, k * l2)[:, None, :]) @ gh
        twist = roots_of_unity(d, -k)[:, :, None] * lam.conj().swapaxes(1, 2)
        residual = worst(residual, *np.linalg.norm(lam * dagger(h) - h * twist, axis=(1, 2)))
    return residual


def check_trace_conditions(dec: EigenDecomposition) -> dict[int, float]:
    """{n: |Tr(B^n)|} over every proper divisor n of d, Tr(B^n) = sum_j m_j w^(jn).

    The m_j are the eigenvalue multiplicities.  Equal multiplicities imply
    all these traces vanish; a divisor whose trace does not vanish
    certifies unequal ones.
    """
    d = dec.d
    divisors = proper_divisors(d)
    traces = roots_of_unity(d, np.outer(divisors, np.arange(d))) @ np.asarray(dec.multiplicities)
    return dict(zip(divisors, np.abs(traces).tolist()))


def check_intermediate_identities(
    dec1: EigenDecomposition, dec2: EigenDecomposition
) -> dict[str, float]:
    """Max residuals of the trace identities that follow from the twisted
    commutation relation, by name:

        ladder_first    Tr(B1^x) = w^(sx) Tr(B1^((2s+1)x) B2^(-2sx))
        ladder_second   Tr(B2^y) = w^(sy) Tr(B1^(2sy) B2^((-2s+1)y))
        half_phase      Tr(B1^x) = w^(-x/2) Tr(B2^x), x <= floor(d/2)
        doubled_power   Tr(B1^-x B2^(2x)) = w^x Tr(B1^x)

    Every trace is an entry of the table ``tr[a, b] = Tr(B1^a B2^b)`` over
    a, b in Z_d, which in the eigenbases V of B1 and W of B2 is ``F C F^T``
    with ``F[a, j] = w^(aj mod d)`` and the class overlap
    ``C = M1 |V^dag W|^2 M2^T`` (:func:`bell.membership`).  Every exponent
    and every phase w**(sx) is reduced mod d, exact because
    ``linalg._certified`` proved B^d = I.  The ladders are d-periodic
    in s as well as in x and y, so they are checked over every s, x, y in
    Z_d.  The doubled-power identity carries the phase w**x (it follows
    from multiplying the commutation relation at k = x by B2^x and
    tracing; on the canonical pair both sides vanish for x in [1, d)).
    """
    d = dec1.d
    overlap = np.abs(dagger(dec1.vectors) @ dec2.vectors) ** 2
    classes = membership(dec1) @ overlap @ membership(dec2).T
    roots = roots_of_unity(d, np.arange(d))
    s, x = np.ogrid[:d, :d]
    phase = roots[s * x % d]  # w^(sx), which is also F
    tr = phase @ classes @ phase.T
    r1 = np.abs(tr[x, 0] - phase * tr[(2 * s + 1) * x % d, -2 * s * x % d]).max()
    r2 = np.abs(tr[0, x] - phase * tr[2 * s * x % d, (1 - 2 * s) * x % d]).max()
    h = np.arange(1, d // 2 + 1)
    r3 = np.abs(tr[h, 0] - np.exp(-1j * np.pi * h / d) * tr[0, h]).max()
    k = np.arange(1, d)
    r4 = np.abs(tr[-k % d, 2 * k % d] - roots[k] * tr[k, 0]).max()
    return {
        "ladder_first": float(r1),
        "ladder_second": float(r2),
        "half_phase": float(r3),
        "doubled_power": float(r4),
    }


def check_root_identities(d: int) -> dict[str, float]:
    """Max residuals of the two root-of-unity sum identities over all valid indices:

        ratio_sum      sum_{j != i} (1 - w^(k(j-i))) / (1 - w^(i-j)) = k
        weighted_sum   sum_k k w^(kn) = d / (w^n - 1)

    The ratio sum depends on i and j only through m = j - i, so one row of
    m in [1, d) covers every i: the table [k, m] holds (1 - w^(km)) /
    (1 - w^(-m)), and its row sums are checked against k.  The weighted sum
    is one (d - 1, d) table over n and k.  Every exponent is reduced mod d
    into one table of the d-th roots of unity.
    """
    ks = np.arange(d)
    roots = roots_of_unity(d, ks)
    k, m = ks[1:, None], ks[1:]
    total = ((1 - roots[k * m % d]) / (1 - roots[-m % d])).sum(axis=-1)
    r1 = float(np.abs(total - ks[1:]).max())
    weighted = roots[k * ks % d] @ ks
    r2 = float(np.abs(weighted - d / (roots[1:] - 1)).max())
    return {"ratio_sum": r1, "weighted_sum": r2}

