"""Reference constructions: the canonical observable pair, the maximally
entangled state, the CGLMP measurements, and the basis changes relating
them.

The canonical pair is ``Z`` (the qudit clock, diag(1, w, ..., w^(d-1)))
and its partner ``T``: unitary, symmetric, order d, simple spectrum.
Together with the maximally entangled state and the derived pair of
Alice-side observables they attain the maximal SATWAP value 2(d-1).

Every object is one numpy expression over its index grid.  Half and
quarter powers w**(k/2), w**(k/4) are written as the 2d-th and 4d-th
roots of unity of the integer exponent k, reduced mod 2d or 4d before
exponentiation (the principal branch of the fractional power).
"""

from __future__ import annotations

import numpy as np

from .bell import Realization
from .linalg import assert_unitary, dagger, roots_of_unity
from .satwap import coefficient_a


def z_observable(d: int) -> np.ndarray:
    """diag(1, w, ..., w^(d-1)): the d-dimensional clock observable."""
    return np.diag(roots_of_unity(d, np.arange(d)))


def t_observable(d: int) -> np.ndarray:
    """The canonical partner of the clock observable.

    Entries: ``w**(i+1/2)`` on the diagonal minus
    ``(2/d) (-1)**(delta_i0 + delta_j0) w**((i+j+1)/2)`` everywhere,
    with principal-branch half powers.  Unitary, symmetric, order d,
    with every d-th root of unity a simple eigenvalue.
    """
    i, j = np.ogrid[:d, :d]
    sign = np.where(i == 0, -1, 1) * np.where(j == 0, -1, 1)
    t = -(2.0 / d) * sign * roots_of_unity(2 * d, i + j + 1)
    t[np.diag_indices(d)] += roots_of_unity(2 * d, 2 * np.arange(d) + 1)
    return t


def t_eigenbasis(d: int) -> np.ndarray:
    """Closed-form eigenbasis of the T observable, column r for eigenvalue w**r.

    ``|r> = (2/d) sum_q (-1)**delta_q0 w**(-q/2) / (1 - w**(r-q-1/2)) |q>``.
    The explicit formula fixes each column's global phase, which
    downstream phase identities rely on.
    """
    q, r = np.ogrid[:d, :d]
    numerator = np.where(q == 0, -1, 1) * roots_of_unity(2 * d, -q)
    return (2.0 / d) * numerator / (1 - roots_of_unity(2 * d, 2 * (r - q) - 1))


def maximally_entangled(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |ii> on C^d (x) C^d."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v / np.sqrt(d)


def cglmp_eigenbasis(d: int, party: str, setting: int) -> np.ndarray:
    """Fourier-basis eigenvectors of a CGLMP measurement, column r for outcome r.

    Alice: (1/sqrt(d)) sum_q w**((r - alpha_x) q) |q>, alpha_x = (x - 1/2)/2.
    Bob:   (1/sqrt(d)) sum_q w**(-(r - beta_y) q) |q>, beta_y = y/2.
    Settings are numbered 1 and 2.
    """
    q, r = np.ogrid[:d, :d]
    if party.upper() == "A":
        v = roots_of_unity(4 * d, (4 * r - 2 * setting + 1) * q)
    elif party.upper() == "B":
        v = roots_of_unity(2 * d, (setting - 2 * r) * q)
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    return v / np.sqrt(d)


def w1_w2(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis changes mapping (Z, T) to the CGLMP observables.

    W1 (Z, T) W1^dag = (A1', A2') and W2 (Z, T) W2^dag = (B1', B2'), with
    W1 = -M1^dag F Y^dag and W2 = -S M2^dag F Y^dag (F the Fourier matrix,
    Y, M1, M2 phases, S the index reflection).  Both are built entrywise,

        W1[i,j] = (-1)**(1-delta_j0) w**(-i/4 + ij + j/2) / sqrt(d)
        W2[d-1-i,j] = (-1)**(1-delta_j0) w**(-i/2 + ij + j/2) / sqrt(d)

    and the global sign -1 is the one that makes the eigenvector phase
    identities hold.
    """
    i, j = np.ogrid[:d, :d]
    sign = np.where(j == 0, 1.0, -1.0) / np.sqrt(d)
    w1 = sign * roots_of_unity(4 * d, -i + 4 * i * j + 2 * j)
    i = d - 1 - i  # row d-1-i of W2 carries the exponents of row i
    w2 = sign * roots_of_unity(2 * d, -i + 2 * i * j + j)
    return w1, w2


def w_alice(d: int) -> np.ndarray:
    """The qudit-side rotation W_A = W2^T W1 carrying (Z, T) to the ideal
    Alice observables: W_A Z W_A^dag = A1 and W_A T W_A^dag = A2."""
    w1, w2 = w1_w2(d)
    return w2.T @ w1


def ideal_realization(d: int) -> Realization:
    """The canonical maximal violator: |phi_d+>, Bob = (Z, T), derived Alice pair.

    The Alice pair is A1 = a1* Z - 2 (a1*)^3 T and A2 = a1 Z + a1* T.  The
    signs of the T coefficients are forced: they are the unique solution
    of the linear system Z = a1 X + a1* Y, T = a1* w X + a1 Y satisfied by
    the w_alice conjugations, and the opposite choice is not order d.

    Bob's eigenbases are supplied in closed form (the identity for Z,
    :func:`t_eigenbasis` for T); Alice's pair is decomposed numerically.
    """
    z, t = z_observable(d), t_observable(d)
    a1 = coefficient_a(d, 1)
    a1c = a1.conjugate()
    alice1 = a1c * z - 2 * a1c**3 * t
    alice2 = a1 * z + a1c * t
    assert_unitary(alice1, what="first Alice observable")
    assert_unitary(alice2, what="second Alice observable")
    return Realization(
        d=d,
        dims=(d, d),
        state=maximally_entangled(d),
        observables_a=(alice1, alice2),
        observables_b=(z, t),
        eigenbases=(None, None, np.eye(d, dtype=complex), t_eigenbasis(d)),
    )


def cglmp_realization(d: int) -> Realization:
    """|phi_d+> measured with the CGLMP observables; also a maximal violator.

    The observables (A1', A2', B1', B2') are each V diag(w**r) V^dag over
    their Fourier eigenbases V, which the realization carries so that its
    Born rule reads them directly.
    """
    settings = (("A", 1), ("A", 2), ("B", 1), ("B", 2))
    bases = tuple(cglmp_eigenbasis(d, party, x) for party, x in settings)
    roots = roots_of_unity(d, np.arange(d))
    a1, a2, b1, b2 = ((v * roots) @ dagger(v) for v in bases)
    return Realization(
        d=d,
        dims=(d, d),
        state=maximally_entangled(d),
        observables_a=(a1, a2),
        observables_b=(b1, b2),
        eigenbases=bases,
    )
