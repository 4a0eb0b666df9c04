"""Randomness certification at the maximal violation point.

At that point the self-testing argument pins the outcome distribution of
either party to uniform 1/d, so log2(d) bits per round are certified
while one random bit per round chooses the setting.  No bound is claimed
off the maximal point: the adversarial optimization that would be needed
there is out of scope, and the API refuses non-maximal inputs.
"""

from __future__ import annotations

import numpy as np

from .bell import Realization
from .bell import correlators_from_realization  # noqa: F401  kept bound here for perfbench's span wrappers
from .selftest import tol_violation, violation_gap


def outcome_distribution(r: Realization, party: str, setting: int) -> np.ndarray:
    """Marginal outcome distribution of one party for one setting (1 or 2).

    Computed from the Born probabilities; no-signaling makes it independent
    of the other party's setting, which is asserted.
    """
    probs = r.born
    if party.upper() == "A":
        marg = probs.sum(axis=3)[setting - 1]  # (other setting, a)
    elif party.upper() == "B":
        marg = probs.sum(axis=2)[:, setting - 1]
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    if not np.abs(marg[0] - marg[1]).max() <= 1e-9:
        raise ValueError("marginals signal between the parties")
    return marg[0]


def ideal_guessing_probability(r: Realization, party: str, setting: int) -> float:
    """Best single-outcome guess at the maximal violation point.

    Refuses any realization that does not maximally violate: the uniform
    1/d conclusion only holds where the self-test applies.
    """
    _, gap = violation_gap(r)
    if not gap <= tol_violation(r.d):
        raise ValueError(
            f"realization misses the maximal value by {gap:.3e}; no guessing "
            "bound is claimed off the maximal point"
        )
    return float(outcome_distribution(r, party, setting).max())


def certified_bits(d: int) -> float:
    """log2(d) perfect bits per round at the maximal point."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return float(np.log2(d))

