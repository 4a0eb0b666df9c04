import numpy as np
import pytest

from _helpers import random_realization

import qsk.bell
import qsk.randomness
from qsk.bell import sample_statistics
from qsk.canonical import ideal_realization
from qsk.randomness import (
    certified_bits,
    ideal_guessing_probability,
    outcome_distribution,
)
from qsk.selftest import scramble

rng = np.random.default_rng(1618)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_outcome_distribution_uniform_at_canonical_point(d):
    r = ideal_realization(d)
    for party in ("A", "B"):
        for setting in (1, 2):
            dist = outcome_distribution(r, party, setting)
            assert np.abs(dist - 1 / d).max() < 1e-9


def test_guessing_probability_values():
    assert abs(ideal_guessing_probability(ideal_realization(4), "B", 1) - 0.25) < 1e-9
    assert abs(ideal_guessing_probability(ideal_realization(2), "B", 2) - 0.5) < 1e-9


def test_guessing_probability_refuses_off_the_maximal_point():
    with pytest.raises(ValueError):
        ideal_guessing_probability(random_realization(3, rng), "B", 1)


def test_guessing_probability_invariant_under_scrambling():
    d = 3
    r = ideal_realization(d)
    s = scramble(r, 2, 2, seed=8)
    assert abs(
        ideal_guessing_probability(s, "B", 1) - ideal_guessing_probability(r, "B", 1)
    ) < 1e-9


def test_certified_bits():
    assert certified_bits(2) == 1.0
    assert certified_bits(8) == 3.0
    assert certified_bits(1024) == 10.0
    with pytest.raises(ValueError):
        certified_bits(1)


def test_expansion_ratio_monotone_in_d():
    # one input bit per round buys certified_bits(d) = log2 d output bits
    ratios = [certified_bits(d) for d in range(2, 20)]
    assert ratios == [float(np.log2(d)) for d in range(2, 20)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_empirical_uniformity():
    d = 3
    r = ideal_realization(d)
    shots = 200_000
    freqs, counts = sample_statistics(r, shots, seed=12)
    for y in range(2):
        n = counts[:, y].sum()
        marginal = (freqs[:, y].sum(axis=1) * counts[:, y][:, None]).sum(axis=0) / n
        se = np.sqrt((1 / d) * (1 - 1 / d) / n)
        assert np.abs(marginal - 1 / d).max() <= 5 * se


def test_signaling_gate_rejects_nan_probabilities(monkeypatch):
    nan = np.full((2, 2, 3, 3), np.nan)
    monkeypatch.setattr(qsk.bell, "born_probabilities", lambda r: nan)
    with pytest.raises(ValueError, match="signal"):
        outcome_distribution(ideal_realization(3), "B", 1)


def test_gap_gate_rejects_nan_bell_value(monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(qsk.randomness, "violation_gap", lambda r: (nan, nan))
    with pytest.raises(ValueError, match="misses the maximal value"):
        ideal_guessing_probability(ideal_realization(3), "B", 1)
