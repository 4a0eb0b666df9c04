"""The cost probe of ``tests/conftest.py`` counts what it says it counts.

Each meter must count one known call, and numpy's own functions must be
back in place once the probe's patches are undone: the suite's cost bounds
are only as good as the probe, as ``test_surface.py`` tests its own checker.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import DECOMPOSITIONS, CostProbe


def _numpy_entry_points() -> tuple:
    return (np.matmul, np.exp, *(getattr(np.linalg, name) for name in DECOMPOSITIONS))


def test_each_meter_counts_a_known_call(cost):
    a = np.random.default_rng(0).standard_normal((5, 5))
    np.linalg.eigh(a + a.T)
    np.matmul(np.ones((3, 4, 4)), np.eye(4))
    np.exp(np.zeros(7))
    np.ones((2, 2)) @ np.ones((2, 2))  # the operator bypasses np.matmul
    with cost.traced():
        block = np.ones((256, 256), dtype=complex)  # 1 MiB
        del block
    assert cost.sizes() == Counter({5: 1}) and cost.count("eigh") == 1
    assert cost.products == Counter({4: 3})
    assert cost.exponentials == 7
    assert 2**20 <= cost.peak <= 2**20 + 2**12
    assert cost.stacks(1, 256) == cost.peak / 2**20
    cost.clear()
    assert not cost.sizes() and not cost.products
    assert cost.exponentials == cost.peak == 0


def test_the_probe_restores_numpy_and_leaves_tracing_as_it_was():
    originals = _numpy_entry_points()
    tracing = tracemalloc.is_tracing()
    with pytest.MonkeyPatch.context() as mp:
        probe = CostProbe().install(mp)
        assert all(a is not b for a, b in zip(_numpy_entry_points(), originals))
        with probe.traced():
            assert tracemalloc.is_tracing()
        assert tracemalloc.is_tracing() == tracing
    assert all(a is b for a, b in zip(_numpy_entry_points(), originals))
