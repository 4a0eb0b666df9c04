"""The cost probe: numpy's decompositions counted by routine and matrix size.

Decomposition costs are pinned through numpy's own ``np.linalg`` entry
points, never through a qsk binding, so a test states what a command may
spend (eigensolves of a given size) and not which qsk function spends it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

EIGENSOLVERS = ("eigh", "eig", "eigvals", "svd")
DECOMPOSITIONS = (*EIGENSOLVERS, "qr")


class DecompositionProbe:
    """Each call of numpy's eigensolvers, SVD and QR, as (routine, input shape).

    The size of a call is the larger side of its matrices, so a stack of
    shape (k, n, m) with n >= m is k matrices of size n in one call.
    """

    def __init__(self):
        self.calls: list[tuple[str, tuple[int, ...]]] = []

    def install(self, monkeypatch: pytest.MonkeyPatch) -> DecompositionProbe:
        for name in DECOMPOSITIONS:
            original = getattr(np.linalg, name)

            def recorded(a, *args, _name=name, _original=original, **kwargs):
                self.calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        return self

    def clear(self) -> None:
        """Forget the calls made so far, e.g. by a test's own setup."""
        self.calls.clear()

    def sizes(self, *routines: str) -> Counter:
        """Calls of ``routines`` (default: every eigensolver) by size: {n: calls}."""
        routines = routines or EIGENSOLVERS
        return Counter(max(shape[-2:]) for name, shape in self.calls if name in routines)

    def count(self, *routines: str, at_least: int = 0) -> int:
        """How many calls of ``routines`` (default: all five) on matrices of size >= ``at_least``."""
        return sum(
            calls for n, calls in self.sizes(*(routines or DECOMPOSITIONS)).items() if n >= at_least
        )


@pytest.fixture
def cost(monkeypatch) -> DecompositionProbe:
    """A :class:`DecompositionProbe` recording from the start of the test."""
    return DecompositionProbe().install(monkeypatch)
