"""The cost probe: what a command spends, read at numpy's own entry points.

Every meter wraps a numpy function, never a qsk binding, so a test states
what a command may spend and not which qsk function spends it; no tier-1
test counts a qsk binding's calls.  The four meters:

- decompositions: each ``np.linalg`` ``eigh``, ``eig``, ``eigvals``,
  ``svd`` and ``qr`` call, by routine and matrix size;
- products: each ``np.matmul`` call by matrix size, one per matrix of a
  stack.  The power stacks behind correlators, spectral projectors and
  Bell-operator groupings are built this way; an ``a @ b`` does not pass
  through numpy's module attribute and is not counted;
- exponentials: the elements of each ``np.exp`` input.  Every closed-form
  construction takes its roots of unity from ``linalg.roots_of_unity``;
- traced peak: tracemalloc's peak inside :meth:`CostProbe.traced`, read
  in complex (d, n, n) stacks.
"""

from __future__ import annotations

import contextlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

EIGENSOLVERS = ("eigh", "eig", "eigvals", "svd")
DECOMPOSITIONS = (*EIGENSOLVERS, "qr")
COMPLEX_BYTES = np.dtype(complex).itemsize


def _size(shape: tuple[int, ...]) -> int:
    """The larger side of a matrix or of each matrix in a stack (..., n, m)."""
    return max(shape[-2:], default=1)


class CostProbe:
    """numpy's decompositions, products and exponentials, and a traced peak.

    A call's size is the larger side of its matrices, so a stack of shape
    (k, n, m) with n >= m is k matrices of size n in one call.
    """

    def __init__(self):
        self.calls: list[tuple[str, tuple[int, ...]]] = []
        self.products = Counter()  # np.matmul products by size, one per matrix of a stack
        self.exponentials = 0  # elements passed to np.exp
        self.peak = 0  # bytes, set by traced()

    def install(self, monkeypatch: pytest.MonkeyPatch) -> CostProbe:
        for name in DECOMPOSITIONS:
            original = getattr(np.linalg, name)

            def recorded(a, *args, _name=name, _original=original, **kwargs):
                self.calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        matmul, exp = np.matmul, np.exp

        def recorded_matmul(a, b, *args, **kwargs):
            batch = np.broadcast_shapes(np.shape(a)[:-2], np.shape(b)[:-2])
            self.products[_size(np.shape(a))] += math.prod(batch)
            return matmul(a, b, *args, **kwargs)

        def recorded_exp(x, *args, **kwargs):
            self.exponentials += np.size(x)
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded_matmul)
        monkeypatch.setattr(np, "exp", recorded_exp)
        return self

    def clear(self) -> None:
        """Forget what was spent so far, e.g. by a test's own setup."""
        self.calls.clear()
        self.products.clear()
        self.exponentials = self.peak = 0

    def sizes(self, *routines: str) -> Counter:
        """Calls of ``routines`` (default: every eigensolver) by size: {n: calls}."""
        routines = routines or EIGENSOLVERS
        return Counter(_size(shape) for name, shape in self.calls if name in routines)

    def count(self, *routines: str, at_least: int = 0) -> int:
        """How many calls of ``routines`` (default: all five) on matrices of size >= ``at_least``."""
        return sum(
            calls for n, calls in self.sizes(*(routines or DECOMPOSITIONS)).items() if n >= at_least
        )

    @contextlib.contextmanager
    def traced(self):
        """Record in :attr:`peak` the most memory traced at once inside the block, in bytes."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        try:
            yield self
        finally:
            self.peak = tracemalloc.get_traced_memory()[1] - base
            if started:
                tracemalloc.stop()

    def stacks(self, d: int, n: int) -> float:
        """:attr:`peak` in complex (d, n, n) stacks; (1, n, n) is one n x n matrix."""
        return self.peak / (d * n * n * COMPLEX_BYTES)


@pytest.fixture
def cost(monkeypatch) -> CostProbe:
    """A :class:`CostProbe` recording from the start of the test."""
    return CostProbe().install(monkeypatch)
