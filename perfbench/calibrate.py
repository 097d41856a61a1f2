"""Host speed, measured with a fixed kernel that belongs to the benchmark.

On a shared host, other tenants' load can slow every instruction stream by
up to half, in regimes that last from a fraction of a second to tens of
seconds.  Timing this kernel between ops gives the host's speed at that
moment; ops are reported at reference speed,
``time * REFERENCE_S / kernel``, with the kernel time averaged over the
measurements just before and just after the op.
The kernel uses only the standard library and numpy (interpreted arithmetic
on ``Fraction``, dict updates, small batched ``einsum`` calls, like the
package's own hot paths), so no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.5e-3   # the kernel's typical time on the 2-core x86 VM that defined the benchmark
REPEATS = 3            # the minimum of a few runs drops a single interruption

_rng = np.random.default_rng(0)
_A = _rng.random((8, 5, 3))
_LAM = _rng.random((8, 3))
_B = _rng.random((8, 3, 5))


def _kernel():
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = x * Fraction(i, i + 1) + Fraction(1, 7)
    counts: dict[int, int] = {}
    for i in range(150):
        counts[i % 17] = counts.get(i % 17, 0) + i
    for _ in range(20):
        P = np.einsum("bik,bk,bkj->bij", _A, _LAM, _B)
        P /= P.sum()
    return x, counts


def kernel_seconds() -> float:
    """The kernel's time now: the minimum of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Kernel times taken between ops, and each op's factor to reference speed."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.kernel = [kernel_seconds()]
        self.marks = [0]          # ops done when each kernel time was taken
        self._last = time.perf_counter()

    def after_op(self, ops_done: int, force: bool = False):
        """Measure the kernel if ``every_s`` has passed since the last time."""
        if force or time.perf_counter() - self._last >= self.every_s:
            self.kernel.append(kernel_seconds())
            self.marks.append(ops_done)
            self._last = time.perf_counter()

    def factors(self) -> list[float]:
        """Per op, in order: REFERENCE_S over the mean kernel time around it."""
        out = []
        for k in range(len(self.marks) - 1):
            factor = REFERENCE_S / ((self.kernel[k] + self.kernel[k + 1]) / 2)
            out += [factor] * (self.marks[k + 1] - self.marks[k])
        return out

    def summary(self) -> dict:
        return {"median": statistics.median(self.kernel) * 1e3,
                "min": min(self.kernel) * 1e3, "max": max(self.kernel) * 1e3,
                "samples": len(self.kernel)}
