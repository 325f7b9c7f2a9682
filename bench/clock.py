"""Stage timing scaled to a reference machine speed.

On a machine shared with other tenants, wall time swings by tens of percent
within seconds: one and the same identify fit took 0.86 s to 1.46 s over
100 s on a 2-core host. Each timed stage is therefore bracketed by a fixed
calibration kernel that uses no rarhmm code, and the stage's wall time is
scaled by REFERENCE_S over the kernel's mean time just before and just after
it. A change to rarhmm moves the scaled time as much as it moves wall time;
a busier machine slows the stage and the kernel alike, and cancels.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

# kernel time on an idle core of the machine the benchmark was sized on
# (2 cores, Python 3.11, numpy 2.4); scaled times read in its seconds
REFERENCE_S = 0.04
_STEPS, _BATCH, _K = 1500, 4, 5


class ScaledClock:
    """Accumulates raw and scaled seconds per stage name."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._ev = rng.standard_normal((_BATCH, _STEPS, _K))
        trans = rng.random((_BATCH, _STEPS, _K, _K))
        self._trans = trans / trans.sum(axis=2, keepdims=True)
        self._logits = rng.standard_normal((1200, _K, _K))
        self.raw: dict[str, list] = defaultdict(list)
        self.scaled: dict[str, list] = defaultdict(list)
        self.kernel_s = self.calibrate()   # the latest kernel time

    def calibrate(self) -> float:
        """Seconds for the kernel: a scaled forward recursion, the shape of
        rarhmm's hot loops, then batched log-softmax reductions."""
        t0 = time.perf_counter()
        alpha = np.full((_BATCH, _K), 1.0 / _K)
        for t in range(_STEPS):
            pred = np.einsum("bij,bj->bi", self._trans[:, t], alpha)
            la = np.log(pred) + self._ev[:, t]
            a = np.exp(la - la.max(axis=1, keepdims=True))
            alpha = a / a.sum(axis=1, keepdims=True)
        x = self._logits
        for _ in range(40):
            z = x - x.max(axis=1, keepdims=True)
            z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
            (np.exp(z) * x).sum(axis=0)
        return time.perf_counter() - t0

    def scale(self, seconds: float, kernel_s: float) -> float:
        return seconds * REFERENCE_S / kernel_s

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        raw = time.perf_counter() - t0
        after = self.calibrate()
        self.raw[name].append(raw)
        self.scaled[name].append(self.scale(raw, 0.5 * (self.kernel_s + after)))
        self.kernel_s = after
