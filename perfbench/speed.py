"""Machine speed, sampled with a fixed pure-Python loop between operations.

The benchmark runs on shared machines whose speed drifts by a third or more
over tens of seconds, so a whole run can fall in a slow stretch.  A workload
of short operations therefore takes a speed sample, one timed run of the
loop below, about every half second of measured work, and its times are
rescaled to the reference speed: multiplied by ``REFERENCE_S`` over the
mean sample of the run.  A run that mixes fast and slow stretches moves the
mean of the samples and the mean of its passes by the same mixture, where
medians could fall in different stretches.  The loop calls nothing in
steklov, so a change to the package leaves the samples alone and moves the
rescaled times fully.

The loop is pure Python because the rescaled workloads spend their time in
the interpreter (per-point loops, quadrature callbacks).  Of the kernels
tried, it tracked their drift best; numpy and sparse-solve kernels tracked
it less well (perfbench/README.md, Steadiness).
"""

from __future__ import annotations

import statistics
import time

# About the loop's mean on the 2-core machine of perfbench/README.md, so
# that rescaled times read close to raw seconds there.
REFERENCE_S = 0.017
SAMPLE_EVERY_S = 0.5


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._work = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(100_000):
            acc += (i * i) % 7
            table[i & 255] = acc
        self.samples.append(time.perf_counter() - t0)
        self._work = 0.0

    def worked(self, seconds: float) -> None:
        """Count measured work; sample once ``SAMPLE_EVERY_S`` of it has
        passed since the last sample."""
        self._work += seconds
        if self._work >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """The factor that rescales this run's times to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def record(self) -> dict:
        return {"rescaled": True, "scale": self.scale(), "reference_s": REFERENCE_S,
                "samples_s": [round(t, 5) for t in self.samples]}
