"""Wall time scaled to a reference speed of the machine.

The benchmark runs on shared machines, where the speed of one core swings
by up to 1.8x within seconds and drifts over minutes as co-tenants come and
go; steal time stays near zero and thread CPU time follows wall time, so no
choice of clock removes it. Every timed op is therefore bracketed by a short
reference loop run just before and just after it, and the op's wall time is
reported scaled by REF_S over the mean of the two loops' times: the time the
op would take on a machine where the loop takes REF_S. The loop mixes
interpreted Python with small numpy products, as the program does, so a
change of machine speed moves both alike; a change of the program moves
only the op. The raw wall times are kept alongside for the record.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0025  # the reference loop's time on the machine the bounds were set on, when quiet

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(50, 50))
_V = _RNG.normal(size=50)


def reference_loop() -> float:
    x, s, d = _V, 0.0, {}
    for i in range(400):
        x = np.maximum(_A @ x * 0.1, 0.0) + 0.01
        s += float(x[i % 50])
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i
    return s + len(d)


class Clock:
    """Scaled timing; raw_s and refs record what was measured."""

    def __init__(self):
        self.raw_s = 0.0  # raw wall seconds of everything timed
        self.refs: list[float] = []  # seconds of each reference loop

    def ref(self) -> float:
        """Run the reference loop once; its wall seconds."""
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.refs.append(dt)
        return dt

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from raw to scaled time, given the loops around the op."""
        return 2.0 * REF_S / (before + after)

    def timed(self, fn, *args, **kwargs):
        """(fn's result, its wall time scaled to the reference speed)."""
        before = self.ref()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.raw_s += dt
        return out, dt * self.scale(before, self.ref())
