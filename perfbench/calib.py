"""Fixed calibration kernel that the benchmark interleaves through every timed window.

The kernel imitates the shape of the program's hot loop (the direct-method
SSA step): a few Python float operations per iteration, writes into a small
numpy vector, ``sum``, two random draws, ``cumsum`` and ``searchsorted``.
Its work is fixed, so its duration measures how fast this process is running
right now.  Dividing a measured time by it removes most of the speed drift
that a shared two-vCPU machine shows between back-to-back processes.

This module imports only numpy and the standard library, never ``repro``:
the yardstick must not move when the program changes.  It is imported by
name in worker processes (pool and fabric workers receive the calibration
slice through the executor's public ``map``), so it lives in its own module.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Iterations of one calibration slice (~25 ms on a 2-vCPU Xeon VM).
SLICE_ITERATIONS = 1500

#: Reference duration of one slice, in seconds.  Every time-based end-to-end
#: metric is reported as if this machine ran one slice in exactly this long.
REFERENCE_SLICE_S = 0.025


def calibration_burst(slices: int):
    """Run ``slices`` back-to-back slices; return ``([elapsed_seconds, ...], pid)``.

    Each slice is timed inside the process that runs it, so a burst
    dispatched to a worker reports the worker's speed, not the round trip.
    """
    return [calibration_slice() for _ in range(int(slices))], os.getpid()


def calibration_slice(iterations: int = SLICE_ITERATIONS) -> float:
    """Run the fixed kernel once; return its elapsed seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(20170327)
    state = np.array([30.0, 5.0, 12.0, 0.0, 7.0, 3.0, 20.0, 1.0])
    propensities = np.empty(8)
    cumulative = np.empty(8)
    deltas = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0)
    t = 0.0
    for _ in range(int(iterations)):
        s0, s1, s2, s3, s4, s5, s6, s7 = state.tolist()
        propensities[0] = 0.5 * s0 / (1.0 + (s1 / 40.0) ** 2)
        propensities[1] = 0.0075 * s1 + 0.01
        propensities[2] = 0.3 * s2 / (1.0 + (s3 / 25.0) ** 2)
        propensities[3] = 0.0075 * s3 + 0.01
        propensities[4] = 0.4 * (1.0 + s4) / (2.0 + s5)
        propensities[5] = 0.0075 * s5 + 0.01
        propensities[6] = 0.2 * s6 / (1.0 + s7 * 0.1)
        propensities[7] = 0.0075 * s7 + 0.01
        total = float(propensities.sum())
        t += rng.exponential(1.0 / total)
        threshold = rng.random() * total
        np.cumsum(propensities, out=cumulative)
        chosen = min(int(np.searchsorted(cumulative, threshold, side="right")), 7)
        state[chosen] = max(0.0, state[chosen] + deltas[chosen])
    return time.perf_counter() - start
