"""Runtime scaling of the analysis algorithm (Section IV timing claim).

The paper reports that "the proposed algorithm takes about 8.4 seconds to
analyze the logic of a complex genetic circuit with significantly large-sized
data", and contrasts it with the hours a single laboratory measurement takes.
This module measures the same quantity for this implementation: wall-clock
time of :class:`~repro.core.analyzer.LogicAnalyzer` as a function of the
number of logged samples and the number of inputs, on synthetic data logs
that mimic the structure of real experiments (so no simulation time is mixed
into the measurement).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.analyzer import LogicAnalyzer
from ..errors import AnalysisError
from ..logic.truthtable import TruthTable
from ..stochastic.rng import RandomState, fan_out_seeds, make_rng

__all__ = [
    "RuntimeMeasurement",
    "synthetic_experiment_arrays",
    "measure_analysis_runtime",
]


@dataclass
class RuntimeMeasurement:
    """One (problem size, analysis wall time) data point."""

    n_samples: int
    n_inputs: int
    seconds: float
    samples_per_second: float

    def summary(self) -> str:
        return (
            f"{self.n_inputs}-input, {self.n_samples:>9,d} samples: "
            f"{self.seconds * 1000:8.1f} ms ({self.samples_per_second:,.0f} samples/s)"
        )


def synthetic_experiment_arrays(
    n_samples: int,
    n_inputs: int,
    truth_table: Optional[TruthTable] = None,
    threshold: float = 15.0,
    high_level: float = 40.0,
    noise_std: float = 4.0,
    glitch_fraction: float = 0.02,
    rng: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Generate a synthetic (inputs, output, names) experiment of a given size.

    The generated data walks through the input combinations in blocks (like a
    real protocol), produces the output dictated by ``truth_table`` (a random
    table when omitted) with Gaussian amplitude noise, and corrupts a small
    fraction of samples near combination boundaries to emulate propagation
    transients.  The point is not biological realism — it is a workload whose
    size can be scaled freely to measure analyzer throughput.
    """
    if n_samples < 2**n_inputs:
        raise AnalysisError("n_samples must cover at least one sample per combination")
    generator = make_rng(rng)
    input_names = [f"in{i + 1}" for i in range(n_inputs)]
    if truth_table is None:
        outputs = generator.integers(0, 2, size=2**n_inputs)
        if outputs.max() == 0:
            outputs[-1] = 1
        truth_table = TruthTable(input_names, outputs.tolist())

    n_combinations = 2**n_inputs
    block = n_samples // n_combinations
    indices = np.repeat(np.arange(n_combinations), block)
    if indices.shape[0] < n_samples:
        indices = np.concatenate(
            [indices, np.full(n_samples - indices.shape[0], n_combinations - 1)],
        )
    bits = ((indices[:, None] >> np.arange(n_inputs - 1, -1, -1)) & 1).astype(float)
    input_matrix = bits * high_level

    ideal = np.array([truth_table.outputs[i] for i in indices], dtype=float)
    output = ideal * high_level + generator.normal(0.0, noise_std, size=n_samples)
    output = np.clip(output, 0.0, None)

    # Emulate propagation transients: right after each block boundary the
    # output still carries the previous block's value.
    glitch_len = max(1, int(block * glitch_fraction))
    for boundary in range(block, n_samples, block):
        previous = output[boundary - 1]
        end = min(boundary + glitch_len, n_samples)
        output[boundary:end] = previous
    return input_matrix, output, input_names


def _measure_one_size(payload) -> RuntimeMeasurement:
    """Measure a single size (module-level so executors can dispatch it)."""
    n_samples, n_inputs, threshold, fov_ud, repeats, seed = payload
    return measure_analysis_runtime(
        [n_samples],
        n_inputs=n_inputs,
        threshold=threshold,
        fov_ud=fov_ud,
        repeats=repeats,
        rng=make_rng(seed),
    )[0]


def measure_analysis_runtime(
    sample_sizes: Sequence[int],
    n_inputs: int = 3,
    threshold: float = 15.0,
    fov_ud: float = 0.25,
    repeats: int = 3,
    rng: RandomState = None,
    workers: int = 1,
    progress=None,
    executor=None,
) -> List[RuntimeMeasurement]:
    """Time the analyzer over a range of trace sizes.

    Each size is measured ``repeats`` times on freshly generated data and the
    *minimum* wall time is reported (the usual way to suppress scheduler
    noise in micro-benchmarks).  With ``workers=N`` the sizes are distributed
    over the ensemble engine's process-pool executor (one independent seed per
    size); wall-clock timings taken under contention are noisier, so keep
    ``workers=1`` when absolute numbers matter.  An explicit ``executor``
    (e.g. a :class:`~repro.engine.DistributedEnsembleExecutor` behind the
    CLI's ``--dispatch``) overrides ``workers`` and stays open for the
    caller.  ``progress`` is called after each measured size with
    ``(done, total, size_index)``.
    """
    if repeats < 1:
        raise AnalysisError("repeats must be at least 1")
    if executor is not None or workers > 1:
        from ..engine.executors import get_executor

        seeds = fan_out_seeds(rng, len(sample_sizes))
        payloads = [
            (int(size), n_inputs, threshold, fov_ud, repeats, seed)
            for size, seed in zip(sample_sizes, seeds)
        ]
        if executor is not None:
            return executor.map(_measure_one_size, payloads, progress=progress)
        with get_executor(workers) as pool:
            return pool.map(_measure_one_size, payloads, progress=progress)
    generator = make_rng(rng)
    analyzer = LogicAnalyzer(threshold=threshold, fov_ud=fov_ud)
    measurements: List[RuntimeMeasurement] = []
    for n_samples in sample_sizes:
        best = float("inf")
        for _ in range(repeats):
            inputs, output, names = synthetic_experiment_arrays(
                int(n_samples),
                n_inputs,
                threshold=threshold,
                rng=generator,
            )
            started = time.perf_counter()
            analyzer.analyze_arrays(inputs, output, names)
            best = min(best, time.perf_counter() - started)
        measurements.append(
            RuntimeMeasurement(
                n_samples=int(n_samples),
                n_inputs=n_inputs,
                seconds=best,
                samples_per_second=(int(n_samples) / best) if best > 0 else float("inf"),
            ),
        )
        if progress is not None:
            progress(len(measurements), len(sample_sizes), len(measurements) - 1)
    return measurements
