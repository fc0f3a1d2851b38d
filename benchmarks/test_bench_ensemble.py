"""Experiment E7 — ensemble-engine throughput (runs/sec, serial vs parallel).

The paper's headline quantitative claim is throughput: the virtual laboratory
analyzes a complex circuit "in about 8.4 seconds" where a wet-lab measurement
takes hours, and every statistically honest study in this reproduction
multiplies that by tens of independent stochastic runs.  This benchmark
measures how fast the ensemble engine executes a replicate batch of the
AND-gate circuit, serially and with ``workers=4`` worker processes, and records
runs/sec in the same pytest-benchmark JSON format as the other benchmarks
(``--benchmark-json``; the throughput numbers land in ``extra_info``).

On a single-core host the process pool cannot beat the serial executor, so
the speedup assertion is gated on the visible CPU count; the bit-identical
results contract is asserted unconditionally.
"""

import asyncio
import os
import time
import tracemalloc

import numpy as np
import pytest

from conftest import HOLD_TIME, check_wallclock
from repro.analysis import run_replicate_study
from repro.engine import (
    ProcessPoolEnsembleExecutor,
    gather_studies,
    iter_ensemble,
    replicate_jobs,
    run_ensemble,
)
from repro.gates import and_gate_circuit, not_gate_circuit
from repro.vlab import LogicExperiment

N_REPLICATES = 6

#: Hold time per input combination of each replicate, long enough that the
#: six serial replicates take ~0.4 s on a 2-vCPU VM (~60 ms each).  The
#: workers=4 scaling gate below compares wall times, and at hold 100 (~8 ms per
#: replicate) the serial ensemble finishes before a fresh pool has started.
ENSEMBLE_HOLD_TIME = 800.0
BASE_SEED = 20170654

#: Replicate count for the peak-memory comparison: large enough that a
#: materialized ensemble clearly scales with n_runs while the streamed path
#: stays flat at the executor's in-flight window.
N_MEMORY_REPLICATES = 200


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def template_job():
    circuit = and_gate_circuit()
    experiment = LogicExperiment.for_circuit(circuit, simulator="ssa")
    return experiment.job(hold_time=ENSEMBLE_HOLD_TIME, repeats=1)


def _run_batch(template, workers):
    return run_ensemble(
        replicate_jobs(template, N_REPLICATES, seed=BASE_SEED),
        workers=workers,
    )


def test_ensemble_throughput_serial(benchmark, template_job):
    result = benchmark.pedantic(
        _run_batch,
        args=(template_job, 1),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["executor"] = result.stats.executor
    benchmark.extra_info["workers"] = 1
    benchmark.extra_info["n_replicates"] = N_REPLICATES
    benchmark.extra_info["runs_per_second"] = result.stats.runs_per_second
    benchmark.extra_info["cache_misses"] = result.stats.cache_misses
    assert len(result) == N_REPLICATES
    # The whole batch compiles the model at most once (zero times when an
    # earlier benchmark already warmed the shared cache).
    assert result.stats.cache_misses <= 1


def test_ensemble_throughput_jobs4(benchmark, template_job):
    result = benchmark.pedantic(
        _run_batch,
        args=(template_job, 4),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["executor"] = result.stats.executor
    benchmark.extra_info["workers"] = 4
    benchmark.extra_info["n_replicates"] = N_REPLICATES
    benchmark.extra_info["runs_per_second"] = result.stats.runs_per_second
    benchmark.extra_info["cpus"] = _cpus()
    assert len(result) == N_REPLICATES
    assert result.stats.executor == "process-pool"


def test_parallel_matches_serial_and_scales(template_job):
    """Bit-identical results; measurably faster with workers=4 given >1 CPU."""
    started = time.perf_counter()
    serial = _run_batch(template_job, 1)
    serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    parallel = _run_batch(template_job, 4)
    parallel_wall = time.perf_counter() - started

    for (_, a), (_, b) in zip(serial, parallel):
        assert np.array_equal(a.data, b.data)

    print(
        f"\nensemble of {N_REPLICATES} AND-gate runs: serial {serial_wall:.2f} s "
        f"({serial.stats.runs_per_second:.2f} runs/s), workers=4 {parallel_wall:.2f} s "
        f"({parallel.stats.runs_per_second:.2f} runs/s) on {_cpus()} CPU(s)",
    )
    if _cpus() > 1:
        # With real cores available the pool must deliver a measurable win.
        check_wallclock(
            parallel_wall < serial_wall * 0.9,
            f"workers=4 ({parallel_wall:.2f} s) did not beat serial "
            f"({serial_wall:.2f} s) by 10% on {_cpus()} CPU(s)",
        )


@pytest.fixture(scope="module")
def memory_template_job():
    """A deterministic ODE job on the NOT gate, densely sampled.

    Deterministic + cheap, so the memory comparison is not drowned in SSA
    wall time; dense sampling keeps each trajectory big enough that holding
    all of them clearly dominates the materialized ensemble's footprint.
    """
    circuit = not_gate_circuit()
    experiment = LogicExperiment.for_circuit(circuit, simulator="ode", sample_interval=0.25)
    return experiment.job(hold_time=30.0, repeats=1)


def test_streaming_bounds_peak_trajectory_memory(benchmark, memory_template_job):
    """Streamed replicate studies hold O(window) trajectories, not O(n_runs).

    Runs the same 200-replicate study twice — materialized via run_ensemble
    and streamed via iter_ensemble with analyze-and-discard — and compares
    tracemalloc peaks.  The streamed peak is bounded by the executor's
    in-flight window (one trajectory for the serial executor), so it must sit
    far below the materialized peak, which grows with the replicate count.
    """

    def _measure():
        jobs = replicate_jobs(memory_template_job, N_MEMORY_REPLICATES, seed=BASE_SEED)
        tracemalloc.start()
        result = run_ensemble(jobs, workers=1)
        _, materialized_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        checksum_materialized = sum(float(t.data.sum()) for t in result.trajectories)
        del result

        jobs = replicate_jobs(memory_template_job, N_MEMORY_REPLICATES, seed=BASE_SEED)
        tracemalloc.start()
        checksum_streamed = 0.0
        for _, _, trajectory in iter_ensemble(jobs, workers=1):
            checksum_streamed += float(trajectory.data.sum())
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return materialized_peak, streamed_peak, checksum_materialized, checksum_streamed

    materialized_peak, streamed_peak, check_mat, check_str = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    benchmark.extra_info["n_replicates"] = N_MEMORY_REPLICATES
    benchmark.extra_info["materialized_peak_bytes"] = materialized_peak
    benchmark.extra_info["streamed_peak_bytes"] = streamed_peak
    benchmark.extra_info["peak_ratio"] = streamed_peak / materialized_peak

    print(
        f"\npeak trajectory memory over {N_MEMORY_REPLICATES} replicates: "
        f"materialized {materialized_peak / 1e6:.2f} MB, "
        f"streamed {streamed_peak / 1e6:.2f} MB "
        f"({materialized_peak / streamed_peak:.1f}x reduction)"
    )
    # Identical trajectories were delivered either way...
    assert check_str == check_mat
    # ...but the streamed pass never held more than a bounded window of them.
    assert streamed_peak < materialized_peak * 0.25


#: Concurrent-studies comparison: how many replicate studies, of how many
#: replicates each, share the pool.  Small per-study batches under-utilize a
#: pool when run one study at a time — which is exactly what gather_studies
#: fixes by multiplexing.
N_STUDIES = 3
N_STUDY_REPLICATES = 2
GATHER_WORKERS = 4


def test_gather_studies_vs_sequential_on_one_pool(benchmark):
    """Wall-clock of N independent replicate studies on ONE warm pool:
    sequential (each study's small batch leaves workers idle) vs
    gather_studies (studies interleave and fill the pool).  Both walls and
    their ratio land in ``extra_info``; correctness (bit-identical per-study
    results and warm caches for every study after the first) is asserted
    unconditionally, the speedup only when real cores are available.
    """
    circuit = and_gate_circuit()

    def _study(seed):
        def _run(executor):
            return run_replicate_study(
                circuit,
                n_replicates=N_STUDY_REPLICATES,
                hold_time=HOLD_TIME / 2.0,
                rng=BASE_SEED + seed,
                executor=executor,
            )

        return _run

    def _measure():
        with ProcessPoolEnsembleExecutor(GATHER_WORKERS) as executor:
            # Warm every worker's compiled-model cache out of the comparison.
            run_ensemble(
                replicate_jobs(
                    _template_for(circuit), 2 * GATHER_WORKERS, seed=BASE_SEED
                ),
                executor=executor,
            )

            started = time.perf_counter()
            sequential = [_study(seed)(executor) for seed in range(N_STUDIES)]
            sequential_wall = time.perf_counter() - started

            started = time.perf_counter()
            gathered = asyncio.run(
                gather_studies([_study(seed) for seed in range(N_STUDIES)], executor=executor)
            )
            gather_wall = time.perf_counter() - started
        return sequential, gathered, sequential_wall, gather_wall

    sequential, gathered, sequential_wall, gather_wall = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    benchmark.extra_info["n_studies"] = N_STUDIES
    benchmark.extra_info["replicates_per_study"] = N_STUDY_REPLICATES
    benchmark.extra_info["workers"] = GATHER_WORKERS
    benchmark.extra_info["sequential_wall_seconds"] = sequential_wall
    benchmark.extra_info["gather_wall_seconds"] = gather_wall
    benchmark.extra_info["gather_speedup"] = sequential_wall / gather_wall
    benchmark.extra_info["cpus"] = _cpus()

    print(
        f"\n{N_STUDIES} studies x {N_STUDY_REPLICATES} replicates on one "
        f"{GATHER_WORKERS}-worker pool: sequential {sequential_wall:.2f} s, "
        f"gathered {gather_wall:.2f} s "
        f"({sequential_wall / gather_wall:.2f}x) on {_cpus()} CPU(s)",
    )
    # Same seeds, same pool: per-study results are bit-identical either way,
    # and the pre-warmed pool means every study ran on warm worker caches.
    for sequential_study, gathered_study in zip(sequential, gathered):
        assert gathered_study.fitness_values == sequential_study.fitness_values
        assert gathered_study.stats.cache_misses == 0
    if _cpus() >= 2 * GATHER_WORKERS:
        # Plenty of real cores: multiplexed studies must beat one-at-a-time.
        check_wallclock(
            gather_wall < sequential_wall,
            f"gathered studies ({gather_wall:.2f} s) did not beat sequential "
            f"({sequential_wall:.2f} s) on {_cpus()} CPU(s)",
        )


def _template_for(circuit):
    experiment = LogicExperiment.for_circuit(circuit, simulator="ssa")
    return experiment.job(hold_time=HOLD_TIME / 2.0, repeats=1)
