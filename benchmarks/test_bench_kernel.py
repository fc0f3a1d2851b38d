"""Experiment E8 — whole-model propensity kernel codegen throughput.

Every stochastic study in this reproduction bottoms out in the direct-method
SSA inner loop (Gillespie 1977 — the paper's reference [7]): one propensity
evaluation per reaction per event.  This benchmark measures what the
generated whole-model kernels (``repro.stochastic.codegen``) buy over the
interpreted per-reaction fallback (``REPRO_KERNEL=interp``) on

* the paper's Figure-1 AND gate (small: 5 reactions), and
* a Cello-scale circuit — eight prefixed copies of the paper's Figure-4
  headline circuit 0x0B merged into one 80-reaction, 64-species model —

in **events per second**, asserting the ≥3x codegen speedup on the
Cello-scale model, and reports the kernel build time of each circuit of the
paper's Section III table.  All numbers land in ``extra_info`` of the
pytest-benchmark JSON so CI can track the perf trajectory across PRs.

The two backends are compared on the same host within one test, so the
speedup assertions are robust to absolute machine speed.
"""

import os
import time

import pytest

from bench_common import check_wallclock
from repro.engine import StudySpec
from repro.gates import and_gate_circuit, cello_circuit, resolve_circuit
from repro.gates.cello import CELLO_CIRCUIT_NAMES
from repro.sbml import Model
from repro.stochastic import (
    BACKEND_CODEGEN,
    BACKEND_INTERP,
    KERNEL_ENV_VAR,
    CompiledModel,
)
from repro.stochastic.ssa import DirectMethodSimulator

BASE_SEED = 20170654

#: Simulated horizon per measured run (time units).  Short enough for CI's
#: --benchmark-disable smoke pass, long enough for tens of thousands of
#: events on the Cello-scale model.
T_END_SMALL = 100.0
T_END_CELLO = 15.0

#: Hold time of the short-segment case: four segments of ~250 events.
SHORT_HOLD = 30.0

#: The paper's Section III table: five textbook gates and ten Cello circuits.
SUITE_CIRCUITS = ("not", "and", "or", "nand", "nor", *CELLO_CIRCUIT_NAMES)

#: The ≥3x acceptance bar for codegen vs interpreted events/sec on the
#: Cello-scale model (measured ~4x on the development host).
MIN_CELLO_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def and_model():
    return and_gate_circuit().model


@pytest.fixture(scope="module")
def cello_scale_model():
    """Eight prefixed copies of Cello circuit 0x0B merged into one model.

    The stock circuits of the paper top out at ~12 reactions; merging copies
    builds an honest large-circuit workload (80 reactions, 64 species) from
    the same Cello parts without inventing kinetics.  Inputs are driven high
    so every copy's gates are active.
    """
    base = cello_circuit("0x0B").model
    merged = Model("cello_scale")
    for i in range(8):
        merged.merge(base, prefix=f"c{i}_")
    for sid in merged.boundary_species():
        merged.set_initial_amount(sid, 30.0)
    return merged


def _events_per_second(model, backend, t_end, repeats=3, schedule=None):
    """Best-of-N events/sec of a seeded SSA run under the given backend."""
    previous = os.environ.get(KERNEL_ENV_VAR)
    os.environ[KERNEL_ENV_VAR] = backend
    try:
        simulator = DirectMethodSimulator(model)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            simulator.run(t_end, schedule=schedule, rng=BASE_SEED)
            best = min(best, time.perf_counter() - start)
    finally:
        if previous is None:
            os.environ.pop(KERNEL_ENV_VAR, None)
        else:
            os.environ[KERNEL_ENV_VAR] = previous
    return simulator.last_event_count / best, simulator.last_event_count


def test_kernel_events_per_sec_and_gate(benchmark, and_model):
    """Small-model SSA throughput: codegen vs interpreted, same seed."""
    codegen_eps, events = _events_per_second(and_model, BACKEND_CODEGEN, T_END_SMALL)
    interp_eps, interp_events = _events_per_second(and_model, BACKEND_INTERP, T_END_SMALL)
    assert events == interp_events  # same draws, same trajectory, same count

    simulator = DirectMethodSimulator(and_model)
    benchmark(simulator.run, T_END_SMALL, rng=BASE_SEED)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec_codegen"] = round(codegen_eps)
    benchmark.extra_info["events_per_sec_interp"] = round(interp_eps)
    benchmark.extra_info["codegen_speedup"] = round(codegen_eps / interp_eps, 2)


def test_kernel_events_per_sec_and_gate_short_segments(benchmark):
    """The AND gate clamped through its four input combinations at hold 30.

    Four segments of a few hundred events each, as in a short-hold study:
    unlike the long single-segment runs above, this shows what each segment
    pays once per block of raw words it fetches and decodes.
    """
    job = StudySpec(circuit="and", hold_time=SHORT_HOLD).template_job()
    codegen_eps, events = _events_per_second(
        job.model, BACKEND_CODEGEN, job.t_end, repeats=20, schedule=job.schedule
    )
    interp_eps, interp_events = _events_per_second(
        job.model, BACKEND_INTERP, job.t_end, schedule=job.schedule
    )
    assert events == interp_events

    simulator = DirectMethodSimulator(job.model)
    benchmark(simulator.run, job.t_end, schedule=job.schedule, rng=BASE_SEED)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec_codegen"] = round(codegen_eps)
    benchmark.extra_info["events_per_sec_interp"] = round(interp_eps)


def test_kernel_events_per_sec_cello_scale(benchmark, cello_scale_model):
    """Cello-scale SSA throughput: codegen must be ≥3x the interpreted path."""
    codegen_eps, events = _events_per_second(cello_scale_model, BACKEND_CODEGEN, T_END_CELLO)
    interp_eps, interp_events = _events_per_second(cello_scale_model, BACKEND_INTERP, T_END_CELLO)
    assert events == interp_events

    simulator = DirectMethodSimulator(cello_scale_model)
    benchmark(simulator.run, T_END_CELLO, rng=BASE_SEED)
    speedup = codegen_eps / interp_eps
    benchmark.extra_info["reactions"] = len(cello_scale_model.reactions)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec_codegen"] = round(codegen_eps)
    benchmark.extra_info["events_per_sec_interp"] = round(interp_eps)
    benchmark.extra_info["codegen_speedup"] = round(speedup, 2)
    check_wallclock(
        speedup >= MIN_CELLO_SPEEDUP,
        f"codegen kernel is only {speedup:.2f}x the interpreted path "
        f"({codegen_eps:,.0f} vs {interp_eps:,.0f} events/sec); expected ≥{MIN_CELLO_SPEEDUP}x",
    )


def test_kernel_build_ms_suite_circuits(benchmark):
    """Report only: the kernel build of each of the 15 Section III circuits.

    A build is what a study pays on a compiled-model cache miss: model
    tables, kernel generation and the byte-compilation of what loading runs.
    Best of five per circuit, in ms, lands in ``extra_info``; nothing is
    asserted about the time.  The five passes run as one benchmark round.
    """
    models = {name: resolve_circuit(name).model for name in SUITE_CIRCUITS}

    def best_of_five():
        best = dict.fromkeys(models, float("inf"))
        for _ in range(5):
            for name, model in models.items():
                start = time.perf_counter()
                build = CompiledModel(model, backend=BACKEND_CODEGEN)
                best[name] = min(best[name], time.perf_counter() - start)
                assert build.kernel is not None
        return best

    best = benchmark.pedantic(best_of_five, rounds=1, iterations=1)
    for name, seconds in best.items():
        benchmark.extra_info[f"build_ms_{name}"] = round(seconds * 1e3, 3)
    benchmark.extra_info["build_ms_total"] = round(sum(best.values()) * 1e3, 2)
