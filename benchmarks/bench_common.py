"""Shared constants and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures:

=====================  =========================================================
Benchmark module        Paper element
=====================  =========================================================
test_bench_fig2_*       Figure 2 — logic analysis of the 2-input genetic AND gate
test_bench_fig4_*       Figure 4 — analytics + expressions of 0x0B, 0x04, 0x1C
test_bench_fig5_*       Figure 5 — threshold sensitivity of circuit 0x0B
test_bench_suite15      Section III — the full 15-circuit verification table
test_bench_runtime      Section IV — analysis runtime (the 8.4 s claim)
test_bench_filter_*     Section II — ablation of the two data filters
=====================  =========================================================

The SSA simulations that *produce* the traces are run once per module in
fixtures; the ``benchmark`` fixture then times the paper's actual
contribution — the logic-analysis algorithm — on those traces.  Holding times
are scaled with the gate kinetics as documented in EXPERIMENTS.md (the ratio
hold-time / propagation-delay matches the paper's 1000 / ~300).

The benchmark modules import these from ``bench_common``, not from
``conftest``: a test run that also collects ``tests/`` loads a second
``conftest`` module, and ``from conftest import ...`` would read whichever
one was loaded last.
"""

from __future__ import annotations

import os

import pytest

from repro.core import LogicAnalyzer
from repro.vlab import LogicExperiment

#: The paper's analysis settings.
PAPER_THRESHOLD = 15.0
PAPER_FOV_UD = 0.25

#: Scaled experiment settings (see EXPERIMENTS.md for the scaling argument).
HOLD_TIME = 200.0
REPEATS = 1
BASE_SEED = 20170654


def run_circuit_experiment(
    circuit, seed_offset=0, hold_time=HOLD_TIME, repeats=REPEATS, simulator="ssa"
):
    """Run the standard virtual-laboratory experiment for one circuit."""
    experiment = LogicExperiment.for_circuit(circuit, simulator=simulator)
    return experiment.run(hold_time=hold_time, repeats=repeats, rng=BASE_SEED + seed_offset)


def paper_analyzer() -> LogicAnalyzer:
    """The analyzer configured exactly as in the paper's experiments."""
    return LogicAnalyzer(threshold=PAPER_THRESHOLD, fov_ud=PAPER_FOV_UD)


def check_wallclock(condition: bool, message: str) -> None:
    """Hard-assert a wall-clock ratio locally; warn when ``REPRO_BENCH_SOFT=1``.

    Shared CI runners make timing ratios flaky, so the bench-smoke job sets
    the soft flag: the measured numbers still land in ``extra_info`` (and
    the printed summaries), only the pass/fail gate is relaxed.
    """
    import warnings

    if condition:
        return
    if os.environ.get("REPRO_BENCH_SOFT") == "1":
        warnings.warn(message, stacklevel=2)
        return
    pytest.fail(message)
