"""Experiment E3 — Figure 5: threshold sensitivity of circuit 0x0B.

The paper re-runs circuit ``0x0B`` with the input/threshold level set to a
very low (3 molecules) and a very high (40 molecules) value and observes that
the recovered logic is no longer the intended one: weak inputs cannot trigger
the circuit, and with a high threshold the input and output levels are no
longer distinguishable, so the output "oscillates between logic-high and low
for a large number of times" and wrong states appear.

This benchmark sweeps the same three operating points (3, 15, 40 molecules)
and checks the qualitative findings; the exact alternative Boolean expression
at the extremes depends on the (unpublished) internal kinetics of the
authors' model and is not asserted — see EXPERIMENTS.md.
"""

import pytest

from bench_common import BASE_SEED, PAPER_FOV_UD
from repro.analysis import threshold_sweep
from repro.gates import cello_circuit

SWEEP_THRESHOLDS = [3.0, 15.0, 40.0]


@pytest.fixture(scope="module")
def sweep_entries():
    circuit = cello_circuit("0x0B")
    return {
        entry.threshold: entry
        for entry in threshold_sweep(
            circuit,
            thresholds=SWEEP_THRESHOLDS,
            hold_time=200.0,
            rng=BASE_SEED + 50,
            fov_ud=PAPER_FOV_UD,
        )
    }


def test_fig5_threshold_sweep(benchmark, sweep_entries):
    nominal = sweep_entries[15.0]
    low = sweep_entries[3.0]
    high = sweep_entries[40.0]

    # Re-run the (cheap) analysis of the nominal entry as the benchmarked body.
    from bench_common import paper_analyzer

    benchmark(paper_analyzer().analyze, _relog(nominal))

    print()
    print("Figure 5 — circuit 0x0B at different threshold / input levels")
    for threshold in SWEEP_THRESHOLDS:
        print(f"  {sweep_entries[threshold].summary()}")

    # Nominal threshold (15 molecules): the intended 0x0B logic is recovered.
    assert nominal.matches
    assert nominal.result.truth_table.to_hex() == "0x0B"

    # Very low threshold (3 molecules): the inputs are too weak to trigger the
    # circuit, so the recovered behaviour differs from the intended one.
    assert not low.matches
    assert low.n_wrong_states >= 1

    # Very high threshold (40 molecules): wrong states appear and the output
    # oscillates across the threshold far more often than at the nominal
    # operating point.
    assert not high.matches
    assert high.n_wrong_states >= 1
    assert high.total_variation > 3 * nominal.total_variation


def _relog(entry):
    """Rebuild a small data log equivalent for benchmarking the analysis step."""
    # The sweep does not retain the raw log; re-running the analysis on the
    # recovered truth table would be meaningless, so instead benchmark the
    # analyzer on a freshly simulated nominal-threshold experiment.
    from bench_common import run_circuit_experiment
    from repro.gates import cello_circuit

    circuit = cello_circuit("0x0B")
    return run_circuit_experiment(circuit, seed_offset=77, hold_time=150.0)


def test_fig5_high_threshold_oscillation(benchmark, sweep_entries):
    """At the 40-molecule operating point the output crosses the threshold far
    more often (the paper: "the output response also seems to oscillate
    between logic-high and low for a large number of times")."""
    nominal = sweep_entries[15.0]
    high = sweep_entries[40.0]
    total_variation = benchmark(
        lambda: sum(c.variation_count for c in high.result.combinations),
    )
    nominal_variation = sum(c.variation_count for c in nominal.result.combinations)
    assert total_variation > nominal_variation
    assert high.n_wrong_states >= nominal.n_wrong_states
    # The paper reports two wrong states for its 0x0B model at 40 molecules;
    # our regenerated model must show at least one (the exact count depends on
    # the unpublished internal kinetics).
    assert high.n_wrong_states >= 1
