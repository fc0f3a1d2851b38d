"""Experiment E4 — Section III: verification of the full 15-circuit suite.

The paper evaluates its algorithm on 15 genetic circuits (5 from Myers'
textbook, 10 real Cello circuits; 1-3 inputs, 1-7 gates, 3-26 genetic
components) and recovers the correct Boolean expression for every one of
them.  This benchmark regenerates that table: every circuit is simulated with
the exhaustive protocol, analysed with the paper's settings (threshold 15,
FOV_UD 0.25), and verified against its intended truth table.
"""

import pytest

from bench_common import paper_analyzer, run_circuit_experiment
from repro.core import format_suite_table
from repro.gates import standard_suite


@pytest.fixture(scope="module")
def suite_results():
    """Simulate and analyse all 15 circuits once."""
    analyzer = paper_analyzer()
    entries = []
    for offset, circuit in enumerate(standard_suite()):
        datalog = run_circuit_experiment(circuit, seed_offset=100 + offset, hold_time=180.0)
        result = analyzer.analyze(datalog, expected=circuit.expected_table)
        entries.append((circuit, result))
    return entries


def test_suite15_all_circuits_verified(benchmark, suite_results):
    analyzer = paper_analyzer()
    # Benchmark the analysis of the largest log in the suite (the paper's
    # "complex genetic circuit with significantly large-sized data" case).
    largest_circuit, _ = max(suite_results, key=lambda pair: pair[0].n_gates)
    largest_log = run_circuit_experiment(largest_circuit, seed_offset=999, hold_time=180.0)
    benchmark(analyzer.analyze, largest_log)

    rows = []
    for circuit, result in suite_results:
        rows.append(
            {
                "name": circuit.name,
                "n_inputs": circuit.n_inputs,
                "n_gates": circuit.n_gates,
                "n_components": circuit.n_components,
                "expected": circuit.expected_table.to_hex(),
                "recovered": result.truth_table.to_hex(),
                "fitness": result.fitness,
                "match": result.comparison.matches,
            },
        )
    print()
    print(format_suite_table(rows, title="Section III — 15-circuit verification suite"))

    # The paper's suite statistics.
    assert len(suite_results) == 15
    assert {row["n_inputs"] for row in rows} == {1, 2, 3}
    assert min(circuit.n_gates for circuit, _ in suite_results) >= 1
    assert max(circuit.n_gates for circuit, _ in suite_results) <= 9
    assert min(circuit.n_components for circuit, _ in suite_results) >= 3
    assert max(circuit.n_components for circuit, _ in suite_results) <= 30

    # Every circuit's Boolean expression is recovered correctly...
    mismatches = [row["name"] for row in rows if not row["match"]]
    assert mismatches == [], f"circuits with wrong recovered logic: {mismatches}"

    # ...with high fitness throughout.
    assert all(row["fitness"] > 90.0 for row in rows)
    assert sum(row["fitness"] for row in rows) / len(rows) > 95.0
