"""Experiment E5 — Section IV: runtime of the analysis algorithm.

The paper reports "about 8.4 seconds to analyze the logic of a complex
genetic circuit with significantly large-sized data" and argues that this is
negligible next to the hours a laboratory measurement takes.  This benchmark
measures the analyzer's wall-clock time on traces of increasing size (up to
10^6 samples of a 3-input circuit — two orders of magnitude more data than a
10,000-time-unit D-VASim run) and asserts the whole range stays inside the
paper's 8.4-second budget.
"""

import pytest

from bench_common import paper_analyzer
from repro.analysis import measure_analysis_runtime, synthetic_experiment_arrays
from repro.logic import TruthTable

SIZES = [10_000, 100_000, 1_000_000]


@pytest.fixture(scope="module")
def large_trace():
    """A 10^6-sample synthetic experiment of a 3-input circuit (0x1C)."""
    table = TruthTable.from_hex("0x1C", n_inputs=3)
    return synthetic_experiment_arrays(1_000_000, 3, truth_table=table, rng=7)


def test_runtime_scaling_table(benchmark, large_trace):
    inputs, output, names = large_trace
    analyzer = paper_analyzer()

    result = benchmark(analyzer.analyze_arrays, inputs, output, names)

    # Print the scaling table (the equivalent of the paper's single number).
    measurements = measure_analysis_runtime(SIZES, n_inputs=3, repeats=1, rng=11)
    print()
    print("Section IV — analysis runtime vs. trace size (3-input circuit)")
    for measurement in measurements:
        print("  " + measurement.summary())

    # The benchmarked 10^6-sample analysis recovers the right logic...
    assert result.truth_table.to_hex() == "0x1C"
    # ...and every measured size stays within the paper's 8.4 s budget.
    assert all(m.seconds < 8.4 for m in measurements)
    # Throughput sanity: at least 100k samples/s on the largest trace.
    assert measurements[-1].samples_per_second > 100_000


def test_runtime_insensitive_to_input_count(benchmark):
    """Adding inputs multiplies the combinations, not the per-sample cost."""
    sizes = [200_000]
    two_inputs = measure_analysis_runtime(sizes, n_inputs=2, repeats=1, rng=3)[0]
    four_inputs = measure_analysis_runtime(sizes, n_inputs=4, repeats=1, rng=3)[0]
    benchmark(lambda: measure_analysis_runtime([50_000], n_inputs=3, repeats=1, rng=5))
    assert four_inputs.seconds < 10.0 * max(two_inputs.seconds, 1e-3)
