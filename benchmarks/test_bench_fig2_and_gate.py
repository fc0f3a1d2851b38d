"""Experiment E1 — Figure 2: logic analysis of the 2-input genetic AND gate.

Regenerates the per-combination analytics table of Figure 2(b) (``Case_I``,
``High_O``, ``Var_O``), the recovered Boolean expression (``GFP = LacI·TetR``)
and the percentage fitness, and checks the paper's central qualitative claim:
with both filters the circuit is identified as AND, whereas unfiltered data
would suggest XNOR because of the decaying initial transient at combination
``00``.
"""

import pytest

from bench_common import PAPER_THRESHOLD, paper_analyzer
from repro.core import FilterConfig, LogicAnalyzer, format_analysis_report
from repro.gates import and_gate_circuit
from repro.vlab import LogicExperiment


@pytest.fixture(scope="module")
def circuit():
    return and_gate_circuit()


@pytest.fixture(scope="module")
def datalog(circuit):
    """The Figure-2 trace: the output starts high (as in the paper's plot) so
    combination 00 shows the decaying transient that must be filtered out."""
    model = circuit.model.copy()
    model.set_initial_amount(circuit.output, 60.0)
    experiment = LogicExperiment(
        model=model,
        input_species=list(circuit.inputs),
        output_species=circuit.output,
        circuit_name=circuit.name,
    )
    return experiment.run(hold_time=250.0, repeats=2, rng=654)


def test_fig2_and_gate_analysis(benchmark, datalog, circuit):
    analyzer = paper_analyzer()
    result = benchmark(analyzer.analyze, datalog)
    result.verify(circuit.expected_table)

    print()
    print(format_analysis_report(result, title="Figure 2 — 2-input genetic AND gate"))

    # The recovered logic is AND (0x08), not XNOR (0x09).
    assert result.truth_table.to_hex() == "0x08"
    assert result.gate_name == "AND"
    assert result.comparison.matches

    # Combination 00 saw the decaying high transient yet was filtered out.
    combination_00 = result.combination("00")
    assert combination_00.high_count > 0
    assert not combination_00.is_high

    # Combination 11 is a stable high: the overwhelming majority of its
    # samples are logic-1 and its fraction of variation is far below FOV_UD.
    combination_11 = result.combination("11")
    assert combination_11.high_count > combination_11.case_count / 2
    assert combination_11.fov_est < 0.25

    # Fitness close to 100 % (the paper's circuits score in the high 90s).
    assert result.fitness > 95.0


def test_fig2_without_filters_suggests_xnor(benchmark, datalog):
    """The failure mode the filters exist to prevent."""
    unfiltered_analyzer = LogicAnalyzer(
        threshold=PAPER_THRESHOLD,
        filter_config=FilterConfig(use_fov_filter=False, use_majority_filter=False),
    )
    lenient = benchmark(unfiltered_analyzer.analyze, datalog)
    strict = paper_analyzer().analyze(datalog)
    assert strict.truth_table.to_hex() == "0x08"
    assert lenient.truth_table.output_for("00") == 1
    assert lenient.truth_table.output_for("11") == 1
    print(
        "\nWithout the filters the recovered table is "
        f"{lenient.truth_table.to_hex()} ({lenient.gate_name or 'unnamed'}), "
        "i.e. the XNOR-style misreading the paper warns about.",
    )
