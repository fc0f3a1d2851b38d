"""Tests for replicate studies."""

import pytest

from repro.analysis import ReplicateStudy, run_replicate_study
from repro.engine import StudySpec
from repro.errors import AnalysisError, EngineError
from repro.gates import not_gate_circuit


@pytest.fixture(scope="module")
def study():
    return run_replicate_study(
        StudySpec.for_circuit(not_gate_circuit(), n_replicates=4, hold_time=120.0, seed=99)
    )


class TestRunReplicateStudy:
    def test_replicate_count(self, study):
        assert study.n_replicates == 4
        assert len(study.results) == 4

    def test_reliable_circuit_has_full_recovery(self, study):
        assert study.recovery_rate == 1.0
        assert study.mean_fitness > 98.0
        assert study.std_fitness < 2.0

    def test_combination_agreement(self, study):
        agreement = study.combination_agreement()
        assert set(agreement) == {"0", "1"}
        assert all(value == 1.0 for value in agreement.values())
        assert study.worst_combination() in agreement

    def test_summary(self, study):
        text = study.summary()
        assert "not_gate" in text
        assert "recovery rate" in text

    def test_invalid_replicate_count(self):
        with pytest.raises(EngineError):
            StudySpec.for_circuit(not_gate_circuit(), n_replicates=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_replicate_study(not_gate_circuit(), n_replicates=2),
            lambda: run_replicate_study("not"),
            lambda: run_replicate_study(StudySpec(circuit="not"), workers=2),
        ],
        ids=["circuit-and-keywords", "circuit-name", "spec-and-keywords"],
    )
    def test_only_a_study_spec_is_accepted(self, call):
        with pytest.raises(EngineError, match="StudySpec.for_circuit"):
            call()

    def test_empty_results_rejected(self, study):
        with pytest.raises(AnalysisError):
            ReplicateStudy(circuit_name="x", expected=study.expected, results=[])

    def test_replicates_are_independent(self, study):
        """Different seeds must not produce byte-identical traces."""
        first, second = study.results[0], study.results[1]
        counts_first = [c.high_count for c in first.combinations]
        counts_second = [c.high_count for c in second.combinations]
        assert counts_first != counts_second
