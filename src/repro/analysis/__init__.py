"""Higher-level studies built on the analyzer: sweeps, robustness, runtime."""

from .replicates import ReplicateStudy, run_replicate_study
from .robustness import RobustnessReport, assess_robustness
from .scoring import CandidateScore
from .runtime import (
    RuntimeMeasurement,
    measure_analysis_runtime,
    synthetic_experiment_arrays,
)
from .sweep import ThresholdSweepEntry, threshold_sweep

__all__ = [
    "ThresholdSweepEntry",
    "threshold_sweep",
    "RobustnessReport",
    "assess_robustness",
    "CandidateScore",
    "ReplicateStudy",
    "run_replicate_study",
    "RuntimeMeasurement",
    "synthetic_experiment_arrays",
    "measure_analysis_runtime",
]
