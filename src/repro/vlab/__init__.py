"""Virtual laboratory: stimulus protocols, experiments, threshold and timing analysis.

This package replaces the interactive D-VASim workflow the paper uses to
produce its simulation data: it clamps input species through protocols, runs
the stochastic simulators, logs traces, and estimates the two circuit
parameters the analysis algorithm needs (threshold value and propagation
delay).
"""

from .datalog import SimulationDataLog
from .experiment import LogicExperiment, run_logic_experiment
from .propagation import PropagationDelayAnalysis, estimate_propagation_delay
from .protocol import (
    StimulusProtocol,
    custom_protocol,
    exhaustive_protocol,
    gray_code_protocol,
    random_protocol,
)
from .threshold import (
    ThresholdAnalysis,
    estimate_threshold,
    settled_output_levels,
)

__all__ = [
    "StimulusProtocol",
    "exhaustive_protocol",
    "gray_code_protocol",
    "random_protocol",
    "custom_protocol",
    "SimulationDataLog",
    "LogicExperiment",
    "run_logic_experiment",
    "ThresholdAnalysis",
    "estimate_threshold",
    "settled_output_levels",
    "PropagationDelayAnalysis",
    "estimate_propagation_delay",
]
