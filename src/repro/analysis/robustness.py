"""Robustness of a circuit's logic across operating thresholds.

The paper concludes that logic analysis "may help users to analyze the
circuit's behavior and robustness for different parameter sets before
creating them in the laboratory".  This module turns that idea into a small
report: sweep the threshold over a range, record where the recovered logic
stays correct, and summarise the usable operating window around the nominal
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..gates.circuits import GeneticCircuit
from ..stochastic.rng import RandomState
from .sweep import ThresholdSweepEntry, threshold_sweep

__all__ = ["RobustnessReport", "assess_robustness"]


@dataclass
class RobustnessReport:
    """Which threshold values preserve the circuit's intended logic."""

    circuit_name: str
    nominal_threshold: float
    entries: List[ThresholdSweepEntry]

    @property
    def correct_thresholds(self) -> List[float]:
        return [e.threshold for e in self.entries if e.matches]

    @property
    def incorrect_thresholds(self) -> List[float]:
        return [e.threshold for e in self.entries if not e.matches]

    @property
    def nominal_is_correct(self) -> bool:
        """True when the logic is correct at the threshold closest to nominal."""
        if not self.entries:
            return False
        closest = min(self.entries, key=lambda e: abs(e.threshold - self.nominal_threshold))
        return closest.matches

    def operating_window(self) -> Optional[Tuple[float, float]]:
        """The contiguous threshold range around nominal with correct logic.

        Returns ``None`` when the nominal threshold itself fails.
        """
        ordered = sorted(self.entries, key=lambda e: e.threshold)
        if not ordered:
            return None
        closest_index = min(
            range(len(ordered)),
            key=lambda i: abs(ordered[i].threshold - self.nominal_threshold),
        )
        if not ordered[closest_index].matches:
            return None
        low_index = closest_index
        while low_index > 0 and ordered[low_index - 1].matches:
            low_index -= 1
        high_index = closest_index
        while high_index < len(ordered) - 1 and ordered[high_index + 1].matches:
            high_index += 1
        return ordered[low_index].threshold, ordered[high_index].threshold

    def summary(self) -> str:
        window = self.operating_window()
        window_text = (
            f"{window[0]:g}..{window[1]:g}" if window is not None else "none around nominal"
        )
        return (
            f"{self.circuit_name}: logic correct at {len(self.correct_thresholds)}/"
            f"{len(self.entries)} tested thresholds; operating window {window_text} "
            f"(nominal {self.nominal_threshold:g})"
        )


def assess_robustness(
    circuit: GeneticCircuit,
    thresholds: Sequence[float],
    nominal_threshold: float = 15.0,
    hold_time: float = 250.0,
    repeats: int = 1,
    simulator: str = "ssa",
    rng: RandomState = None,
    fov_ud: float = 0.25,
    workers: int = 1,
    executor=None,
    progress=None,
) -> RobustnessReport:
    """Sweep the thresholds and package the verdicts into a report.

    The underlying sweep runs through the ensemble engine; ``workers=N``
    parallelises the per-threshold simulations across worker processes, and
    an opened ``executor`` lets several robustness reports share one live
    worker pool.
    """
    if nominal_threshold <= 0:
        raise AnalysisError("nominal_threshold must be positive")
    entries = threshold_sweep(
        circuit,
        thresholds,
        hold_time=hold_time,
        repeats=repeats,
        simulator=simulator,
        rng=rng,
        fov_ud=fov_ud,
        workers=workers,
        executor=executor,
        progress=progress,
    )
    return RobustnessReport(
        circuit_name=circuit.name,
        nominal_threshold=float(nominal_threshold),
        entries=entries,
    )
