"""Input clamping schedules.

D-VASim lets the user interactively set the amount of the input species while
the stochastic simulation runs (the "virtual laboratory" workflow).  The
equivalent batch mechanism here is an :class:`InputSchedule`: a sorted list of
:class:`InputEvent` objects, each setting one or more (boundary) species to a
fixed amount at a given time.  Every simulator honours the schedule by
clamping those species at segment boundaries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import ExperimentError

__all__ = ["InputEvent", "InputSchedule"]


@dataclass(frozen=True)
class InputEvent:
    """Set the given species to the given amounts at ``time``."""

    time: float
    settings: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ExperimentError("input events cannot occur at negative times")
        settings = dict(self.settings)
        for species, amount in settings.items():
            if amount < 0:
                raise ExperimentError(
                    f"input event at t={self.time:g} sets {species!r} to a negative amount",
                )
        object.__setattr__(self, "settings", settings)


class InputSchedule:
    """An ordered collection of :class:`InputEvent` objects.

    The schedule also remembers which species it drives, so the experiment
    driver can mark them as boundary species and the analyzer can recover the
    *applied* digital input value at any sample time.
    """

    def __init__(self, events: Sequence[InputEvent] = ()):
        self._events: List[InputEvent] = sorted(events, key=lambda e: e.time)

    # -- construction ---------------------------------------------------------
    def add(self, time: float, settings: Mapping[str, float]) -> "InputSchedule":
        """Add an event (returns self so calls can be chained).

        The event goes after every event at the same time or earlier, so
        equal-time events keep their insertion order.
        """
        bisect.insort(self._events, InputEvent(time, settings), key=lambda e: e.time)
        return self

    def merge(self, other: "InputSchedule") -> "InputSchedule":
        """A new schedule containing the events of both schedules."""
        return InputSchedule(self._events + list(other))

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[InputEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> InputEvent:
        return self._events[index]

    @property
    def species(self) -> List[str]:
        """All species driven by at least one event, in first-use order."""
        seen: List[str] = []
        for event in self._events:
            for sid in event.settings:
                if sid not in seen:
                    seen.append(sid)
        return seen

    def events_between(self, t_start: float, t_end: float) -> List[InputEvent]:
        """Events with ``t_start <= time < t_end``."""
        return [e for e in self._events if t_start <= e.time < t_end]

    def segment_boundaries(self, t_end: float) -> List[float]:
        """Event times within ``[0, t_end)``, plus ``t_end`` itself."""
        times = sorted({e.time for e in self._events if e.time < t_end})
        return times + [t_end]

    def value_at(self, species: str, time: float, default: float = 0.0) -> float:
        """The amount most recently assigned to ``species`` at ``time``."""
        value = default
        for event in self._events:
            if event.time > time:
                break
            if species in event.settings:
                value = float(event.settings[species])
        return value

    def applied_values(
        self,
        species: Sequence[str],
        times: np.ndarray,
        defaults: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, np.ndarray]:
        """Vectorized :meth:`value_at` for many sample times.

        Returns, for each requested species, the amount the schedule holds it
        at for every sample time.  The logic analyzer uses this to know which
        input combination was applied at each sample (the paper logs the
        applied inputs alongside the simulated traces).
        """
        times = np.asarray(times, dtype=float)
        defaults = dict(defaults or {})
        result: Dict[str, np.ndarray] = {}
        for sid in species:
            changes_t = [0.0]
            changes_v = [float(defaults.get(sid, 0.0))]
            for event in self._events:
                if sid in event.settings:
                    changes_t.append(event.time)
                    changes_v.append(float(event.settings[sid]))
            changes_t_arr = np.asarray(changes_t)
            changes_v_arr = np.asarray(changes_v)
            indices = np.searchsorted(changes_t_arr, times, side="right") - 1
            indices = np.clip(indices, 0, len(changes_t_arr) - 1)
            result[sid] = changes_v_arr[indices]
        return result

    # -- factory helpers ------------------------------------------------------
    @classmethod
    def from_combinations(
        cls,
        input_species: Sequence[str],
        combinations: Sequence[Sequence[int]],
        hold_time: float,
        high_amount: float,
        low_amount: float = 0.0,
        start_time: float = 0.0,
    ) -> "InputSchedule":
        """Clamp ``input_species`` through a sequence of digital combinations.

        Each combination is held for ``hold_time`` time units; digital 1 maps
        to ``high_amount`` molecules and digital 0 to ``low_amount``.  This is
        the schedule shape used throughout the paper: "each input combination
        is applied for at least the propagation delay".
        """
        if hold_time <= 0:
            raise ExperimentError("hold_time must be positive")
        if high_amount <= low_amount:
            raise ExperimentError("high_amount must exceed low_amount")
        events = []
        time = float(start_time)
        for combination in combinations:
            if len(combination) != len(input_species):
                raise ExperimentError(
                    f"combination {tuple(combination)} does not match the "
                    f"{len(input_species)} input species",
                )
            settings = {
                sid: (high_amount if bit else low_amount)
                for sid, bit in zip(input_species, combination)
            }
            events.append(InputEvent(time, settings))
            time += hold_time
        return cls(events)

    def total_duration(self) -> float:
        """Time of the last event (the schedule's natural minimum duration)."""
        if not self._events:
            return 0.0
        return self._events[-1].time

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"InputSchedule({len(self._events)} events, species={self.species})"
