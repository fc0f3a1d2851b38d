"""Tests for input clamping schedules."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.stochastic import InputEvent, InputSchedule


class TestInputEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ExperimentError):
            InputEvent(-1.0, {"A": 1.0})

    def test_negative_amount_rejected(self):
        with pytest.raises(ExperimentError):
            InputEvent(0.0, {"A": -2.0})


class TestSchedule:
    def test_events_sorted_by_time(self):
        schedule = InputSchedule().add(5.0, {"A": 1.0}).add(1.0, {"A": 2.0})
        assert [e.time for e in schedule] == [1.0, 5.0]

    def test_equal_time_events_keep_insertion_order(self):
        """Each add lands after every event at its time or earlier: the order
        a stable append-then-sort gives, which later same-time clamps rely on
        to win."""
        added = [
            (10.0, {"A": 1.0}),
            (0.0, {"B": 2.0}),
            (10.0, {"A": 3.0}),
            (5.0, {"C": 1.0}),
            (10.0, {"B": 0.0}),
            (0.0, {"B": 4.0}),
        ]
        schedule = InputSchedule()
        for time, settings in added:
            schedule.add(time, settings)
        expected = sorted(added, key=lambda event: event[0])
        assert [(e.time, e.settings) for e in schedule] == expected
        assert schedule.value_at("A", 10.0) == 3.0
        assert schedule.value_at("B", 0.0) == 4.0

    def test_species_first_use_order(self):
        schedule = InputSchedule().add(0.0, {"B": 1.0}).add(1.0, {"A": 2.0, "B": 0.0})
        assert schedule.species == ["B", "A"]

    def test_value_at_latest_assignment_wins(self):
        schedule = InputSchedule().add(0.0, {"A": 10.0}).add(5.0, {"A": 20.0})
        assert schedule.value_at("A", 0.0) == 10.0
        assert schedule.value_at("A", 4.999) == 10.0
        assert schedule.value_at("A", 5.0) == 20.0
        assert schedule.value_at("A", 100.0) == 20.0

    def test_value_at_default_before_first_event(self):
        schedule = InputSchedule().add(3.0, {"A": 10.0})
        assert schedule.value_at("A", 1.0, default=7.0) == 7.0

    def test_segment_boundaries(self):
        schedule = InputSchedule().add(0.0, {"A": 1.0}).add(10.0, {"A": 2.0})
        assert schedule.segment_boundaries(25.0) == [0.0, 10.0, 25.0]
        # Events at/after t_end are not boundaries.
        assert schedule.segment_boundaries(10.0) == [0.0, 10.0]

    def test_events_between(self):
        schedule = InputSchedule().add(0.0, {"A": 1.0}).add(10.0, {"A": 2.0})
        assert len(schedule.events_between(0.0, 10.0)) == 1
        assert len(schedule.events_between(0.0, 10.1)) == 2

    def test_merge(self):
        a = InputSchedule().add(0.0, {"A": 1.0})
        b = InputSchedule().add(5.0, {"B": 2.0})
        merged = a.merge(b)
        assert len(merged) == 2
        assert merged.species == ["A", "B"]

    def test_total_duration(self):
        schedule = InputSchedule().add(0.0, {"A": 1.0}).add(7.5, {"A": 0.0})
        assert schedule.total_duration() == 7.5
        assert InputSchedule().total_duration() == 0.0

    def test_applied_values_vectorised(self):
        schedule = InputSchedule().add(0.0, {"A": 0.0, "B": 40.0}).add(10.0, {"A": 40.0})
        times = np.array([0.0, 5.0, 10.0, 15.0])
        applied = schedule.applied_values(["A", "B"], times)
        assert list(applied["A"]) == [0.0, 0.0, 40.0, 40.0]
        assert list(applied["B"]) == [40.0, 40.0, 40.0, 40.0]

    def test_applied_values_with_defaults(self):
        schedule = InputSchedule().add(10.0, {"A": 40.0})
        applied = schedule.applied_values(["A"], np.array([0.0, 20.0]), defaults={"A": 5.0})
        assert list(applied["A"]) == [5.0, 40.0]


class TestFromCombinations:
    def test_builds_one_event_per_combination(self):
        schedule = InputSchedule.from_combinations(
            ["A", "B"],
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            hold_time=100.0,
            high_amount=40.0,
        )
        assert len(schedule) == 4
        assert schedule.value_at("A", 250.0) == 40.0
        assert schedule.value_at("B", 250.0) == 0.0
        assert schedule.total_duration() == 300.0

    def test_low_amount_applied(self):
        schedule = InputSchedule.from_combinations(
            ["A"],
            [(0,), (1,)],
            hold_time=50.0,
            high_amount=30.0,
            low_amount=2.0,
        )
        assert schedule.value_at("A", 0.0) == 2.0
        assert schedule.value_at("A", 60.0) == 30.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ExperimentError):
            InputSchedule.from_combinations(["A"], [(0,)], hold_time=0.0, high_amount=40.0)
        with pytest.raises(ExperimentError):
            InputSchedule.from_combinations(["A"], [(0,)], hold_time=10.0, high_amount=0.0)
        with pytest.raises(ExperimentError):
            InputSchedule.from_combinations(["A"], [(0, 1)], hold_time=10.0, high_amount=40.0)
