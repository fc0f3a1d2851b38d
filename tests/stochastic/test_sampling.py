"""Tests for the uniform-grid sample recorder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.stochastic import SampleRecorder, make_sample_times


class TestMakeSampleTimes:
    def test_includes_both_ends(self):
        times = make_sample_times(10.0, 1.0)
        assert times[0] == 0.0
        assert times[-1] == 10.0
        assert len(times) == 11

    def test_fractional_interval(self):
        times = make_sample_times(1.0, 0.25)
        assert len(times) == 5

    def test_interval_not_dividing_range(self):
        times = make_sample_times(1.0, 0.3)
        assert times[-1] <= 1.0 + 1e-9
        assert len(times) == 4  # 0, 0.3, 0.6, 0.9

    def test_bad_arguments_rejected(self):
        with pytest.raises(SimulationError):
            make_sample_times(0.0, 1.0)
        with pytest.raises(SimulationError):
            make_sample_times(10.0, 0.0)

    def test_start_offset(self):
        times = make_sample_times(5.0, 1.0, t_start=2.0)
        assert times[0] == 2.0
        assert times[-1] == 5.0


class TestSampleRecorder:
    def test_fill_before_is_exclusive(self):
        recorder = SampleRecorder(np.arange(5.0), 1)
        recorder.fill_before(2.0, np.array([7.0]))
        assert list(recorder.data[:, 0]) == [7.0, 7.0, 0.0, 0.0, 0.0]

    def test_sequential_fills_use_distinct_states(self):
        recorder = SampleRecorder(np.arange(6.0), 1)
        recorder.fill_before(2.5, np.array([1.0]))
        recorder.fill_before(4.5, np.array([2.0]))
        recorder.finish(np.array([3.0]))
        assert list(recorder.data[:, 0]) == [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]

    def test_fills_never_rewind(self):
        recorder = SampleRecorder(np.arange(4.0), 1)
        recorder.fill_before(3.5, np.array([5.0]))
        recorder.fill_before(1.0, np.array([9.0]))  # earlier fill is a no-op
        assert list(recorder.data[:, 0]) == [5.0, 5.0, 5.0, 5.0, 0.0][:4]

    def test_complete_flag(self):
        recorder = SampleRecorder(np.arange(3.0), 2)
        assert not recorder.complete
        recorder.finish(np.array([1.0, 2.0]))
        assert recorder.complete
        assert recorder.data.shape == (3, 2)


class _MatrixRecorder:
    """The recorder as it was before rows went into a list: the oracle.

    Writes each fill straight into a preallocated float64 matrix.
    """

    def __init__(self, sample_times, n_species):
        self.sample_times = np.asarray(sample_times, dtype=float)
        self.data = np.zeros((len(self.sample_times), n_species), dtype=float)
        self._cursor = 0

    def fill_before(self, t_limit, state):
        end = int(np.searchsorted(self.sample_times, t_limit, side="left"))
        if end > self._cursor:
            self.data[self._cursor:end] = state
            self._cursor = end
        if self._cursor < len(self.sample_times):
            return self.sample_times.item(self._cursor)
        return float("inf")

    def finish(self, state):
        if self._cursor < len(self.sample_times):
            self.data[self._cursor:] = state
            self._cursor = len(self.sample_times)


_amounts = st.floats(allow_nan=False, width=64)
_limits = st.one_of(
    st.floats(min_value=-150.0, max_value=150.0),
    st.sampled_from([float("inf"), float("-inf"), 0.0, -0.0]),
)


@st.composite
def _recordings(draw):
    """A sorted sample grid (duplicates allowed), a width, and fills on it."""
    width = draw(st.integers(min_value=0, max_value=4))
    grid = sorted(
        draw(
            st.lists(
                st.one_of(st.floats(min_value=-100.0, max_value=100.0), st.integers(-5, 20)),
                min_size=1,
                max_size=12,
            ),
        ),
    )
    row = st.lists(_amounts, min_size=width, max_size=width)
    fills = draw(st.lists(st.tuples(_limits, row, st.booleans()), max_size=10))
    return np.array(grid, dtype=float), width, fills, draw(row)


class TestRecorderMatchesMatrixRecorder:
    @settings(max_examples=300, deadline=None)
    @given(_recordings())
    def test_data_bit_identical(self, recording):
        grid, width, fills, final = recording
        recorder, oracle = SampleRecorder(grid, width), _MatrixRecorder(grid, width)

        def assert_same():
            data = recorder.data
            assert data.dtype == np.float64 and data.flags.c_contiguous
            assert data.shape == oracle.data.shape
            assert data.tobytes() == oracle.data.tobytes()
            assert not data[recorder.cursor:].any()
            assert recorder.complete == (oracle._cursor == len(grid))

        for limit, values, as_array in fills:
            state = np.array(values, dtype=float) if as_array else tuple(values)
            assert recorder.fill_before(limit, state) == oracle.fill_before(limit, state)
            if as_array:
                state[:] = 12345.0  # a fill keeps the values it was given
            assert_same()
        recorder.finish(np.array(final, dtype=float))
        oracle.finish(np.array(final, dtype=float))
        assert_same()
        assert recorder.complete
