"""Uniform-grid sampling shared by all simulators.

Stochastic trajectories are piecewise-constant between reaction events.  The
logic-analysis algorithm, like D-VASim's data logger, works on samples taken
at a fixed interval, so every simulator fills a :class:`SampleRecorder` with
the zero-order-hold value of the state at each grid point.

The recorder keeps filled rows as one flat list of Python floats and builds
the (samples x species) matrix once, when :attr:`SampleRecorder.data` is
read.  The generated direct-method loop (:mod:`repro.stochastic.codegen`)
appends rows to that list itself, so a sample costs it no call and no numpy
operation; every other simulator fills through :meth:`SampleRecorder.fill_before`.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

__all__ = ["SampleRecorder", "make_sample_times"]


def make_sample_times(t_end: float, sample_interval: float, t_start: float = 0.0) -> np.ndarray:
    """Sample grid ``t_start, t_start+dt, ..., <= t_end`` (inclusive of t_end)."""
    if t_end <= t_start:
        raise SimulationError("t_end must be greater than t_start")
    if sample_interval <= 0:
        raise SimulationError("sample_interval must be positive")
    count = int(np.floor((t_end - t_start) / sample_interval + 1e-9)) + 1
    times = t_start + sample_interval * np.arange(count)
    # Guard against floating-point creep past t_end.
    return times[times <= t_end + 1e-9 * max(1.0, abs(t_end))]


class SampleRecorder:
    """Fills a (samples x species) matrix with zero-order-hold state values.

    Three fields are the contract with the generated ``ssa_segment``, which
    reads them at entry and stores ``cursor`` back on exit:

    * ``times`` — the sample times as Python floats, then ``inf``, so the
      next unfilled sample time is always ``times[cursor]``;
    * ``rows`` — the filled rows, concatenated: ``cursor * n_species``
      Python floats;
    * ``cursor`` — the number of filled rows.

    Rows fill in order and never rewind.
    """

    __slots__ = ("times", "rows", "cursor", "_shape", "_data", "_data_cursor")

    def __init__(self, sample_times: np.ndarray, n_species: int):
        self.times = np.asarray(sample_times, dtype=float).tolist()
        self._shape = (len(self.times), n_species)
        self.times.append(float("inf"))
        self.rows: list = []
        self.cursor = 0
        self._data = None
        self._data_cursor = -1

    @property
    def complete(self) -> bool:
        """True once every sample row has been filled."""
        return self.cursor >= self._shape[0]

    @property
    def data(self) -> np.ndarray:
        """The C-contiguous float64 matrix of every row; unfilled rows are zero.

        Built when first read after a fill, then the same array until the
        next fill.
        """
        if self._data_cursor != self.cursor:
            data = np.zeros(self._shape)
            data.reshape(-1)[: len(self.rows)] = self.rows
            self._data, self._data_cursor = data, self.cursor
        return self._data

    def _row(self, state) -> list:
        """One row of Python floats from anything numpy broadcasts to one row."""
        values = np.asarray(state, dtype=float)
        if values.shape != self._shape[1:]:
            values = np.broadcast_to(values, self._shape[1:])
        return values.tolist()

    def fill_before(self, t_limit: float, state) -> float:
        """Fill all unfilled samples with time strictly less than ``t_limit``.

        ``state`` is anything numpy broadcasts to one row (an array or a
        tuple of amounts); its values are copied.  Returns the time of the
        first unfilled sample (``inf`` once every row is filled): the next
        call has work to do only for a ``t_limit`` past it.
        """
        times, cursor = self.times, self.cursor
        if times[cursor] < t_limit:
            row, rows = self._row(state), self.rows
            while times[cursor] < t_limit:
                rows += row
                cursor += 1
            self.cursor = cursor
        return times[cursor]

    def finish(self, state) -> None:
        """Fill any remaining samples with the final state."""
        remaining = self._shape[0] - self.cursor
        if remaining > 0:
            self.rows += self._row(state) * remaining
            self.cursor += remaining
