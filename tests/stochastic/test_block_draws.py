"""Block draws: the fused SSA loop's RNG draws rebuilt from raw PCG64 words.

The generated ``ssa_segment`` reads blocks of raw words and rebuilds numpy's
``Generator.exponential`` and ``Generator.random`` from them
(:mod:`repro.stochastic.ziggurat`).  These tests hold it to numpy itself —
draw values, rare ziggurat paths and the generator state handed back —
and check that every other case (another bit generator, a failed
self-check) runs the per-event numpy reference loop with identical results.
"""

import sys

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sbml import Model
from repro.stochastic import (
    BACKEND_CODEGEN,
    BACKEND_INTERP,
    CompiledModel,
    InputSchedule,
    ziggurat,
)
from repro.stochastic.ssa import DirectMethodSimulator


@pytest.fixture()
def fresh_self_check():
    """Forget the once-per-process self-check before and after a test."""
    ziggurat.block_draws_verified.cache_clear()
    yield
    ziggurat.block_draws_verified.cache_clear()


def _run(model, backend, generator, t_end, **kwargs):
    """One direct-method run: (data, event count, the generator afterwards)."""
    if backend == BACKEND_CODEGEN and type(generator.bit_generator) is np.random.PCG64:
        # Otherwise the run would take the reference loop and prove nothing.
        assert ziggurat.block_draws_verified()
    simulator = DirectMethodSimulator(CompiledModel(model, backend=backend))
    trajectory = simulator.run(t_end, rng=generator, **kwargs)
    return trajectory.data, simulator.last_event_count, generator


class TestRebuiltDraws:
    def test_a_million_pairs_equal_numpy_bit_for_bit(self, monkeypatch):
        """Interleaved ``exponential(scale)``/``random()`` pairs over scales
        spanning 14 decades, in 20 calls that each hand the generator back,
        against numpy's own calls on a twin generator."""
        taken = {"tail": 0, "wedge": 0, "rejection": 0}
        rare = ziggurat.exponential_rare

        def counting_rare(x, i, firsts, uniforms, raw, decode):
            k = int(-1.0 - x)  # a rejected first try holds -1 - its layer
            x, j = rare(x, i, firsts, uniforms, raw, decode)
            # Layer 0 takes the tail; elsewhere one word is the wedge test
            # and more mean the wedge rejected and the draw started over.
            taken["tail" if k == 0 else "wedge" if j == i + 1 else "rejection"] += 1
            return x, j

        monkeypatch.setattr(ziggurat, "exponential_rare", counting_rare)
        draw_pairs = ziggurat.load_draw_pairs()
        scales = 10.0 ** np.random.default_rng(20170664).uniform(-7.0, 7.0, 1_000_000)
        ours, theirs = np.random.default_rng(20170665), np.random.default_rng(20170665)
        for chunk in np.split(scales, 20):
            with ziggurat.WordBlock(ours) as words:
                drawn = np.array(draw_pairs(words, chunk.tolist()))
            expected = np.empty_like(drawn)
            for j, scale in enumerate(chunk.tolist()):
                expected[2 * j] = theirs.exponential(scale)
                expected[2 * j + 1] = theirs.random()
            assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert min(taken.values()) > 0, taken

    def test_self_check_passes_on_installed_numpy(self, fresh_self_check):
        assert ziggurat.block_draws_verified()

    @pytest.mark.parametrize("block", [1, 2])
    def test_draws_across_every_block_end_equal_numpy(self, monkeypatch, block):
        """With one- or two-word blocks nearly every draw meets a block end:
        the END slot's refill, the uniform's refill, a rare draw whose first
        try is a block's last word, and a rare draw that appends words past
        its block.  Each path must be taken, and every call must equal
        numpy's and hand the generator back in numpy's state."""
        monkeypatch.setattr(ziggurat, "BLOCK_CAP", block)
        taken = dict.fromkeys(["END refill", "uniform refill", "rare on last word", "append"], 0)
        decode, rare = ziggurat.decode_words, ziggurat.exponential_rare

        def counting_decode(ke, we, words):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "draw_pairs":
                # The exponential refills after reading END; the uniform
                # refills with the last exponential's value in _x.
                ended = caller.f_locals.get("_x") == ziggurat.END
                taken["END refill" if ended else "uniform refill"] += 1
            else:
                taken["append"] += 1
            return decode(ke, we, words)

        def counting_rare(x, i, firsts, uniforms, raw, decode):
            taken["rare on last word"] += i == len(uniforms)
            return rare(x, i, firsts, uniforms, raw, decode)

        monkeypatch.setattr(ziggurat, "decode_words", counting_decode)
        monkeypatch.setattr(ziggurat, "exponential_rare", counting_rare)
        draw_pairs = ziggurat.load_draw_pairs()
        ours, theirs = np.random.default_rng(20170670), np.random.default_rng(20170670)
        ours.integers(0, 4)  # buffers a uint32 half-word the hand-back keeps
        theirs.integers(0, 4)
        for scales in np.geomspace(1e-6, 1e6, 20_000).reshape(20, -1).tolist():
            expected = []
            for scale in scales:
                expected += (theirs.exponential(scale), theirs.random())
            with ziggurat.WordBlock(ours) as words:
                assert draw_pairs(words, scales) == expected
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert min(taken.values()) > 0, taken


class TestBlockSizing:
    def test_short_segment_fetches_its_expected_draws(self, monkeypatch):
        """A birth-death run of a few events (production 5 per unit time from
        empty, t_end 1) fetches a first block of 2 x 1 x 5 words plus the pad,
        not a fixed block, refetches only what the rest of the segment is
        expected to draw, and still equals the reference loop."""
        model = Model("birth_death")
        model.add_species("Y")
        model.add_reaction("prod", products=[("Y", 1.0)], kinetic_law="5.0")
        model.add_reaction("deg", reactants=[("Y", 1.0)], kinetic_law="0.1 * Y")
        fetched = []
        decode = ziggurat.decode_words

        def recording_decode(ke, we, words):
            fetched.append(len(words))
            return decode(ke, we, words)

        assert ziggurat.block_draws_verified()  # its own blocks are not the run's
        monkeypatch.setattr(ziggurat, "decode_words", recording_decode)
        for seed in range(20):
            fetched.clear()
            data, events, generator = _run(model, BACKEND_CODEGEN, np.random.default_rng(seed), 1.0)
            assert fetched[0] == 2 * 5 + ziggurat.BLOCK_PAD
            assert sum(fetched) < 64
            expected = _run(model, BACKEND_INTERP, np.random.default_rng(seed), 1.0)
            assert events == expected[1]
            assert np.array_equal(data, expected[0])
            assert generator.bit_generator.state == expected[2].bit_generator.state


class TestFallback:
    def test_corrupt_table_falls_back_to_reference_loop(
        self, monkeypatch, fresh_self_check, and_circuit
    ):
        """A table numpy disagrees with fails the self-check; simulators then
        run the numpy reference loop and stay bit-identical to interp."""
        check = np.random.Generator(np.random.PCG64(ziggurat.CHECK_SEED))
        check.integers(0, 4)  # the self-check's first call
        layer = (check.bit_generator.random_raw() >> 3) & 255  # its first exponential
        corrupt = list(ziggurat.WE)
        corrupt[layer] *= 1.5
        monkeypatch.setattr(ziggurat, "WE", tuple(corrupt))
        with pytest.warns(RuntimeWarning, match="falls back to numpy's per-event draws"):
            assert not ziggurat.block_draws_verified()

        compiled = CompiledModel(and_circuit.model, backend=BACKEND_CODEGEN)

        def refuse(*args):
            raise AssertionError("the kernel's loop ran after a failed self-check")

        compiled.kernel.ssa_segment = refuse
        simulator = DirectMethodSimulator(compiled)
        generator = np.random.default_rng(20170667)
        data = simulator.run(200.0, rng=generator).data
        expected = _run(and_circuit.model, BACKEND_INTERP, np.random.default_rng(20170667), 200.0)
        assert simulator.last_event_count == expected[1] > 500
        assert np.array_equal(data, expected[0])
        assert generator.bit_generator.state == expected[2].bit_generator.state

    def test_mt19937_run_equals_interp(self, and_circuit):
        """Only PCG64 words rebuild numpy's draws; MT19937 keeps numpy's calls."""
        runs = [
            _run(and_circuit.model, backend, np.random.Generator(np.random.MT19937(5)), 60.0)
            for backend in (BACKEND_CODEGEN, BACKEND_INTERP)
        ]
        (data, events, generator), (expected, expected_events, twin) = runs
        assert events == expected_events > 500
        assert np.array_equal(data, expected)
        assert generator.random() == twin.random()


class TestGeneratorHandBack:
    """A live generator ends where the numpy-call loop leaves it."""

    def test_buffered_half_word_is_kept(self, and_circuit):
        states = []
        for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
            generator = np.random.default_rng(20170668)
            generator.integers(0, 4)  # buffers the upper half of one word
            before = generator.bit_generator.state
            assert before["has_uint32"] == 1
            _run(and_circuit.model, backend, generator, 60.0)
            after = generator.bit_generator.state
            assert (after["has_uint32"], after["uinteger"]) == (1, before["uinteger"])
            states.append(after)
        assert states[0] == states[1]

    @pytest.mark.parametrize("rate", ["0.5", "0.0"])
    @pytest.mark.parametrize("cap", [-3, 0, 5])
    def test_event_cap_edges_equal_interp(self, rate, cap):
        """A cap the first events pass, or a negative one, raises after the
        event that passes it, as the numpy loop does; a run without events
        never raises."""
        model = Model("birth")
        model.add_species("Y")
        model.add_reaction("make", products=[("Y", 1.0)], kinetic_law=rate)
        outcomes = []
        for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
            generator = np.random.default_rng(20170675)
            try:
                outcome = _run(model, backend, generator, 20.0, max_events=cap)[0].tolist()
            except SimulationError as error:
                outcome = str(error)
            outcomes.append((outcome, generator.bit_generator.state))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0][0], str) == (rate != "0.0")

    def test_raise_mid_segment_leaves_interp_state(self, and_circuit):
        states = []
        for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
            generator = np.random.default_rng(20170669)
            with pytest.raises(SimulationError, match="exceeded 777 reaction events"):
                _run(and_circuit.model, backend, generator, 600.0, max_events=777)
            states.append(generator.bit_generator.state)
        assert states[0] == states[1]


class TestShortSegments:
    """One word block serves a whole run: the words a segment fetched but
    did not draw are the next segment's first, and the generator is handed
    back once, when the run ends or raises."""

    SEGMENTS, HOLD = 400, 0.2

    def _schedule(self, model):
        """The inputs step through their combinations every ``HOLD``."""
        inputs = model.boundary_species()
        schedule = InputSchedule()
        for k in range(self.SEGMENTS):
            schedule.add(k * self.HOLD, {sid: 30.0 * (k >> j & 1) for j, sid in enumerate(inputs)})
        return schedule

    def _watched(self, model):
        """A codegen simulator whose segments record ``(events, block end)``:
        the events each fired and whether it stopped on its block's last word."""
        compiled = CompiledModel(model, backend=BACKEND_CODEGEN)
        segment, segments = compiled.kernel.ssa_segment, []

        def watched(state, t, t_stop, words, recorder, events, max_events):
            fired = segment(state, t, t_stop, words, recorder, events, max_events)
            segments.append((fired - events, words.i == words.n > 0))
            return fired

        compiled.kernel.ssa_segment = watched
        return DirectMethodSimulator(compiled), segments

    def _both(self, model, seed, **kwargs):
        """(codegen, interp) runs: each (data or error, events, generator state)."""
        assert ziggurat.block_draws_verified()
        watched, segments = self._watched(model)
        interp = DirectMethodSimulator(CompiledModel(model, backend=BACKEND_INTERP))
        runs = []
        for simulator in (watched, interp):
            generator = np.random.default_rng(seed)
            generator.integers(0, 4)  # a buffered half-word the hand-back keeps
            try:
                outcome = simulator.run(self.SEGMENTS * self.HOLD, rng=generator, **kwargs).data
            except SimulationError as error:
                outcome = str(error)
            runs.append((outcome, simulator.last_event_count, generator.bit_generator.state))
        return runs, segments

    def test_hundreds_of_segments_equal_interp(self, and_circuit):
        model = and_circuit.model
        (ours, theirs), segments = self._both(model, 20170673, schedule=self._schedule(model))
        assert len(segments) == self.SEGMENTS + 1  # the schedule's first, [0, 0), is empty
        assert any(fired == 0 for fired, _ in segments[1:])
        assert any(at_end for _, at_end in segments)
        assert ours[1] == theirs[1] == sum(fired for fired, _ in segments) > self.SEGMENTS
        assert np.array_equal(ours[0], theirs[0])
        assert ours[2] == theirs[2]

    def test_raise_in_a_late_segment_leaves_interp_state(self, and_circuit):
        model = and_circuit.model
        schedule = self._schedule(model)
        (full, _), _ = self._both(model, 20170674, schedule=schedule)
        cap = full[1] * 9 // 10
        (ours, theirs), segments = self._both(model, 20170674, schedule=schedule, max_events=cap)
        assert ours[0] == theirs[0] == f"simulation exceeded {cap} reaction events before t_end"
        # The segment that raised records nothing; the ones before it ran whole.
        assert len(segments) > self.SEGMENTS * 3 // 4
        assert ours[2] == theirs[2]
