"""Batch SSA: bit-identity against the serial direct method.

The whole value of :func:`repro.stochastic.simulate_ssa_batch` rests on one
claim — each replicate of a batch is *bit-identical* to the serial
single-replicate run with the same seed — so these tests compare raw arrays
with :func:`numpy.array_equal`, never with tolerances.
"""

import numpy as np

from repro.stochastic import (
    BACKEND_INTERP,
    CompiledModel,
    InputSchedule,
    fan_out_seeds,
    simulate_ssa,
    simulate_ssa_batch,
    ziggurat,
)


def _and_schedule(circuit):
    return InputSchedule.from_combinations(
        list(circuit.inputs), [(0, 0), (1, 1), (1, 0)], 30.0, 30.0
    )


def _assert_batch_matches_serial(model, t_end, seeds, **kwargs):
    batch = simulate_ssa_batch(model, t_end, seeds, **kwargs)
    assert len(batch) == len(seeds)
    for seed, trajectory in zip(seeds, batch):
        expected = simulate_ssa(model, t_end, rng=seed, **kwargs)
        assert np.array_equal(trajectory.times, expected.times)
        assert np.array_equal(trajectory.data, expected.data)
        assert trajectory.species == expected.species


class TestBitIdentity:
    def test_scheduled_circuit_matches_serial_per_replicate(self, and_circuit):
        """The headline contract, on a real circuit with input clamping.

        ``from_combinations`` places an event at t=0, so the schedule's first
        segment is the degenerate ``[0, 0)`` one — the serial inner loop never
        enters it, and a batch loop that does draws one spurious waiting time
        per replicate and diverges from the very first step.  This test is
        the regression guard for exactly that bug.
        """
        _assert_batch_matches_serial(
            and_circuit.model,
            90.0,
            fan_out_seeds(11, 5),
            schedule=_and_schedule(and_circuit),
        )

    def test_unscheduled_run_matches_serial(self, and_circuit):
        _assert_batch_matches_serial(and_circuit.model, 40.0, fan_out_seeds(3, 4))

    def test_batch_of_one_matches_serial(self, and_circuit):
        _assert_batch_matches_serial(
            and_circuit.model,
            60.0,
            fan_out_seeds(7, 1),
            schedule=_and_schedule(and_circuit),
        )

    def test_record_species_and_initial_state_match_serial(self, and_circuit):
        output = and_circuit.output
        _assert_batch_matches_serial(
            and_circuit.model,
            40.0,
            fan_out_seeds(5, 3),
            initial_state={output: 12.0},
            record_species=[output],
        )

    def test_sample_interval_matches_serial(self, and_circuit):
        _assert_batch_matches_serial(
            and_circuit.model,
            40.0,
            fan_out_seeds(9, 3),
            sample_interval=2.5,
        )


class TestBatchShape:
    def test_empty_seed_list_yields_no_trajectories(self, and_circuit):
        assert simulate_ssa_batch(and_circuit.model, 10.0, []) == []

    def test_replicates_share_one_sample_grid_object(self, and_circuit):
        """Batch replicates share the grid array itself — the invariant the
        binary transport exploits to encode the time block once per batch."""
        batch = simulate_ssa_batch(and_circuit.model, 20.0, fan_out_seeds(1, 3))
        assert batch[1].times is batch[0].times
        assert batch[2].times is batch[0].times

    def test_generator_seeds_are_consumed_in_place(self, and_circuit):
        """Live generators are accepted (the serial executor's in-process
        case) and advanced exactly as their serial counterparts would be:
        each ends in the state the interp backend's numpy calls leave."""
        assert ziggurat.block_draws_verified()  # so the block-draw loop runs
        seeds = fan_out_seeds(13, 2)
        generators = [np.random.default_rng(seed) for seed in seeds]
        batch = simulate_ssa_batch(and_circuit.model, 30.0, generators)
        interp_generators = [np.random.default_rng(seed) for seed in seeds]
        simulate_ssa_batch(
            CompiledModel(and_circuit.model, backend=BACKEND_INTERP), 30.0, interp_generators
        )
        for seed, trajectory in zip(seeds, batch):
            expected = simulate_ssa(and_circuit.model, 30.0, rng=seed)
            assert np.array_equal(trajectory.data, expected.data)
        for generator, interp_generator in zip(generators, interp_generators):
            assert generator.bit_generator.state == interp_generator.bit_generator.state
