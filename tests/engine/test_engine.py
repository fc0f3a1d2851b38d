"""Tests for the ensemble execution engine: jobs, executors, cache, APIs."""

import numpy as np
import pytest

from repro.engine import (
    CompiledModelCache,
    EnsembleResult,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    SimulationJob,
    default_cache,
    get_executor,
    replicate_jobs,
    run_ensemble,
    run_job,
)
from repro.engine.jobs import EnsembleStats
from repro.errors import EngineError, SimulationError
from repro.gates import and_gate_circuit
from repro.stochastic import (
    CANONICAL_SIMULATORS,
    SIMULATOR_ALIASES,
    SIMULATORS,
    canonical_simulator_name,
    fan_out_seeds,
    resolve_simulator,
    simulate_ssa,
    spawn_rngs,
)
from repro.stochastic.events import InputSchedule
from repro.vlab import LogicExperiment


@pytest.fixture()
def and_job(and_circuit):
    """A short seeded SSA job on the AND gate."""
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs),
        [(0, 0), (1, 1)],
        40.0,
        40.0,
    )
    return SimulationJob(
        model=and_circuit.model,
        t_end=80.0,
        simulator="ssa",
        schedule=schedule,
    )


class TestSimulatorRegistry:
    def test_direct_is_a_documented_alias_of_ssa(self):
        assert canonical_simulator_name("direct") == "ssa"
        assert SIMULATOR_ALIASES["direct"] == "ssa"
        assert resolve_simulator("direct") is simulate_ssa

    def test_normalization_is_case_and_space_insensitive(self):
        assert canonical_simulator_name("  SSA ") == "ssa"
        assert canonical_simulator_name("Tau-Leap") == "tau-leap"

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(SimulationError, match="quantum"):
            canonical_simulator_name("quantum")

    def test_flat_mapping_is_derived_from_one_source_of_truth(self):
        for alias, target in SIMULATOR_ALIASES.items():
            assert SIMULATORS[alias] is CANONICAL_SIMULATORS[target]
        for name, fn in CANONICAL_SIMULATORS.items():
            assert SIMULATORS[name] is fn


class TestSeedFanOut:
    def test_matches_spawn_rngs_for_int_roots(self):
        seeds = fan_out_seeds(42, 3)
        via_seeds = [np.random.default_rng(s).random(5) for s in seeds]
        via_spawn = [g.random(5) for g in spawn_rngs(42, 3)]
        for a, b in zip(via_seeds, via_spawn):
            assert np.array_equal(a, b)

    def test_matches_spawn_rngs_for_generator_roots(self):
        seeds = fan_out_seeds(np.random.default_rng(7), 3)
        via_seeds = [np.random.default_rng(s).random(5) for s in seeds]
        via_spawn = [g.random(5) for g in spawn_rngs(np.random.default_rng(7), 3)]
        for a, b in zip(via_seeds, via_spawn):
            assert np.array_equal(a, b)

    def test_children_are_picklable_and_independent(self):
        import pickle

        seeds = fan_out_seeds(3, 4)
        assert len({np.random.default_rng(s).random() for s in seeds}) == 4
        for seed in seeds:
            pickle.loads(pickle.dumps(seed))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            fan_out_seeds(1, -1)

    def test_numpy_integer_seeds_are_deterministic(self):
        first = fan_out_seeds(np.int64(42), 2)
        second = fan_out_seeds(np.int64(42), 2)
        for a, b in zip(first, second):
            assert np.array_equal(
                np.random.default_rng(a).random(4),
                np.random.default_rng(b).random(4),
            )
        # np.int64 and plain int roots agree.
        int_children = fan_out_seeds(42, 2)
        assert np.array_equal(
            np.random.default_rng(first[0]).random(4),
            np.random.default_rng(int_children[0]).random(4),
        )

    def test_seedsequence_roots_spawn_directly(self):
        root_a, root_b = np.random.SeedSequence(42).spawn(2)
        stream_a = np.random.default_rng(fan_out_seeds(root_a, 1)[0]).random(4)
        stream_b = np.random.default_rng(fan_out_seeds(root_b, 1)[0]).random(4)
        stream_int = np.random.default_rng(fan_out_seeds(42, 1)[0]).random(4)
        # Sibling roots (and the raw int root) all fan to distinct streams.
        assert not np.array_equal(stream_a, stream_b)
        assert not np.array_equal(stream_a, stream_int)

    def test_propagation_phases_do_not_share_streams(self, and_circuit):
        """With an int seed and SSA, the settled-levels batch and the
        transition batch must be deterministic yet mutually independent."""
        from repro.vlab import estimate_propagation_delay

        kwargs = dict(
            input_species=and_circuit.inputs,
            output_species=and_circuit.output,
            threshold=15.0,
            settle_time=120.0,
            observation_time=120.0,
            simulator="ssa",
            rng=11,
        )
        first = estimate_propagation_delay(and_circuit.model, **kwargs)
        second = estimate_propagation_delay(and_circuit.model, **kwargs)
        assert first.delays == second.delays  # deterministic per seed

    def test_propagation_accepts_seedsequence_rng(self, and_circuit):
        from repro.vlab import estimate_propagation_delay

        root = np.random.SeedSequence(3)
        analysis = estimate_propagation_delay(
            and_circuit.model,
            and_circuit.inputs,
            and_circuit.output,
            threshold=15.0,
            settle_time=100.0,
            observation_time=100.0,
            simulator="ssa",
            rng=root,
            transitions=[("00", "11")],
        )
        assert analysis.delays


class TestSimulationJob:
    def test_alias_is_canonicalized_at_construction(self, and_circuit):
        job = SimulationJob(model=and_circuit.model, t_end=10.0, simulator="direct")
        assert job.simulator == "ssa"

    def test_invalid_settings_rejected(self, and_circuit):
        with pytest.raises(EngineError):
            SimulationJob(model=and_circuit.model, t_end=0.0)
        with pytest.raises(EngineError):
            SimulationJob(model=and_circuit.model, t_end=1.0, sample_interval=0.0)
        with pytest.raises(SimulationError):
            SimulationJob(model=and_circuit.model, t_end=1.0, simulator="bogus")

    def test_frozen_overrides_are_order_independent(self, and_circuit):
        a = SimulationJob(
            model=and_circuit.model,
            t_end=1.0,
            parameter_overrides={"x": 1.0, "y": 2.0},
        )
        b = SimulationJob(
            model=and_circuit.model,
            t_end=1.0,
            parameter_overrides={"y": 2.0, "x": 1.0},
        )
        assert a.frozen_overrides() == b.frozen_overrides()


class TestExecutorParity:
    def test_serial_and_process_pool_are_bit_identical(self, and_job):
        jobs_serial = replicate_jobs(and_job, 3, seed=20170654)
        jobs_parallel = replicate_jobs(and_job, 3, seed=20170654)
        serial = run_ensemble(jobs_serial, workers=1)
        parallel = run_ensemble(jobs_parallel, workers=2)
        assert serial.stats.executor == "serial"
        assert parallel.stats.executor == "process-pool"
        for (_, a), (_, b) in zip(serial, parallel):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.data, b.data)

    def test_results_come_back_in_submission_order(self, and_job):
        jobs = replicate_jobs(and_job, 4, seed=5, tags=["a", "b", "c", "d"])
        result = run_ensemble(jobs, workers=2)
        assert result.tags() == ["a", "b", "c", "d"]

    def test_generator_seed_rejected_by_process_pool(self, and_job):
        job = replicate_jobs(and_job, 1, seed=1)[0]
        job.seed = np.random.default_rng(1)
        with ProcessPoolEnsembleExecutor(2) as pool:
            with pytest.raises(EngineError, match="picklable seeds"):
                run_ensemble([job], executor=pool)

    def test_get_executor_selection(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(4), ProcessPoolEnsembleExecutor)
        assert get_executor(4).workers == 4
        with pytest.raises(EngineError):
            ProcessPoolEnsembleExecutor(0)

    def test_progress_hook_fires_once_per_job(self, and_job):
        seen = []
        jobs = replicate_jobs(and_job, 3, seed=9)
        run_ensemble(jobs, workers=1, progress=lambda done, total, job: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestReplicateStudyParity:
    def test_identical_statistics_serial_vs_parallel(self, and_circuit):
        from repro.analysis import run_replicate_study
        from repro.engine import StudySpec

        spec = StudySpec.for_circuit(and_circuit, n_replicates=3, hold_time=100.0, seed=77)
        serial = run_replicate_study(spec)
        parallel = run_replicate_study(spec.replace(workers=2))
        assert serial.fitness_values == parallel.fitness_values
        assert serial.recovery_rate == parallel.recovery_rate
        assert serial.combination_agreement() == parallel.combination_agreement()
        assert [r.truth_table.outputs for r in serial.results] == [
            r.truth_table.outputs for r in parallel.results
        ]
        assert parallel.stats is not None
        assert parallel.stats.executor == "process-pool"


class TestCompiledModelCache:
    def test_sweep_compiles_the_model_once(self, and_circuit):
        from repro.analysis import threshold_sweep

        cache = default_cache()
        cache.clear()
        threshold_sweep(
            and_circuit,
            thresholds=[10.0, 15.0, 20.0],
            hold_time=60.0,
            rng=1,
            simulator="ode",
        )
        assert cache.misses == 1
        assert cache.hits == 2

    def test_cache_hit_returns_same_compiled_object(self, and_circuit):
        cache = CompiledModelCache()
        first = cache.get(and_circuit.model)
        second = cache.get(and_circuit.model)
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_overrides_are_part_of_the_key(self, toy_model):
        cache = CompiledModelCache()
        plain = cache.get(toy_model)
        overridden = cache.get(toy_model, (("kd", 0.5),))
        assert plain is not overridden
        assert overridden.constants["kd"] == 0.5
        assert cache.misses == 2

    def test_in_place_model_edits_invalidate_the_entry(self, and_circuit):
        cache = CompiledModelCache()
        model = and_circuit.model.copy()
        before = cache.get(model)
        model.set_initial_amount(and_circuit.output, 60.0)
        after = cache.get(model)
        assert before is not after
        assert after.initial_state[after.index[and_circuit.output]] == 60.0

    def test_compiled_model_input_with_overrides_recompiles(self, toy_model):
        from repro.stochastic import compile_model

        cache = CompiledModelCache()
        compiled = compile_model(toy_model)
        assert cache.get(compiled) is compiled
        overridden = cache.get(compiled, (("kd", 0.5),))
        assert overridden is not compiled
        assert overridden.constants["kd"] == 0.5

    def test_parallel_stats_report_worker_cache(self, and_circuit):
        schedule = InputSchedule.from_combinations(
            list(and_circuit.inputs),
            [(1, 1)],
            30.0,
            40.0,
        )
        template = SimulationJob(
            model=and_circuit.model,
            t_end=30.0,
            simulator="ode",
            schedule=schedule,
        )
        result = run_ensemble(replicate_jobs(template, 4, seed=2), workers=2)
        # Each worker compiles once; everything else is a worker-cache hit.
        assert result.stats.cache_hits + result.stats.cache_misses == 4
        assert 1 <= result.stats.cache_misses <= 2

    def test_two_builds_of_one_circuit_share_an_entry(self):
        cache = CompiledModelCache()
        first = cache.get(and_gate_circuit().model)
        assert cache.get(and_gate_circuit().model) is first
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    @pytest.mark.parametrize("simulator", ["ssa", "ode", "next-reaction"])
    def test_in_place_edit_never_changes_a_content_equal_run(self, and_circuit, simulator):
        """The entry built from ``edited`` serves ``twin`` (equal content)
        after ``edited`` changed in place: ``twin``'s runs, the on-demand
        kernel parts and the initial state included, equal a fresh compile's."""
        edited, twin = and_circuit.model.copy(), and_circuit.model.copy()
        schedule = InputSchedule.from_combinations(list(and_circuit.inputs), [(1, 1)], 30.0, 40.0)
        job = SimulationJob(
            model=twin,
            t_end=30.0,
            simulator=simulator,
            schedule=schedule,
            initial_state={and_circuit.inputs[0]: 5.0},
        )
        cache = CompiledModelCache()
        executor = SerialExecutor()
        cache.get(edited)
        edited.set_initial_amount(and_circuit.output, 90.0)
        for parameter in edited.parameters.values():
            parameter.value *= 2.0
        jobs = replicate_jobs(job, 2, seed=5)
        cached = run_ensemble(jobs, executor=executor, cache=cache)
        assert cached.stats.cache_hits == 2
        fresh = run_ensemble(jobs, executor=executor, cache=CompiledModelCache())
        for index in range(2):
            assert np.array_equal(cached.trajectory(index).data, fresh.trajectory(index).data)

    def test_ssa_study_compiles_no_other_kernel_part(self, monkeypatch):
        from repro.analysis import run_replicate_study
        from repro.engine import StudySpec
        from repro.stochastic import codegen

        compiled_parts = []
        compile_part = codegen.compile_part

        def recording(source, name):
            compiled_parts.append(name)
            return compile_part(source, name)

        monkeypatch.setattr(codegen, "compile_part", recording)
        default_cache().clear()
        study = run_replicate_study(
            StudySpec(circuit="0x0B", n_replicates=2, seed=3, hold_time=40.0)
        )
        assert study.n_replicates == 2
        assert compiled_parts == ["", "ssa_segment"]

    def test_lru_eviction_bounds_the_cache(self, toy_model):
        # Entries are keyed by content: three distinct contents, three entries.
        cache = CompiledModelCache(max_entries=2)
        models = [toy_model.copy() for _ in range(3)]
        for amount, model in enumerate(models):
            model.set_initial_amount("Y", float(amount))
            cache.get(model)
        assert cache.misses == 3
        assert len(cache) == 2


class TestBatchApis:
    def test_run_job_equals_direct_simulation(self, and_job):
        job = replicate_jobs(and_job, 1, seed=4)[0]
        from repro.stochastic import compile_model

        direct = simulate_ssa(
            compile_model(and_job.model),
            job.t_end,
            schedule=job.schedule,
            rng=np.random.default_rng(job.seed),
        )
        via_engine = run_job(replicate_jobs(and_job, 1, seed=4)[0])
        assert np.array_equal(direct.data, via_engine.data)

    def test_empty_batch_rejected(self):
        with pytest.raises(EngineError):
            run_ensemble([])

    def test_replicate_jobs_preserves_template_tag(self, and_job):
        and_job.tag = {"hold_time": 40.0}
        clones = replicate_jobs(and_job, 2, seed=1)
        assert all(job.tag == {"hold_time": 40.0} for job in clones)

    def test_replicate_jobs_validation(self, and_job):
        with pytest.raises(EngineError):
            replicate_jobs(and_job, 0)
        with pytest.raises(EngineError):
            replicate_jobs(and_job, 2, tags=["only-one"])

    def test_override_sweep_compiles_each_override_set_once(self, toy_model):
        """A parameter sweep is one job per override set: each set keys the
        compile cache, and each run simulates under its own."""
        cache = CompiledModelCache()
        jobs = [
            SimulationJob(
                model=toy_model,
                t_end=20.0,
                simulator="ode",
                parameter_overrides={"kd": kd},
                tag={"kd": kd},
            )
            for kd in (0.1, 0.5, 0.1)
        ]
        result = run_ensemble(jobs, cache=cache)
        assert result.tags() == [{"kd": 0.1}, {"kd": 0.5}, {"kd": 0.1}]
        # Two distinct override sets -> two compiles, third run hits the cache.
        assert result.stats.cache_misses == 2
        assert result.stats.cache_hits == 1
        # A stronger kd decays the output harder.
        weak, strong = result.trajectory(0), result.trajectory(1)
        assert strong["Y"][-1] < weak["Y"][-1]

    def test_ensemble_result_shape_mismatch_rejected(self, and_job):
        stats = EnsembleStats(n_jobs=1, executor="serial", workers=1, wall_seconds=0.1)
        with pytest.raises(EngineError):
            EnsembleResult(jobs=[and_job], trajectories=[], stats=stats)

    def test_stats_summary_mentions_throughput(self, and_job):
        result = run_ensemble(replicate_jobs(and_job, 2, seed=1))
        assert "runs/s" in result.summary()
        assert result.stats.runs_per_second > 0


class TestExperimentJobApi:
    def test_run_and_job_paths_are_identical(self, and_circuit):
        experiment = LogicExperiment.for_circuit(and_circuit, simulator="ssa")
        direct = experiment.run(hold_time=60.0, rng=123)
        job = experiment.job(hold_time=60.0, seed=123)
        via_job = experiment.datalog_from(job, run_job(job))
        assert np.array_equal(direct.trajectory.data, via_job.trajectory.data)
        assert direct.hold_time == via_job.hold_time

    def test_job_carries_hold_time_meta(self, and_circuit):
        experiment = LogicExperiment.for_circuit(and_circuit)
        job = experiment.job(hold_time=75.0)
        assert job.meta == {"hold_time": 75.0}
        assert job.tag is None

    def test_datalog_from_survives_custom_replicate_tags(self, and_circuit):
        """Caller tags live on .tag; .meta (hold_time) must be preserved."""
        experiment = LogicExperiment.for_circuit(and_circuit, simulator="ode")
        template = experiment.job(hold_time=40.0)
        clones = replicate_jobs(template, 2, seed=1, tags=["first", "second"])
        result = run_ensemble(clones)
        logs = [experiment.datalog_from(job, traj) for job, traj in result]
        assert result.tags() == ["first", "second"]
        assert all(log.hold_time == 40.0 for log in logs)
