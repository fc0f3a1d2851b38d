"""Worker-side compilation: model blobs through the worker's compiled-model cache."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.engine import (
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    SimulationJob,
    StudySpec,
    replicate_jobs,
    run_ensemble,
)
from repro.engine.cache import model_blob, model_fingerprint, worker_compiled
from repro.engine.core import batch_job_groups, batch_job_payloads, simulate_batch_payload
from repro.stochastic import CompiledModel


def _fresh_model(sid: str):
    """A unique-content model per test so worker-global caches never collide."""
    from repro.sbml import Model

    model = Model(sid)
    model.add_species("A", boundary_condition=True, initial_amount=8.0)
    model.add_species("Y")
    model.add_parameter("kmax", 4.0)
    model.add_parameter("K", 10.0)
    model.add_parameter("n", 2.5)
    model.add_parameter("kd", 0.1)
    model.add_reaction(
        "production_Y",
        products=[("Y", 1.0)],
        modifiers=["A"],
        kinetic_law="kmax * hill_rep(A, K, n)",
    )
    model.add_reaction("degradation_Y", reactants=[("Y", 1.0)], kinetic_law="kd * Y")
    return model


class TestModelBlob:
    def test_fingerprint_is_the_model_content_hash(self):
        model = _fresh_model("blob_fp")
        blob, fingerprint = model_blob(model)
        # The blob is the model's own pickle and the fingerprint its hash, so
        # every worker-side cache key covers the model and its overrides alone.
        assert blob == pickle.dumps(model)
        assert fingerprint == model_fingerprint(model) == hashlib.sha1(blob).hexdigest()

    def test_worker_compiles_the_blob_once(self):
        model = _fresh_model("blob_compile")
        blob, fingerprint = model_blob(model)
        compiled, hit = worker_compiled(fingerprint, blob)
        assert not hit
        assert compiled.model.sid == model.sid
        assert compiled.reaction_ids == model.reaction_ids()
        assert compiled.kernel_source == CompiledModel(model).kernel_source
        assert worker_compiled(fingerprint, blob) == (compiled, True)


class TestWorkerCompiled:
    def test_override_sets_are_keyed_apart(self):
        model = _fresh_model("blob_overrides")
        overrides = (("kmax", 8.0),)
        blob, fingerprint = model_blob(model)
        plain, _ = worker_compiled(fingerprint, blob, ())
        overridden, hit = worker_compiled(fingerprint, blob, overrides)
        assert not hit and overridden is not plain
        assert plain.constants["kmax"] == 4.0
        assert overridden.constants["kmax"] == 8.0
        state = plain.state_from_dict({"A": 0.0})
        assert overridden.propensities(state)[0] == 2.0 * plain.propensities(state)[0]
        assert worker_compiled(fingerprint, blob, ()) == (plain, True)

    def test_compiled_model_blob_compiles_by_compile_model_rule(self):
        compiled = CompiledModel(_fresh_model("blob_compiled"), {"kd": 0.2})
        blob, fingerprint = model_blob(compiled)
        same, _ = worker_compiled(fingerprint, blob, (("kd", 0.2),))
        assert same.constants == compiled.constants
        other, _ = worker_compiled(fingerprint, blob, (("kmax", 8.0),))
        # A recompile starts from the source model: only the job's overrides apply.
        assert other.constants["kmax"] == 8.0 and other.constants["kd"] == 0.1


class TestPayload:
    def test_one_replicate_payload_carries_no_kernel(self):
        jobs = replicate_jobs(StudySpec(circuit="0x0B", seed=3).template_job(), 1, seed=3)
        (payload,) = batch_job_payloads(jobs, batch_job_groups(jobs, 1))
        assert "kernel" not in payload
        assert len(pickle.dumps((simulate_batch_payload, payload))) < 10_000


class TestPoolParityWithKernels:
    @pytest.mark.parametrize("overrides", [None, {"kd": 0.2}])
    def test_pool_matches_serial_bit_for_bit(self, overrides):
        from repro.stochastic import fan_out_seeds

        model = _fresh_model("blob_pool")
        seeds = fan_out_seeds(20170658, 4)
        jobs = [
            SimulationJob(
                model=model,
                t_end=40.0,
                simulator="ssa",
                parameter_overrides=overrides,
                seed=seed,
                tag=i,
            )
            for i, seed in enumerate(seeds)
        ]
        serial = run_ensemble(jobs, executor=SerialExecutor())
        with ProcessPoolEnsembleExecutor(2) as pool:
            pooled = run_ensemble(jobs, executor=pool)
        for left, right in zip(serial.trajectories, pooled.trajectories):
            assert np.array_equal(left.data, right.data)
