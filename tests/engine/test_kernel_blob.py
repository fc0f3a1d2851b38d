"""Compiled-propensity serialization through the worker blob cache."""

import numpy as np
import pytest

from repro.engine import ProcessPoolEnsembleExecutor, SerialExecutor, SimulationJob, run_ensemble
from repro.engine.cache import (
    KernelArtifact,
    kernel_artifact_for_blob,
    model_blob,
    model_fingerprint,
    register_worker_kernel,
    worker_compiled,
    worker_model_from_blob,
)
from repro.stochastic import kernel_source_for
from repro.stochastic.codegen import KERNEL_FORMAT


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


class TestBlobEnvelope:
    def test_fingerprint_is_the_model_content_hash(self):
        model = _fresh_model("blob_fp")
        blob_plain, fp_plain = model_blob(model)
        blob_kernels, fp_kernels = model_blob(model, {(): "source"})
        # The fingerprint covers the model alone: attaching kernels must not
        # shift worker-side cache keys.
        assert fp_plain == fp_kernels == model_fingerprint(model)
        assert blob_plain != blob_kernels

    def test_worker_round_trips_the_model(self):
        model = _fresh_model("blob_round_trip")
        blob, fingerprint = model_blob(model, {(): kernel_source_for(model)})
        restored = worker_model_from_blob(fingerprint, blob)
        assert restored.sid == model.sid
        assert restored.reaction_ids() == model.reaction_ids()
        # Same fingerprint again: the memoized instance comes back.
        assert worker_model_from_blob(fingerprint, blob) is restored


class TestWorkerKernelExec:
    def test_worker_compiled_execs_the_shipped_source(self):
        model = _fresh_model("blob_exec")
        source = kernel_source_for(model)
        blob, fingerprint = model_blob(model, {(): source})
        restored = worker_model_from_blob(fingerprint, blob)
        compiled, hit = worker_compiled(restored, fingerprint, ())
        assert not hit
        assert compiled.kernel is not None
        assert compiled.kernel.source == source
        _, hit_again = worker_compiled(restored, fingerprint, ())
        assert hit_again

    def test_override_kernels_are_keyed_separately(self):
        model = _fresh_model("blob_overrides")
        overrides = (("kmax", 8.0),)
        blob, fingerprint = model_blob(
            model,
            {
                (): kernel_source_for(model),
                overrides: kernel_source_for(model, dict(overrides)),
            },
        )
        restored = worker_model_from_blob(fingerprint, blob)
        plain, _ = worker_compiled(restored, fingerprint, ())
        overridden, _ = worker_compiled(restored, fingerprint, overrides)
        assert plain.constants["kmax"] == 4.0
        assert overridden.constants["kmax"] == 8.0
        state = plain.state_from_dict({"A": 0.0})
        assert overridden.propensities(state)[0] == 2.0 * plain.propensities(state)[0]

    def test_stale_kernel_falls_back_to_ast_compile(self):
        model = _fresh_model("blob_stale")
        bogus = kernel_source_for(model).replace(
            f"KERNEL_FORMAT = {KERNEL_FORMAT}",
            "KERNEL_FORMAT = 9999",
        )
        blob, fingerprint = model_blob(model, {(): bogus})
        restored = worker_model_from_blob(fingerprint, blob)
        compiled, _ = worker_compiled(restored, fingerprint, ())
        # The run still works; the kernel just got rebuilt from the model.
        state = compiled.state_from_dict({"A": 8.0})
        assert np.all(np.isfinite(compiled.propensities(state)))
        assert compiled.kernel is None or compiled.kernel.source != bogus

    def test_payload_attached_kernel_registration(self):
        # The executor attaches each payload's own kernel artifact; the
        # worker registers it before compiling (the sweep-friendly carrier).
        model = _fresh_model("blob_register")
        fingerprint = model_fingerprint(model)
        artifact = kernel_artifact_for_blob(model, fingerprint, ())
        register_worker_kernel(fingerprint, (), artifact)
        compiled, _ = worker_compiled(model, fingerprint, ())
        assert compiled.kernel is not None
        assert compiled.kernel.source == artifact.source
        register_worker_kernel(fingerprint, (), None)  # no-op by contract

    def test_parent_side_artifact_memo_is_stable(self):
        model = _fresh_model("blob_memo")
        fingerprint = model_fingerprint(model)
        first = kernel_artifact_for_blob(model, fingerprint, ())
        second = kernel_artifact_for_blob(model, fingerprint, ())
        assert first is second  # memo hit returns the cached artifact
        assert first.source == kernel_source_for(model)

    def test_worker_execs_shipped_bytecode(self):
        model = _fresh_model("blob_bytecode")
        fingerprint = model_fingerprint(model)
        artifact = kernel_artifact_for_blob(model, fingerprint, ())
        assert isinstance(artifact, KernelArtifact)
        blob, _ = model_blob(model, {(): artifact})
        restored = worker_model_from_blob(fingerprint, blob)
        compiled, _ = worker_compiled(restored, fingerprint, ())
        assert compiled.kernel is not None
        assert compiled.kernel.source == artifact.source

    def test_foreign_bytecode_magic_falls_back_to_source(self):
        model = _fresh_model("blob_magic")
        fingerprint = model_fingerprint(model)
        source = kernel_source_for(model)
        alien = KernelArtifact(source=source, magic=b"\x00\x00\x00\x00", bytecode=b"junk")
        blob, _ = model_blob(model, {(): alien})
        restored = worker_model_from_blob(fingerprint, blob)
        compiled, _ = worker_compiled(restored, fingerprint, ())
        # The bytecode is ignored (wrong interpreter magic) but the source
        # still loads, so the kernel is there either way.
        assert compiled.kernel is not None
        assert compiled.kernel.source == source


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
