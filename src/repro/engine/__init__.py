"""Unified ensemble execution engine.

One batched, parallel, cache-aware run path for every multi-run study in the
package.  The paper's throughput argument (seconds of analysis instead of
hours of wet-lab work) rests on running *many* independent stochastic
simulations cheaply; this subsystem is where they all execute:

* :class:`SimulationJob` / :class:`EnsembleResult` — declarative job specs
  and ordered result containers;
* :mod:`repro.engine.core` — the transport-agnostic submission core: ONE
  windowed submission loop (:func:`iter_windowed`) with ordered/completion
  delivery, cancel-on-failure and per-batch statistics, driven through the
  narrow :class:`ExecutorBackend` protocol so every transport shares it;
* :class:`SerialExecutor` / :class:`ProcessPoolEnsembleExecutor` /
  :class:`DistributedEnsembleExecutor` — pluggable context-managed executors
  (thin transport adapters over the core) selected by ``workers=N`` or built
  explicitly, bit-identical by construction because seeds are fanned out from
  one root ``SeedSequence`` before dispatch; pool and distributed executors
  keep one live transport per instance, reused across batches until
  ``close()``; the distributed executor shards batches across
  ``genlogic worker`` processes on any number of machines over TCP;
* :class:`CompiledModelCache` — compile each ``(model, overrides)`` pair
  once per study instead of once per run (worker-side caches stay warm
  across the batches of a persistent pool);
* :func:`run_ensemble` / :func:`iter_ensemble` — batch submission with
  progress and throughput/cache statistics, either materialized or streamed
  one result at a time (``iter_ensemble`` / ``reduce=``) with peak memory
  bounded by the in-flight window; both run every job list as groups of up
  to ``batch_size=B`` consecutive same-configuration replicates (one
  dispatch, one compile and one compact binary result frame per group;
  ``batch_size=1`` means groups of one, and results are bit-identical at
  any size);
* :class:`StudySpec` — the canonical, frozen, JSON-round-trippable request
  object naming one replicate study, consumed identically by the Python API,
  the CLI (``genlogic verify --spec``) and the HTTP service
  (:mod:`repro.service`); its content-addressed :meth:`StudySpec.cache_key`
  is the identity under which the service caches results.  An event loop
  runs a study with ``await asyncio.to_thread(run_replicate_study, spec,
  executor=ex)``; several such studies share one executor, each counting its
  own cache statistics.

See ``analysis/replicates.py``, ``analysis/sweep.py``,
``analysis/robustness.py`` and ``vlab/propagation.py`` for the studies built
on top, and the CLI's ``--workers`` / ``--replicates`` flags for the
user-facing entry points.
"""

from .._lazy import lazy_exports

__all__ = [
    "STUDY_SPEC_SCHEMA",
    "StudySpec",
    "SimulationJob",
    "EnsembleResult",
    "EnsembleStats",
    "BatchCacheStats",
    "ExecutorBackend",
    "BaseEnsembleExecutor",
    "SerialExecutor",
    "ProcessPoolEnsembleExecutor",
    "DistributedEnsembleExecutor",
    "RemoteWorkerError",
    "WorkerConnectionError",
    "AuthenticationError",
    "ProtocolError",
    "resolve_key",
    "Backoff",
    "BackoffPolicy",
    "WorkerSupervisor",
    "get_executor",
    "CompiledModelCache",
    "default_cache",
    "model_fingerprint",
    "run_job",
    "run_ensemble",
    "iter_ensemble",
    "EnsembleStream",
    "replicate_jobs",
    "batch_job_groups",
]

#: The submodule that defines each re-exported name, imported the first
#: time ``repro.engine.X`` is read.
_EXPORTS = {
    "EnsembleStream": "api",
    "iter_ensemble": "api",
    "replicate_jobs": "api",
    "run_ensemble": "api",
    "run_job": "api",
    "STUDY_SPEC_SCHEMA": "spec",
    "StudySpec": "spec",
    "AuthenticationError": "auth",
    "ProtocolError": "auth",
    "resolve_key": "auth",
    "Backoff": "backoff",
    "BackoffPolicy": "backoff",
    "CompiledModelCache": "cache",
    "default_cache": "cache",
    "model_fingerprint": "cache",
    "BaseEnsembleExecutor": "core",
    "BatchCacheStats": "core",
    "ExecutorBackend": "core",
    "batch_job_groups": "core",
    "DistributedEnsembleExecutor": "distributed",
    "RemoteWorkerError": "distributed",
    "WorkerConnectionError": "distributed",
    "ProcessPoolEnsembleExecutor": "executors",
    "SerialExecutor": "executors",
    "get_executor": "executors",
    "EnsembleResult": "jobs",
    "EnsembleStats": "jobs",
    "SimulationJob": "jobs",
    "WorkerSupervisor": "supervisor",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
