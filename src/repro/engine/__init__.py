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
* :func:`run_ensemble` / :func:`iter_ensemble` / :func:`map_over_parameters`
  — batch submission with progress and throughput/cache statistics, either
  materialized or streamed one result at a time (``iter_ensemble`` /
  ``reduce=``) with peak memory bounded by the in-flight window; all accept
  ``batch_size=B`` to pack consecutive same-configuration replicates into
  batches (one dispatch, one compile and one compact binary result frame per
  B replicates — bit-identical to ``batch_size=1``);
* :func:`arun_ensemble` / :func:`aiter_ensemble` / :func:`gather_studies` /
  :class:`AsyncEnsembleExecutor` — the asyncio layer: the same batches (and
  bit-identical trajectories) driven from inside an event loop without
  blocking it, including N independent studies multiplexed concurrently over
  one shared warm pool;
* :class:`StudySpec` — the canonical, frozen, JSON-round-trippable request
  object naming one replicate study, consumed identically by the Python API,
  the CLI (``genlogic verify --spec``) and the HTTP service
  (:mod:`repro.service`); its content-addressed :meth:`StudySpec.cache_key`
  is the identity under which the service caches results.

See ``analysis/replicates.py``, ``analysis/sweep.py``,
``analysis/robustness.py`` and ``vlab/propagation.py`` for the studies built
on top, and the CLI's ``--workers`` / ``--replicates`` flags for the
user-facing entry points.
"""

from .aio import (
    AsyncEnsembleExecutor,
    aiter_ensemble,
    arun_ensemble,
    gather_studies,
)
from .api import (
    EnsembleStream,
    iter_ensemble,
    map_over_parameters,
    replicate_jobs,
    run_ensemble,
    run_job,
)
from .spec import STUDY_SPEC_SCHEMA, StudySpec
from .auth import AuthenticationError, ProtocolError, resolve_key
from .backoff import Backoff, BackoffPolicy
from .cache import CompiledModelCache, default_cache, model_fingerprint
from .core import (
    BaseEnsembleExecutor,
    BatchCacheStats,
    ExecutorBackend,
    batch_job_groups,
)
from .distributed import (
    DistributedEnsembleExecutor,
    RemoteWorkerError,
    WorkerConnectionError,
)
from .executors import (
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    get_executor,
)
from .jobs import EnsembleResult, EnsembleStats, SimulationJob
from .supervisor import WorkerSupervisor

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
    "AsyncEnsembleExecutor",
    "get_executor",
    "CompiledModelCache",
    "default_cache",
    "model_fingerprint",
    "run_job",
    "run_ensemble",
    "iter_ensemble",
    "aiter_ensemble",
    "arun_ensemble",
    "gather_studies",
    "EnsembleStream",
    "replicate_jobs",
    "map_over_parameters",
    "batch_job_groups",
]
