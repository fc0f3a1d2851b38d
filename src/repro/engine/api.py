"""Batch submission APIs of the ensemble engine.

Every multi-run study in the package (replicate studies, threshold sweeps,
robustness maps, propagation-delay scans, the CLI's ``--replicates`` modes)
routes its simulations through :func:`run_ensemble` or :func:`iter_ensemble`:

1. the caller builds a list of declarative :class:`SimulationJob` objects —
   typically via :func:`replicate_jobs` (same job, independent seeds);
2. seeds are fanned out deterministically from one root seed *before*
   dispatch, so neither the choice of executor nor the delivery mode can
   change the results;
3. the selected executor runs the batch — serially with a shared
   compiled-model cache, on ``workers=N`` worker processes, or across
   machines on a :class:`~repro.engine.DistributedEnsembleExecutor` — every executor
   drives the one windowed submission loop in :mod:`repro.engine.core` — and
   results are delivered either *materialized* (every trajectory, in
   submission order, inside an :class:`EnsembleResult`) or *streamed* (an
   :class:`EnsembleStream` yielding each run as it completes, or a per-run
   ``reduce`` callback whose summaries replace the trajectories), always with
   throughput/cache statistics.

Executor lifecycle: both entry points accept an ``executor`` you opened
yourself (its worker pool then survives this batch, keeping worker caches
warm for the next one) or create — and afterwards close — an ephemeral one
from ``workers=N``.

Whole studies (rather than raw job batches) are named by the canonical
:class:`~repro.engine.StudySpec` request object (see
:mod:`repro.engine.spec`), which the study APIs, the CLI and the HTTP
service all consume; :data:`StudySpec` is re-exported here for
discoverability next to the batch entry points it drives.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import EngineError
from ..stochastic.rng import RandomState, fan_out_seeds
from ..stochastic.trajectory import Trajectory
from .cache import CompiledModelCache
from .core import BatchCacheStats, ProgressHook, batch_job_groups
from .executors import SerialExecutor, get_executor
from .jobs import EnsembleResult, EnsembleStats, SimulationJob
from .spec import StudySpec

__all__ = [
    "run_job",
    "run_ensemble",
    "iter_ensemble",
    "EnsembleStream",
    "replicate_jobs",
    "StudySpec",
]

#: Per-run reducer for ``run_ensemble(..., reduce=fn)``: called with
#: ``(index, job, trajectory)`` as each run completes; its return value is
#: stored at ``EnsembleResult.reduced[index]`` and the trajectory is dropped.
EnsembleReducer = Callable[[int, SimulationJob, Trajectory], Any]

#: What one iteration of a stream yields: the engine's base streams yield
#: ``(index, job, trajectory)`` triples; a :meth:`EnsembleStream.transform`
#: stream yields whatever its mapping function returns.
StreamItem = TypeVar("StreamItem")

#: Item type of a stream derived through :meth:`EnsembleStream.transform`.
MappedItem = TypeVar("MappedItem")

#: The triple yielded by streams straight out of :func:`iter_ensemble`.
EnsembleItem = Tuple[int, SimulationJob, Trajectory]


class EnsembleStream(Generic[StreamItem]):
    """Iterator over the runs of an executing ensemble.

    Base streams (from :func:`iter_ensemble`) yield ``(index, job,
    trajectory)`` triples as runs complete; a stream derived through
    :meth:`transform` yields the *bare return value* of its mapping function
    instead.  After exhaustion (or :meth:`close`) the batch's
    :class:`EnsembleStats` are available on :attr:`stats`.  Streams are
    single-use and forward-only: each item is handed to the consumer exactly
    once and never retained by the engine, so iterating-and-discarding holds
    O(executor window) trajectories no matter how many runs the batch has.

    Streams over an ephemeral executor (one the engine created from
    ``workers=N``) close it when the stream ends, including on early exit.
    """

    def __init__(self, jobs: List[SimulationJob]):
        self.jobs = jobs
        self._stats: Optional[EnsembleStats] = None
        self._stats_source: Optional["EnsembleStream[Any]"] = None
        self._iterator: Iterator[StreamItem] = iter(())
        #: Finalizer run by close(); covers streams abandoned before their
        #: first result (a never-started generator skips its finally block).
        self._finalizer: Optional[Callable[[], None]] = None

    @property
    def stats(self) -> Optional[EnsembleStats]:
        """Execution statistics — ``None`` until the stream has finished.

        ``wall_seconds`` of a streamed batch is end-to-end delivery time,
        which includes any consumer-side work interleaved between results
        (that interleaving is the point of streaming) — so it is not directly
        comparable to the pure-execution wall time of a materialized batch.
        """
        if self._stats_source is not None:
            return self._stats_source.stats
        return self._stats

    def __iter__(self) -> "EnsembleStream[StreamItem]":
        return self

    def __next__(self) -> StreamItem:
        return next(self._iterator)

    def __len__(self) -> int:
        return len(self.jobs)

    def close(self) -> None:
        """Abandon the stream early (finalizing stats and ephemeral executors)."""
        closer = getattr(self._iterator, "close", None)
        if closer is not None:
            closer()
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "EnsembleStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def transform(
        self,
        fn: Callable[[int, SimulationJob, Trajectory], "MappedItem"],
    ) -> "EnsembleStream[MappedItem]":
        """A derived stream yielding the bare ``fn(index, job, trajectory)`` per run.

        Each iteration of the derived stream produces exactly what ``fn``
        returned — *not* an ``(index, job, trajectory)`` triple — so only
        base streams (whose items are those triples) can be transformed.
        The derived stream shares this stream's job list and statistics;
        closing either one finalizes the underlying execution.
        """
        derived: "EnsembleStream[MappedItem]" = EnsembleStream(self.jobs)
        derived._stats_source = self
        source = self

        def _mapped():
            try:
                for index, job, trajectory in source:
                    yield fn(index, job, trajectory)
            finally:
                source.close()

        derived._iterator = _mapped()
        derived._finalizer = source.close
        return derived


def run_job(
    job: SimulationJob,
    cache: Optional[CompiledModelCache] = None,
) -> Trajectory:
    """Run a single job in-process (the one-run fast path).

    Single runs still go through the compiled-model cache, so e.g. repeated
    :meth:`LogicExperiment.run` calls on the same model compile it once.
    """
    [(_, trajectory)] = SerialExecutor().iter_jobs([job], cache=cache)
    return trajectory


def iter_ensemble(
    jobs: Sequence[SimulationJob],
    *,
    workers: int = 1,
    executor=None,
    cache: Optional[CompiledModelCache] = None,
    progress: Optional[ProgressHook] = None,
    ordered: bool = True,
    batch_size: int = 1,
) -> EnsembleStream:
    """Execute a batch of jobs, streaming each result as it completes.

    The incremental counterpart of :func:`run_ensemble`: returns an
    :class:`EnsembleStream` yielding ``(index, job, trajectory)`` per run, so
    the caller can analyze and discard each trajectory — peak memory is
    bounded by the executor's in-flight window instead of the batch size.

    With ``ordered=True`` (the default) results arrive in submission order;
    ``ordered=False`` delivers them in completion order (lowest latency; the
    index says which job each trajectory belongs to).  Either mode yields
    trajectories bit-identical to the materialized path.  ``executor`` keeps
    its worker pool alive after the stream; an ephemeral executor built from
    ``workers=N`` is closed when the stream ends.

    ``batch_size=B`` packs consecutive same-configuration jobs (a replicate
    fan-out) into groups of up to B replicates per dispatch — results, order
    and bits are unchanged, only dispatch and result-transport overhead is
    amortized ~B×.
    """
    jobs = list(jobs)
    if not jobs:
        raise EngineError("iter_ensemble needs at least one job")
    batch_job_groups(jobs[:1], batch_size)  # a bad batch_size fails before any executor exists
    owns_executor = executor is None
    chosen = executor if executor is not None else get_executor(workers)
    stream: EnsembleStream[EnsembleItem] = EnsembleStream(jobs)
    # This batch's own cache counters: concurrent batches on one shared
    # executor (studies on threads, as the HTTP service runs them) each
    # report their own numbers.
    counter = BatchCacheStats()
    opened = time.perf_counter()

    def _finalize():
        if stream._stats is None:
            stream._stats = EnsembleStats(
                n_jobs=len(jobs),
                executor=chosen.name,
                workers=chosen.workers,
                wall_seconds=time.perf_counter() - opened,
                cache_hits=counter.hits,
                cache_misses=counter.misses,
            )
        if owns_executor:
            chosen.close()

    def _drive():
        try:
            for index, trajectory in chosen.iter_jobs(
                jobs,
                cache=cache,
                progress=progress,
                ordered=ordered,
                batch_stats=counter,
                batch_size=batch_size,
            ):
                yield index, jobs[index], trajectory
        finally:
            _finalize()

    stream._iterator = _drive()
    # close() must finalize even when the stream is abandoned before its
    # first result: closing a never-started generator skips the finally.
    stream._finalizer = _finalize
    return stream


def run_ensemble(
    jobs: Sequence[SimulationJob],
    *,
    workers: int = 1,
    executor=None,
    cache: Optional[CompiledModelCache] = None,
    progress: Optional[ProgressHook] = None,
    reduce: Optional[EnsembleReducer] = None,
    batch_size: int = 1,
) -> EnsembleResult:
    """Execute a batch of jobs and return results plus statistics.

    Parameters
    ----------
    jobs:
        The batch, in the order results should come back.
    workers:
        Parallelism: ``1`` selects the serial executor, ``N > 1`` a pool of
        ``N`` worker processes.  Ignored when ``executor`` is given.
    executor:
        An explicit executor instance (anything with ``iter_jobs``).  Its
        lifecycle belongs to the caller: the worker pool stays open after
        this batch, so the next batch on the same executor hits warm worker
        caches.  Without it, an ephemeral executor is built from ``workers``
        and closed before returning.
    cache:
        Compiled-model cache for in-process execution (defaults to the shared
        process-wide cache).
    progress:
        Hook called after each completed run with ``(done, total, job)``.
    reduce:
        Per-run reducer ``fn(index, job, trajectory) -> summary``.  When
        given, each trajectory is reduced as it completes and dropped, and
        the returned result is *reduced* — ``.reduced[i]`` holds job ``i``'s
        summary, ``.trajectories`` is ``None`` — keeping peak memory
        O(executor window) instead of O(n_jobs).  The reported
        ``wall_seconds`` then covers execution *and* the interleaved reducer
        calls (see :attr:`EnsembleStream.stats`).
    batch_size:
        Pack consecutive same-configuration jobs into groups of up to this
        many replicates per dispatch (default 1: one job per dispatch).
        Purely a dispatch/transport amortization — results stay
        bit-identical and in the same order.

    Both forms collect from the one :func:`iter_ensemble` stream, in
    completion order, into submission-order slots.
    """
    jobs = list(jobs)
    if not jobs:
        raise EngineError("run_ensemble needs at least one job")
    stream = iter_ensemble(
        jobs,
        workers=workers,
        executor=executor,
        cache=cache,
        progress=progress,
        ordered=False,
        batch_size=batch_size,
    )
    results: List[Any] = [None] * len(jobs)
    with stream:
        for index, job, trajectory in stream:
            results[index] = trajectory if reduce is None else reduce(index, job, trajectory)
    if reduce is None:
        return EnsembleResult(jobs=jobs, trajectories=results, stats=stream.stats)
    return EnsembleResult(jobs=jobs, trajectories=None, stats=stream.stats, reduced=results)


def replicate_jobs(
    job: SimulationJob,
    n_replicates: int,
    seed: RandomState = None,
    tags: Optional[Sequence[Any]] = None,
) -> List[SimulationJob]:
    """``n_replicates`` copies of ``job`` with independent fanned-out seeds.

    The fan-out matches :func:`repro.stochastic.spawn_rngs` exactly, so a
    study refactored from a private seed loop onto the engine reproduces its
    historical trajectories bit for bit.  Each clone keeps the template's
    ``tag`` unless explicit per-replicate ``tags`` are given (``meta`` is
    always preserved); the replicate index is the job's position in the
    returned list.
    """
    if n_replicates < 1:
        raise EngineError("replicate_jobs needs at least one replicate")
    if tags is not None and len(tags) != n_replicates:
        raise EngineError("tags must have one entry per replicate")
    seeds = fan_out_seeds(seed, n_replicates)
    clones: List[SimulationJob] = []
    for index, child in enumerate(seeds):
        clones.append(
            SimulationJob(
                model=job.model,
                t_end=job.t_end,
                simulator=job.simulator,
                schedule=job.schedule,
                sample_interval=job.sample_interval,
                parameter_overrides=job.parameter_overrides,
                initial_state=job.initial_state,
                record_species=job.record_species,
                seed=child,
                tag=tags[index] if tags is not None else job.tag,
                meta=job.meta,
            ),
        )
    return clones

