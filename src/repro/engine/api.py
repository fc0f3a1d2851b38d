"""Batch submission APIs of the ensemble engine.

Every multi-run study in the package (replicate studies, threshold sweeps,
robustness maps, propagation-delay scans, the CLI's ``--replicates`` modes)
routes its simulations through :func:`run_ensemble` or :func:`iter_ensemble`:

1. the caller builds a list of declarative :class:`SimulationJob` objects —
   typically via :func:`replicate_jobs` (same job, independent seeds) or
   :func:`map_over_parameters` (one job per parameter-override set);
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
    Dict,
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
from .cache import CompiledModelCache, default_cache
from .core import BatchCacheStats, ProgressHook
from .executors import SerialExecutor, get_executor
from .jobs import EnsembleResult, EnsembleStats, SimulationJob
from .spec import StudySpec

__all__ = [
    "run_job",
    "run_ensemble",
    "iter_ensemble",
    "EnsembleStream",
    "replicate_jobs",
    "map_over_parameters",
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
    return SerialExecutor().run_jobs([job], cache=cache)[0]


def _batch_stats(
    chosen,
    n_jobs: int,
    wall: float,
    cache: CompiledModelCache,
    hits_before: int,
    misses_before: int,
    counter: Optional[BatchCacheStats] = None,
) -> EnsembleStats:
    """Assemble the statistics of one executed batch.

    The engine's own executors count each batch's cache hits/misses into a
    per-batch ``counter``, so concurrent batches on one shared executor (the
    :func:`repro.engine.gather_studies` pattern) report their own numbers.
    Third-party executors fall back to the legacy executor-global snapshot
    (``last_cache_hits``) or, failing that, the in-process cache delta.
    """
    if counter is not None:
        cache_hits = counter.hits
        cache_misses = counter.misses
    elif hasattr(chosen, "last_cache_hits"):
        cache_hits = chosen.last_cache_hits
        cache_misses = chosen.last_cache_misses
    else:
        cache_hits = cache.hits - hits_before
        cache_misses = cache.misses - misses_before
    return EnsembleStats(
        n_jobs=n_jobs,
        executor=getattr(chosen, "name", type(chosen).__name__),
        workers=getattr(chosen, "workers", 1),
        wall_seconds=wall,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


def _batching_kwargs(chosen, batch_size: Optional[int]) -> Dict[str, int]:
    """``{"batch_size": B}`` when batching is requested and supported.

    ``batch_size=1`` (the default) adds nothing, so third-party executors
    without the keyword keep working; asking for ``B > 1`` on an executor
    that cannot batch is an error rather than a silent slowdown.
    """
    size = 1 if batch_size is None else int(batch_size)
    if size < 1:
        raise EngineError("batch_size must be a positive integer")
    if size == 1:
        return {}
    if not getattr(chosen, "supports_job_batching", False):
        raise EngineError(
            f"executor {getattr(chosen, 'name', type(chosen).__name__)!r} does not "
            "support batch_size > 1",
        )
    return {"batch_size": size}


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
    fan-out) into batches of up to B replicates per dispatch —
    results, order and bits are unchanged, only dispatch and result-transport
    overhead is amortized ~B×.
    """
    jobs = list(jobs)
    if not jobs:
        raise EngineError("iter_ensemble needs at least one job")
    owns_executor = executor is None
    chosen = executor if executor is not None else get_executor(workers)
    cache = cache if cache is not None else default_cache()
    stream: EnsembleStream[EnsembleItem] = EnsembleStream(jobs)
    counter = BatchCacheStats() if getattr(chosen, "supports_batch_stats", False) else None
    iter_kwargs: Dict[str, Any] = {} if counter is None else {"batch_stats": counter}
    iter_kwargs.update(_batching_kwargs(chosen, batch_size))
    hits_before, misses_before = cache.hits, cache.misses
    opened = time.perf_counter()

    def _finalize():
        if stream._stats is None:
            wall = time.perf_counter() - opened
            stream._stats = _batch_stats(
                chosen,
                len(jobs),
                wall,
                cache,
                hits_before,
                misses_before,
                counter=counter,
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
                **iter_kwargs,
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
        An explicit executor instance (anything with ``run_jobs`` /
        ``iter_jobs``).  Its lifecycle belongs to the caller: the worker pool
        stays open after this batch, so the next batch on the same executor
        hits warm worker caches.  Without it, an ephemeral executor is built
        from ``workers`` and closed before returning.
    cache:
        Compiled-model cache for in-process execution (defaults to the shared
        process-wide cache).
    progress:
        Hook called after each completed run with ``(done, total, job)``.
    reduce:
        Per-run reducer ``fn(index, job, trajectory) -> summary``.  When
        given, execution streams: each trajectory is reduced as it completes
        and dropped, and the returned result is *reduced* — ``.reduced[i]``
        holds job ``i``'s summary, ``.trajectories`` is ``None`` — keeping
        peak memory O(executor window) instead of O(n_jobs).  The reported
        ``wall_seconds`` then covers execution *and* the interleaved reducer
        calls (see :attr:`EnsembleStream.stats`).
    batch_size:
        Pack consecutive same-configuration jobs into batches of up to
        this many replicates per dispatch (default 1: one job per
        dispatch).  Purely a dispatch/transport amortization — results stay
        bit-identical and in the same order.
    """
    jobs = list(jobs)
    if not jobs:
        raise EngineError("run_ensemble needs at least one job")
    if reduce is not None:
        stream = iter_ensemble(
            jobs,
            workers=workers,
            executor=executor,
            cache=cache,
            progress=progress,
            ordered=False,
            batch_size=batch_size,
        )
        reduced: List[Any] = [None] * len(jobs)
        with stream:
            for index, job, trajectory in stream:
                reduced[index] = reduce(index, job, trajectory)
        return EnsembleResult(
            jobs=jobs,
            trajectories=None,
            stats=stream.stats,
            reduced=reduced,
        )
    owns_executor = executor is None
    chosen = executor if executor is not None else get_executor(workers)
    cache = cache if cache is not None else default_cache()
    counter = BatchCacheStats() if getattr(chosen, "supports_batch_stats", False) else None
    run_kwargs: Dict[str, Any] = {} if counter is None else {"batch_stats": counter}
    run_kwargs.update(_batching_kwargs(chosen, batch_size))
    hits_before, misses_before = cache.hits, cache.misses
    started = time.perf_counter()
    try:
        trajectories = chosen.run_jobs(jobs, cache=cache, progress=progress, **run_kwargs)
    finally:
        if owns_executor:
            chosen.close()
    wall = time.perf_counter() - started
    stats = _batch_stats(
        chosen,
        len(jobs),
        wall,
        cache,
        hits_before,
        misses_before,
        counter=counter,
    )
    return EnsembleResult(jobs=jobs, trajectories=trajectories, stats=stats)


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


def map_over_parameters(
    job: SimulationJob,
    parameter_grid: Sequence[Dict[str, float]],
    *,
    seed: RandomState = None,
    workers: int = 1,
    executor=None,
    cache: Optional[CompiledModelCache] = None,
    progress: Optional[ProgressHook] = None,
    reduce: Optional[EnsembleReducer] = None,
    batch_size: int = 1,
) -> EnsembleResult:
    """Run ``job`` once per parameter-override set in ``parameter_grid``.

    Each entry of the grid is merged over the template job's own overrides and
    becomes that run's compiled-model cache key, so sweeping a parameter
    compiles each distinct override set once.  Every run gets an independent
    seed fanned out from ``seed``; each job is tagged with its grid entry.
    ``executor`` and ``reduce`` behave exactly as in :func:`run_ensemble`:
    an opened executor keeps its (warm) worker pool across sweeps, and a
    reducer streams the sweep, keeping per-run summaries instead of
    trajectories.  ``batch_size`` is forwarded too, though a sweep rarely
    benefits: grid entries differ in overrides, and only *consecutive
    same-configuration* jobs pack into one batch.
    """
    grid = [dict(entry) for entry in parameter_grid]
    if not grid:
        raise EngineError("map_over_parameters needs a non-empty parameter grid")
    seeds = fan_out_seeds(seed, len(grid))
    jobs: List[SimulationJob] = []
    for entry, child in zip(grid, seeds):
        overrides = dict(job.parameter_overrides or {})
        overrides.update(entry)
        jobs.append(
            SimulationJob(
                model=job.model,
                t_end=job.t_end,
                simulator=job.simulator,
                schedule=job.schedule,
                sample_interval=job.sample_interval,
                parameter_overrides=overrides or None,
                initial_state=job.initial_state,
                record_species=job.record_species,
                seed=child,
                tag=entry,
                meta=job.meta,
            ),
        )
    return run_ensemble(
        jobs,
        workers=workers,
        executor=executor,
        cache=cache,
        progress=progress,
        reduce=reduce,
        batch_size=batch_size,
    )
