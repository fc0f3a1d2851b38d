"""Transport-agnostic submission core of the ensemble engine.

Every executor in the engine — serial, process pool, socket-distributed, and
the asyncio facade over any of them — used to carry its own copy of the same
orchestration logic: windowed submission (at most ``2 * capacity`` undelivered
results in flight), ordered-vs-completion-order delivery, cancel-on-failure,
per-batch :class:`BatchCacheStats`, and the model-blob + kernel-artifact
payload envelope with its repeat-blob fast path.  This module is where all of
that now lives, exactly once:

* :class:`ExecutorBackend` — the narrow transport protocol a backend has to
  implement: ``submit(fn, payload) -> Future``, ``wait_any``, a ``capacity``,
  and an ``open``/``close`` lifecycle.  Everything else is shared.
* :func:`iter_windowed` — THE windowed submission loop.  Each backend brings
  only its transport; the window accounting, delivery buffering, progress
  hooks and cancel-on-exit semantics are identical for every transport.
* :func:`job_payloads` / :func:`simulate_payload` — the declarative worker
  envelope (pickled model blob keyed on a content fingerprint, plus the
  generated propensity-kernel artifact per ``(model, overrides)`` pair) and
  its remote entry point, shared verbatim by pool workers and socket workers
  so both populate the same worker-side fingerprint seen-set.
* :class:`BaseEnsembleExecutor` — the public executor surface (``iter_jobs``
  / ``run_jobs`` / ``map`` / context-managed lifecycle) expressed once over
  the protocol; concrete executors subclass it and implement transport only.

Determinism contract: the core never *creates* randomness.  Every job arrives
with its seed already fanned out from the root seed, so any two backends —
and the streamed, materialized, sync and async delivery modes — produce
bit-identical trajectories for the same job list.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from ..errors import EngineError
from ..stochastic import resolve_simulator
from ..stochastic.batch import simulate_ssa_batch
from ..stochastic.codegen import BACKEND_CODEGEN, default_backend
from ..stochastic.trajectory import Trajectory, decode_trajectories, encode_trajectories
from .cache import (
    CompiledModelCache,
    kernel_artifact_for_blob,
    model_blob,
    register_worker_kernel,
    worker_compiled,
    worker_model_from_blob,
)
from .jobs import SimulationJob

__all__ = [
    "ProgressHook",
    "BatchCacheStats",
    "ExecutorBackend",
    "BaseEnsembleExecutor",
    "iter_windowed",
    "submission_window",
    "job_payloads",
    "simulate_payload",
    "batch_job_groups",
    "batch_job_payloads",
    "simulate_batch_payload",
]

#: Called after each completed run.  ``executor.map`` hooks receive
#: ``(done_count, total, payload_index)``; ``run_jobs`` / ``iter_jobs`` hooks
#: receive ``(done_count, total, job)``.
ProgressHook = Callable[[int, int, Any], None]


@dataclass
class BatchCacheStats:
    """Compiled-model cache counters of ONE batch iteration.

    Each ``iter_jobs`` / ``run_jobs`` call accumulates into its own instance,
    so concurrent batches on a shared executor (e.g. several studies
    multiplexed over one pool by :func:`repro.engine.gather_studies`) cannot
    clobber each other's statistics.  The executor-global
    ``last_cache_hits`` / ``last_cache_misses`` attributes survive only as a
    snapshot of the most recently *finished* batch.
    """

    hits: int = 0
    misses: int = 0

    def record(self, cache_hit: bool) -> None:
        if cache_hit:
            self.hits += 1
        else:
            self.misses += 1


@runtime_checkable
class ExecutorBackend(Protocol):
    """The transport half of an executor: what :func:`iter_windowed` drives.

    A backend is *only* responsible for moving one callable-plus-payload to
    wherever it executes and exposing the result as a
    :class:`concurrent.futures.Future`.  Windowing, delivery order, progress,
    statistics and cancellation policy belong to the shared core — a new
    transport (a socket fabric, an SSH fan-out, a batch queue) implements
    these four methods plus ``capacity`` and inherits the rest.
    """

    #: Human-readable transport name (lands in :class:`EnsembleStats`).
    name: str

    @property
    def capacity(self) -> int:
        """Parallel slots available now; the in-flight window is twice this.

        May change between waits (a distributed backend grows when workers
        join), so the core re-reads it every scheduling round.
        """
        ...

    def open(self) -> None:
        """Acquire transport resources (idempotent; called before first submit)."""
        ...

    def close(self) -> None:
        """Release transport resources (idempotent)."""
        ...

    def submit(self, fn: Callable[[Any], Any], payload: Any) -> "concurrent.futures.Future":
        """Dispatch one call; the returned future resolves to ``fn(payload)``."""
        ...

    def wait_any(
        self,
        pending: Mapping["concurrent.futures.Future", int],
    ) -> Collection["concurrent.futures.Future"]:
        """Block until at least one of ``pending`` (future -> submission index,
        in submission order) is done, and return the completed futures."""
        ...


def submission_window(capacity: int) -> int:
    """In-flight budget for a backend: ``2 * capacity``, never below one.

    Twice the parallel slots keeps every slot busy while the previous result
    travels back, without letting a long batch pile onto the transport queue
    — the bound that makes streamed parents hold O(capacity) trajectories.
    """
    return max(1, 2 * int(capacity))


def iter_windowed(
    backend: ExecutorBackend,
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    ordered: bool = True,
    progress: Optional[ProgressHook] = None,
    items: Optional[Sequence[Any]] = None,
    weights: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[int, Any]]:
    """THE windowed submission loop, yielding ``(index, result)`` per payload.

    This is the one implementation behind every executor's ``iter_jobs`` and
    ``map``: at most ``submission_window(backend.capacity)`` submitted-but-
    undelivered results exist at any moment, later payloads are dispatched
    only as earlier results are consumed, and delivery is either submission
    order (``ordered=True``, completed-out-of-order results are buffered and
    count against the window) or completion order.  ``progress`` fires at
    completion time with ``(done, total, items[index])`` — ``items`` defaults
    to the payload index, which is the ``map`` contract.

    ``weights`` makes the window count *work units* instead of payloads: a
    batch payload carrying B replicates weighs B, so the in-flight bound
    stays "at most ``2 * capacity`` undelivered *runs*" regardless of how
    runs are packed into frames.  Submission stops while the summed weight of
    pending-plus-buffered payloads meets the window (a single over-weight
    payload still submits alone rather than deadlocking).

    Failure and abandonment semantics: a payload whose future raises
    propagates its exception to the consumer, and the ``finally`` below
    cancels every still-pending future — whether the loop ended by
    exhaustion, by a raising payload, or by the consumer closing the
    generator mid-stream, the backend is never left grinding through work
    nobody will collect.
    """
    payloads = list(payloads)
    total = len(payloads)
    if total == 0:
        return
    weight = [1] * total if weights is None else [max(1, int(w)) for w in weights]
    if len(weight) != total:
        raise EngineError(f"{len(weight)} weights for {total} payloads")
    backend.open()
    pending: Dict[concurrent.futures.Future, int] = {}
    buffered: Dict[int, Any] = {}
    in_flight = 0  # summed weight of pending + (ordered) buffered payloads
    next_submit = 0
    next_yield = 0
    done = 0
    try:
        while next_submit < total or pending or buffered:
            # Capacity is re-read every round: a distributed backend's window
            # widens as workers join and narrows when they are lost.
            window = submission_window(backend.capacity)
            while next_submit < total and in_flight < window:
                future = backend.submit(fn, payloads[next_submit])
                pending[future] = next_submit
                in_flight += weight[next_submit]
                next_submit += 1
            if pending:
                completed = backend.wait_any(pending)
                for future in completed:
                    index = pending.pop(future)
                    result = future.result()
                    done += 1
                    if progress is not None:
                        progress(done, total, items[index] if items is not None else index)
                    if ordered:
                        buffered[index] = result
                    else:
                        in_flight -= weight[index]
                        yield index, result
            if ordered:
                # The smallest unyielded index is always submitted (payloads
                # are dispatched in order), so this drain cannot starve.
                while next_yield in buffered:
                    in_flight -= weight[next_yield]
                    yield next_yield, buffered.pop(next_yield)
                    next_yield += 1
    finally:
        for future in pending:
            future.cancel()


def job_payloads(jobs: Sequence[SimulationJob]) -> List[Dict[str, Any]]:
    """Declarative worker payloads, with one pickled blob per distinct model.

    The blob is serialized once per distinct model and shared by every
    payload referencing it, so per-job submission pays a bytes copy rather
    than re-pickling the model object graph.  With the codegen backend
    active, each payload also carries the generated propensity-kernel
    artifact for *its own* ``(model, overrides)`` pair (not the whole batch's
    override grid — that would make sweep IPC quadratic): the worker
    ``exec``'s the shipped module instead of re-compiling kinetic-law ASTs on
    its first job.  Pool workers and socket workers receive exactly this
    envelope, so both share the fingerprint seen-set fast path.
    """
    ship_kernels = default_backend() == BACKEND_CODEGEN
    blobs: Dict[int, Tuple[bytes, str]] = {}
    kernels: Dict[Tuple[int, Tuple], Any] = {}
    payloads = []
    for job in jobs:
        if isinstance(job.seed, np.random.Generator):
            raise EngineError(
                "jobs dispatched to worker processes need picklable seeds "
                "(None, int or SeedSequence), not a live Generator; fan the "
                "root seed out with repro.stochastic.fan_out_seeds first",
            )
        key = id(job.model)
        if key not in blobs:
            blobs[key] = model_blob(job.model)
        blob, fingerprint = blobs[key]
        frozen = job.frozen_overrides()
        kernel = None
        if ship_kernels:
            kernel_key = (key, frozen)
            if kernel_key not in kernels:
                try:
                    kernels[kernel_key] = kernel_artifact_for_blob(
                        job.model,
                        fingerprint,
                        frozen,
                    )
                except Exception:
                    # Codegen failures are not fatal at dispatch time: the
                    # worker falls back to an AST compile, which surfaces any
                    # real model error where it always did.
                    kernels[kernel_key] = None
            kernel = kernels[kernel_key]
        payloads.append(
            {
                "fingerprint": fingerprint,
                "model_blob": blob,
                "overrides": frozen,
                "simulator": job.simulator,
                "t_end": job.t_end,
                "seed": job.seed,
                "kwargs": job.simulate_kwargs(),
                "kernel": kernel,
            },
        )
    return payloads


def simulate_payload(payload: Dict[str, Any]) -> Tuple[Trajectory, bool]:
    """Execute one declarative simulation payload (remote-side entry point).

    The payload is a plain dict (not a :class:`SimulationJob`) so the worker
    does not re-validate the job.  It carries the pickled model together with
    a parent-computed content fingerprint; the worker deserializes each
    fingerprint once, so each distinct model unpickles and compiles once per
    worker process regardless of how many jobs or batches reference it.
    Returns ``(trajectory, cache_hit)``; the hit flag lets the parent
    aggregate worker-side cache statistics.  Pool workers call this through
    pickled-by-reference function dispatch and socket workers through the
    wire protocol — one entry point, one seen-set, one cache discipline.
    """
    fingerprint = payload["fingerprint"]
    model = worker_model_from_blob(fingerprint, payload["model_blob"])
    overrides = payload.get("overrides", ())
    register_worker_kernel(fingerprint, overrides, payload.get("kernel"))
    compiled, cache_hit = worker_compiled(model, fingerprint, overrides)
    simulate = resolve_simulator(payload["simulator"])
    trajectory = simulate(
        compiled,
        payload["t_end"],
        rng=payload["seed"],
        **payload["kwargs"],
    )
    return trajectory, cache_hit


# -- batch payloads --------------------------------------------------------------
#
# With ``batch_size > 1`` the engine packs consecutive jobs that share one
# simulation configuration (same model, overrides, simulator, schedule and
# sampling) into one *batch payload*: the worker runs the B replicates one by
# one on one compiled model and one sample grid (``repro.stochastic.batch``)
# and returns one compact binary frame instead of B pickled trajectories.
# Dispatch overhead and result framing are paid once per batch, which is the
# whole point; per-replicate seeds are still fanned out by the parent, so
# every replicate stays bit-identical to its serial ``batch_size=1`` run.


def _batch_config_key(job: SimulationJob) -> Tuple:
    """Everything replicates must share to run in one batch."""
    initial = tuple(sorted(job.initial_state.items())) if job.initial_state else None
    record = tuple(job.record_species) if job.record_species is not None else None
    return (
        id(job.model),
        job.frozen_overrides(),
        job.simulator,
        float(job.t_end),
        # InputSchedule has no value equality; replicate_jobs clones share
        # the schedule object, which is exactly the batchable case.
        id(job.schedule) if job.schedule is not None else None,
        float(job.sample_interval),
        initial,
        record,
    )


def batch_job_groups(jobs: Sequence[SimulationJob], batch_size: int) -> List[List[int]]:
    """Pack job indices into batches of at most ``batch_size``.

    Only *consecutive* jobs sharing one configuration (same model, overrides,
    simulator, ``t_end``, schedule object, sampling and recording) batch
    together — submission order, and therefore ordered delivery, is
    preserved.  A replicate fan-out becomes ``ceil(n / batch_size)`` groups
    (the remainder group is simply smaller); a parameter sweep degenerates to
    singleton groups, which run exactly like ``batch_size=1``.
    """
    batch_size = int(batch_size)
    if batch_size < 1:
        raise EngineError("batch_size must be a positive integer")
    groups: List[List[int]] = []
    current: List[int] = []
    current_key: Optional[Tuple] = None
    for index, job in enumerate(jobs):
        key = _batch_config_key(job)
        if current and (key != current_key or len(current) >= batch_size):
            groups.append(current)
            current = []
        current.append(index)
        current_key = key
    if current:
        groups.append(current)
    return groups


def batch_job_payloads(
    jobs: Sequence[SimulationJob],
    groups: Sequence[Sequence[int]],
) -> List[Dict[str, Any]]:
    """One declarative batch payload per group (model blob + seed list).

    The payload is the single-job envelope of :func:`job_payloads` with the
    scalar ``seed`` replaced by the group's ``seeds`` list.
    """
    for job in jobs:
        if isinstance(job.seed, np.random.Generator):
            raise EngineError(
                "jobs dispatched to worker processes need picklable seeds "
                "(None, int or SeedSequence), not a live Generator; fan the "
                "root seed out with repro.stochastic.fan_out_seeds first",
            )
    payloads = job_payloads([jobs[group[0]] for group in groups])
    for payload, group in zip(payloads, groups):
        del payload["seed"]
        payload["seeds"] = [jobs[index].seed for index in group]
    return payloads


def simulate_batch_payload(payload: Dict[str, Any]) -> Tuple[bytes, bool]:
    """Execute one batch payload (remote-side entry point).

    The SSA runs its replicates through
    :func:`repro.stochastic.batch.simulate_ssa_batch` on one shared sample
    grid; other simulators run their replicates one after another inside the
    one dispatch.  Returns ``(frame, cache_hit)``: the replicates as one
    :func:`~repro.stochastic.trajectory.encode_trajectories` frame, which
    rides the transport's ordinary result path — the pool's result pipe or
    the fabric's result message — and decodes with
    :func:`~repro.stochastic.trajectory.decode_trajectories`.
    """
    fingerprint = payload["fingerprint"]
    model = worker_model_from_blob(fingerprint, payload["model_blob"])
    overrides = payload.get("overrides", ())
    register_worker_kernel(fingerprint, overrides, payload.get("kernel"))
    compiled, cache_hit = worker_compiled(model, fingerprint, overrides)
    seeds = payload["seeds"]
    kwargs = payload["kwargs"]
    if payload["simulator"] == "ssa":
        trajectories = simulate_ssa_batch(compiled, payload["t_end"], seeds, **kwargs)
    else:
        simulate = resolve_simulator(payload["simulator"])
        trajectories = [
            simulate(compiled, payload["t_end"], rng=seed, **kwargs) for seed in seeds
        ]
    return encode_trajectories(trajectories), cache_hit


class BaseEnsembleExecutor:
    """Shared orchestration surface of every executor; transport left abstract.

    Subclasses implement the :class:`ExecutorBackend` protocol (``submit`` /
    ``wait_any`` / ``capacity`` / ``open`` / ``close``) plus one hook —
    :meth:`_job_submissions`, choosing between in-process execution and the
    shipped payload envelope — and inherit ``iter_jobs`` / ``run_jobs`` /
    ``map``, the context-manager lifecycle, and the per-batch statistics
    discipline from here.  That inheritance is the refactor's point: the
    windowed loop exists once, in :func:`iter_windowed`, and a new transport
    cannot accidentally fork its semantics.
    """

    name = "backend"
    #: Parallelism reported in :class:`EnsembleStats` (subclasses override).
    workers = 1
    #: This executor's ``iter_jobs`` / ``run_jobs`` accept a per-batch
    #: :class:`BatchCacheStats` sink (see that class for why).
    supports_batch_stats = True
    #: This executor's ``iter_jobs`` / ``run_jobs`` accept ``batch_size``.
    supports_job_batching = True

    # -- transport protocol (ExecutorBackend) — subclasses implement ---------------
    @property
    def capacity(self) -> int:
        """Parallel slots available now (defaults to the nominal worker count)."""
        return self.workers

    def open(self):
        """Acquire transport resources; returns ``self`` for chaining."""
        return self

    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def submit(self, fn, payload) -> "concurrent.futures.Future":
        raise NotImplementedError

    def wait_any(self, pending):
        """Default for transports whose futures complete on their own (a pool
        or an I/O thread resolves them): block on the first completion.  A
        lazy transport, where waiting is what *runs* the work, overrides."""
        done, _ = concurrent.futures.wait(
            pending,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        return done

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared orchestration -------------------------------------------------------
    def _job_submissions(
        self,
        jobs: Sequence[SimulationJob],
        cache: Optional[CompiledModelCache],
    ) -> Tuple[Callable[[Any], Tuple[Trajectory, bool]], Sequence[Any]]:
        """``(fn, payloads)`` executing this batch's jobs on this transport.

        Remote transports ship :func:`simulate_payload` over declarative
        :func:`job_payloads` envelopes (the default).  The serial executor
        overrides this to run jobs in-process against the shared
        compiled-model ``cache``.  Either way ``fn(payload)`` returns
        ``(trajectory, cache_hit)``.
        """
        return simulate_payload, job_payloads(jobs)

    def _batch_submissions(
        self,
        jobs: Sequence[SimulationJob],
        cache: Optional[CompiledModelCache],
        batch_size: int,
    ) -> Tuple[Callable[[Any], Tuple[Any, bool]], Sequence[Any], List[List[int]]]:
        """``(fn, payloads, groups)`` for a batched submission.

        ``fn(payload)`` returns ``(result, cache_hit)`` where the result holds
        one trajectory per job index in the matching group.  The default ships
        :func:`simulate_batch_payload` envelopes, whose result is one binary
        frame; the serial executor overrides to run batches in-process against
        the shared ``cache`` and returns the trajectory list itself.
        """
        groups = batch_job_groups(jobs, batch_size)
        return simulate_batch_payload, batch_job_payloads(jobs, groups), groups

    def _record_last_stats(self, stats: BatchCacheStats) -> None:
        """Snapshot hook for the legacy ``last_cache_hits/misses`` attributes."""

    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        progress: Optional[ProgressHook] = None,
    ) -> List[Any]:
        """Apply ``fn`` across the transport, preserving payload order.

        Submission is windowed exactly like :meth:`iter_jobs` — at most
        ``2 * capacity`` payloads pending at any moment — and a raising
        payload cancels the remaining queued payloads before the exception
        propagates: a failed batch does not leave the transport grinding
        through work nobody will collect.
        """
        payloads = list(payloads)
        results: List[Any] = [None] * len(payloads)
        for index, value in iter_windowed(
            self,
            fn,
            payloads,
            ordered=False,
            progress=progress,
        ):
            results[index] = value
        return results

    def iter_jobs(
        self,
        jobs: Sequence[SimulationJob],
        cache: Optional[CompiledModelCache] = None,
        progress: Optional[ProgressHook] = None,
        ordered: bool = True,
        batch_stats: Optional[BatchCacheStats] = None,
        batch_size: int = 1,
    ) -> Iterator[Tuple[int, Trajectory]]:
        """Yield ``(index, trajectory)`` pairs as runs complete.

        With ``ordered=True`` (the default) results are delivered in
        submission order; ``ordered=False`` delivers them in completion order
        for minimum latency.  Either way at most ``2 * capacity`` results are
        submitted-but-unconsumed at any moment — later jobs are only
        dispatched as earlier results are yielded, so the parent's peak
        trajectory memory is bounded by the window, not by ``len(jobs)``.

        ``batch_size=B`` packs consecutive same-configuration jobs into
        batch payloads of up to B replicates (see
        :func:`batch_job_groups`); yielded pairs, delivery order and
        bit-identity are unchanged — batching is purely a dispatch/transport
        amortization, and the window counts replicates, not payloads.

        Cache hits/misses accumulate into ``batch_stats`` (this batch's own
        counter, so concurrent batches on one shared executor never clobber
        each other); when the batch finishes — or is abandoned via generator
        ``close()`` — its totals are snapshotted through
        :meth:`_record_last_stats`.  ``cache`` is used only by in-process
        transports (remote workers keep their own caches).
        """
        jobs = list(jobs)
        stats = batch_stats if batch_stats is not None else BatchCacheStats()
        if not jobs:
            return
        size = 1 if batch_size is None else int(batch_size)
        if size < 1:
            raise EngineError("batch_size must be a positive integer")
        if size > 1:
            inner = self._iter_jobs_batched(jobs, cache, progress, ordered, stats, size)
        else:
            inner = self._iter_jobs_single(jobs, cache, progress, ordered, stats)
        try:
            yield from inner
        finally:
            # Legacy snapshot of the batch that finished (or was abandoned)
            # last; concurrent batches should read their own ``batch_stats``.
            self._record_last_stats(stats)

    def _iter_jobs_single(self, jobs, cache, progress, ordered, stats):
        """The one-payload-per-job path (``batch_size=1``; today's behaviour)."""
        fn, payloads = self._job_submissions(jobs, cache)
        for index, (trajectory, cache_hit) in iter_windowed(
            self,
            fn,
            payloads,
            ordered=ordered,
            progress=progress,
            items=jobs,
        ):
            stats.record(cache_hit)
            yield index, trajectory

    def _iter_jobs_batched(self, jobs, cache, progress, ordered, stats, batch_size):
        """The batched path: one payload per group, decoded back to per-job yields.

        Statistics discipline: the worker reports one compile-cache flag per
        batch (its first replicate); the remaining ``B - 1`` replicates reuse
        that compiled model by construction and are recorded as hits, so
        ``hits + misses == len(jobs)`` holds exactly as at ``batch_size=1``.
        """
        fn, payloads, groups = self._batch_submissions(jobs, cache, batch_size)
        hook = None
        if progress is not None:
            total_jobs = len(jobs)
            done_jobs = [0]

            def hook(done, total, group):
                done_jobs[0] += len(group)
                progress(done_jobs[0], total_jobs, jobs[group[-1]])

        for payload_index, (result, cache_hit) in iter_windowed(
            self,
            fn,
            payloads,
            ordered=ordered,
            progress=hook,
            items=groups,
            weights=[len(group) for group in groups],
        ):
            group = groups[payload_index]
            trajectories = decode_trajectories(result) if isinstance(result, bytes) else result
            if len(trajectories) != len(group):
                raise EngineError(
                    f"batch payload returned {len(trajectories)} trajectories "
                    f"for {len(group)} jobs",
                )
            stats.record(cache_hit)
            for _ in range(len(group) - 1):
                stats.record(True)
            yield from zip(group, trajectories)

    def run_jobs(
        self,
        jobs: Sequence[SimulationJob],
        cache: Optional[CompiledModelCache] = None,
        progress: Optional[ProgressHook] = None,
        batch_stats: Optional[BatchCacheStats] = None,
        batch_size: int = 1,
    ) -> List[Trajectory]:
        """Materialize the whole batch, in submission order."""
        jobs = list(jobs)
        results: List[Optional[Trajectory]] = [None] * len(jobs)
        for index, trajectory in self.iter_jobs(
            jobs,
            cache=cache,
            progress=progress,
            ordered=False,
            batch_stats=batch_stats,
            batch_size=batch_size,
        ):
            results[index] = trajectory
        return results
