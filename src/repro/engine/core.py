"""Transport-agnostic submission core of the ensemble engine.

Every executor in the engine — serial, process pool and socket-distributed —
shares one orchestration logic: windowed submission (at most ``2 * capacity``
undelivered dispatches in flight), ordered-vs-completion-order delivery,
cancel-on-failure, per-batch :class:`BatchCacheStats`, and the payload
envelope that ships a group of jobs to a worker.  This module is where all of
that lives, exactly once:

* :class:`ExecutorBackend` — the narrow transport protocol a backend has to
  implement: ``submit(fn, payload) -> Future``, ``wait_any``, a ``capacity``,
  and an ``open``/``close`` lifecycle.  Everything else is shared.
* :func:`iter_windowed` — THE windowed submission loop.  Each backend brings
  only its transport; the window accounting, delivery buffering, progress
  hooks and cancel-on-exit semantics are identical for every transport.
* :func:`batch_job_groups` / :func:`batch_job_payloads` /
  :func:`simulate_batch_payload` — the one dispatch path.  Every job list
  runs as groups of consecutive same-configuration jobs (``batch_size=1``
  means groups of one); each group ships as one declarative payload (the
  pickled model keyed on a content fingerprint, the overrides, the
  simulator settings and the group's seeds) to one remote entry point that
  pool workers and socket workers share verbatim, which compiles the model
  on its first group, and comes home as one binary trajectory frame.
  The serial executor runs the same groups in-process instead.
* :class:`BaseEnsembleExecutor` — the public executor surface (``iter_jobs``
  / ``map`` / context-managed lifecycle) expressed once over the protocol;
  concrete executors subclass it and implement transport only.

Determinism contract: the core never *creates* randomness.  Every job arrives
with its seed already fanned out from the root seed, so any two backends —
and the streamed and materialized delivery modes — produce bit-identical
trajectories for the same job list, at any group size.
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
from ..stochastic.trajectory import Trajectory, decode_trajectories, encode_trajectories
from .cache import CompiledModelCache, model_blob, worker_compiled
from .jobs import SimulationJob

__all__ = [
    "ProgressHook",
    "BatchCacheStats",
    "ExecutorBackend",
    "BaseEnsembleExecutor",
    "iter_windowed",
    "submission_window",
    "batch_job_groups",
    "batch_job_payloads",
    "simulate_batch_payload",
]

#: Called as work completes.  ``executor.map`` hooks receive
#: ``(done_count, total, payload_index)`` per payload; ``iter_jobs`` hooks
#: receive ``(done_runs, total_runs, job)`` per completed group, ``job`` being
#: the group's last.
ProgressHook = Callable[[int, int, Any], None]


@dataclass
class BatchCacheStats:
    """Compiled-model cache counters of ONE batch iteration.

    Each ``iter_jobs`` call accumulates into its own instance, so concurrent
    batches on a shared executor (e.g. several studies run on threads over
    one pool, as the HTTP service does) cannot clobber each other's
    statistics.
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
    """In-flight budget for a backend: ``2 * capacity`` dispatches, never below one.

    Each slot runs one dispatch and holds the next one queued behind it, so
    no slot idles while a result travels back and a new dispatch travels
    out, and a long batch still cannot pile onto the transport queue — the
    bound that makes streamed parents hold O(capacity × group size)
    trajectories.
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
) -> Iterator[Tuple[int, Any]]:
    """THE windowed submission loop, yielding ``(index, result)`` per payload.

    This is the one implementation behind every executor's ``iter_jobs`` and
    ``map``: at most ``submission_window(backend.capacity)`` submitted-but-
    undelivered payloads exist at any moment, later payloads are dispatched
    only as earlier results are consumed, and delivery is either submission
    order (``ordered=True``, completed-out-of-order results are buffered and
    count against the window) or completion order.  ``progress`` fires at
    completion time with ``(done, total, items[index])`` — ``items`` defaults
    to the payload index, which is the ``map`` contract.

    The window counts dispatches, whatever each one carries: a group of B
    runs is one dispatch, so every slot runs one group and holds the next
    one queued behind it at any group size.

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
    backend.open()
    pending: Dict[concurrent.futures.Future, int] = {}
    buffered: Dict[int, Any] = {}
    next_submit = 0
    next_yield = 0
    done = 0
    try:
        while next_submit < total or pending or buffered:
            # Capacity is re-read every round: a distributed backend's window
            # widens as workers join and narrows when they are lost.
            window = submission_window(backend.capacity)
            while next_submit < total and len(pending) + len(buffered) < window:
                future = backend.submit(fn, payloads[next_submit])
                pending[future] = next_submit
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
                        yield index, result
            if ordered:
                # The smallest unyielded index is always submitted (payloads
                # are dispatched in order), so this drain cannot starve.
                while next_yield in buffered:
                    yield next_yield, buffered.pop(next_yield)
                    next_yield += 1
    finally:
        for future in pending:
            future.cancel()


# -- job groups ------------------------------------------------------------------
#
# A group is one dispatch: the worker runs its replicates one by one on one
# compiled model and one sample grid (``repro.stochastic.batch``) and returns
# one compact binary frame, so dispatch overhead and result framing are paid
# once per group.  Seeds are fanned out by the parent, so every replicate is
# bit-identical at any group size.


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
    """Pack job indices into groups of at most ``batch_size``.

    Only *consecutive* jobs sharing one configuration (same model, overrides,
    simulator, ``t_end``, schedule object, sampling and recording) group
    together — submission order, and therefore ordered delivery, is
    preserved.  A replicate fan-out becomes ``ceil(n / batch_size)`` groups
    (the remainder group is simply smaller); a parameter sweep degenerates to
    groups of one, as does every job list at ``batch_size=1``.  This is the
    one place ``batch_size`` is validated.
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
    """One declarative worker payload per group: model blob, settings and seeds.

    The blob is serialized once per distinct model and shared by every
    payload referencing it, so a payload costs a bytes copy rather than a
    re-pickle of the model object graph.  No generated code travels: the
    worker compiles the blob itself, once per ``(fingerprint, overrides)``
    pair (:func:`~repro.engine.cache.worker_compiled`).
    """
    blobs: Dict[int, Tuple[bytes, str]] = {}
    payloads = []
    for group in groups:
        seeds = [jobs[index].seed for index in group]
        if any(isinstance(seed, np.random.Generator) for seed in seeds):
            raise EngineError(
                "jobs dispatched to worker processes need picklable seeds "
                "(None, int or SeedSequence), not a live Generator; fan the "
                "root seed out with repro.stochastic.fan_out_seeds first",
            )
        job = jobs[group[0]]
        key = id(job.model)
        if key not in blobs:
            blobs[key] = model_blob(job.model)
        blob, fingerprint = blobs[key]
        payloads.append(
            {
                "fingerprint": fingerprint,
                "model_blob": blob,
                "overrides": job.frozen_overrides(),
                "simulator": job.simulator,
                "t_end": job.t_end,
                "kwargs": job.simulate_kwargs(),
                "seeds": seeds,
            },
        )
    return payloads


def simulate_batch_payload(payload: Dict[str, Any]) -> Tuple[bytes, bool]:
    """Execute one batch payload (remote-side entry point).

    The group's model comes from this process's compiled-model cache, which
    compiles the payload's blob on a miss.  The SSA runs its replicates through
    :func:`repro.stochastic.batch.simulate_ssa_batch` on one shared sample
    grid; other simulators run their replicates one after another inside the
    one dispatch.  Returns ``(frame, cache_hit)``: the replicates as one
    :func:`~repro.stochastic.trajectory.encode_trajectories` frame, which
    rides the transport's ordinary result path — the pool's result pipe or
    the fabric's result message — and decodes with
    :func:`~repro.stochastic.trajectory.decode_trajectories`.
    """
    compiled, cache_hit = worker_compiled(
        payload["fingerprint"], payload["model_blob"], payload.get("overrides", ())
    )
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


def reset_worker_signals() -> None:
    """Give a forked worker default SIGTERM/SIGINT handling and no wakeup fd.

    A fork copies the parent's handlers, and under ``genlogic serve`` those
    include asyncio's: a Python-level no-op plus a wakeup fd, the write end
    of the parent loop's self-pipe.  A signal sent to the worker would then
    be written into the parent's loop and run the parent's handler (SIGTERM
    stops the service) instead of ending the worker.  Process-pool workers
    run this as their initializer and fabric workers forked by
    :func:`~repro.engine.supervisor.spawn_worker_process` run it first.
    """
    import signal  # here: only worker processes need it

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)


class BaseEnsembleExecutor:
    """Shared orchestration surface of every executor; transport left abstract.

    Subclasses implement the :class:`ExecutorBackend` protocol (``submit`` /
    ``wait_any`` / ``capacity`` / ``open`` / ``close``) and inherit
    ``iter_jobs`` / ``map``, the context-manager lifecycle, and the per-batch
    statistics discipline from here; an in-process transport also overrides
    :meth:`_submissions`.  That inheritance is the refactor's point: the
    windowed loop exists once, in :func:`iter_windowed`, and a new transport
    cannot accidentally fork its semantics.
    """

    name = "backend"
    #: Parallelism reported in :class:`EnsembleStats` (subclasses override).
    workers = 1

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
    def _submissions(
        self,
        jobs: Sequence[SimulationJob],
        groups: Sequence[Sequence[int]],
        cache: Optional[CompiledModelCache],
    ) -> Tuple[Callable[[Any], Tuple[Any, bool]], Sequence[Any]]:
        """``(fn, payloads)`` running one payload per group on this transport.

        ``fn(payload)`` returns ``(result, cache_hit)`` where the result holds
        one trajectory per job index of the matching group.  Remote
        transports ship :func:`simulate_batch_payload` over
        :func:`batch_job_payloads` envelopes (the default), whose result is one
        binary frame; the serial executor overrides this to run each group
        in-process against the shared compiled-model ``cache`` and returns the
        trajectory list itself.
        """
        return simulate_batch_payload, batch_job_payloads(jobs, groups)

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
        for minimum latency.  Either way at most ``2 * capacity`` dispatches
        are submitted-but-unconsumed at any moment — later jobs are only
        dispatched as earlier results are yielded, so the parent's peak
        trajectory memory is bounded by the window (``2 * capacity *
        batch_size`` runs), not by ``len(jobs)``.

        Jobs run as groups of up to ``batch_size`` consecutive
        same-configuration jobs, one dispatch per group (see
        :func:`batch_job_groups`); yielded pairs, delivery order and
        bit-identity do not depend on the group size.

        Cache hits/misses accumulate into ``batch_stats`` (this batch's own
        counter, so concurrent batches on one shared executor never clobber
        each other).  A worker reports one compile-cache flag per group (its
        first run); the group's other runs reuse that compiled model by
        construction and count as hits, so ``hits + misses == len(jobs)``.
        ``cache`` is used only by in-process transports (remote workers keep
        their own caches).
        """
        jobs = list(jobs)
        stats = batch_stats if batch_stats is not None else BatchCacheStats()
        groups = batch_job_groups(jobs, batch_size)
        fn, payloads = self._submissions(jobs, groups, cache)
        hook = None
        if progress is not None:
            done_runs = 0

            def hook(done, total, group):
                nonlocal done_runs
                done_runs += len(group)
                progress(done_runs, len(jobs), jobs[group[-1]])

        for group_index, (result, cache_hit) in iter_windowed(
            self,
            fn,
            payloads,
            ordered=ordered,
            progress=hook,
            items=groups,
        ):
            group = groups[group_index]
            trajectories = decode_trajectories(result) if isinstance(result, bytes) else result
            if len(trajectories) != len(group):
                raise EngineError(
                    f"batch payload returned {len(trajectories)} trajectories "
                    f"for {len(group)} jobs",
                )
            stats.record(cache_hit)
            stats.hits += len(group) - 1
            yield from zip(group, trajectories)
