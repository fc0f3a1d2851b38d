"""Transport-free core of the analysis service.

:class:`AnalysisService` is everything the HTTP layer is not: it owns ONE
warm executor (a local process pool, or the distributed fabric behind
``--dispatch``), a registry of submitted studies, the content-addressed
:class:`~repro.service.cache.ResultCache`, and the admission policy — per
-request replicate budgets and an in-flight bound that turns overload into an
explicit backpressure signal instead of an unbounded queue.  Keeping it
transport-free means the whole service contract is testable without sockets,
and an alternative frontend (a job queue, a gRPC layer) would reuse it
unchanged.

Life of a request: the decoded JSON body becomes a
:class:`~repro.engine.StudySpec` (malformed bodies, non-finite numbers
included, raise :class:`~repro.errors.EngineError` → 400).  A seeded spec
gets its content key from the service's key memo, a bounded LRU map from
each spec parsed from a body to its :meth:`~repro.engine.StudySpec.cache_key`;
only a memo miss builds the circuit to compute the key.  The key is looked
up in the result cache (hit → answered instantly, no circuit build, no
dispatch); a spec identical to one already *running* coalesces onto that
study instead of dispatching twice; otherwise — if admission passes — the
study is dispatched to the warm executor on a worker thread via
:func:`asyncio.to_thread`, exactly the pattern
:func:`repro.engine.gather_studies` uses, so many studies multiplex over the
one pool without blocking the event loop.  The registry keeps every running
record and the most recent :data:`FINISHED_RECORDS` finished ones; an older
id answers 404 like an unknown one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Mapping, Optional, Union

from ..engine.distributed import WorkerConnectionError
from ..engine.executors import get_executor
from ..engine.spec import StudySpec
from ..errors import EngineError, ReproError
from ..search.spec import SearchSpec
from .cache import ResultCache

__all__ = ["AnalysisService", "BackpressureError", "BudgetError", "StudyRecord"]

#: Specs parsed from request bodies whose content keys a service remembers,
#: least recently used evicted first.  An entry, a circuit-free spec and its
#: 64-character key, takes 0.5-0.7 KB, so a full memo holds under 1 MB.
KEY_MEMO_SIZE = 1024

#: Finished records a service's registry keeps, oldest evicted first; running
#: records are always kept.  Besides its result (usually shared with the
#: result cache), a cache hit's record retains about 1.4 KB and a miss's
#: about 60 KB, as its spec pins the resolved circuit: 1.4-60 MB in all.
FINISHED_RECORDS = 1024


class BackpressureError(EngineError):
    """The in-flight bound is saturated; the client should retry later (429)."""


class BudgetError(EngineError):
    """The spec exceeds the per-request replicate budget (413)."""


@dataclass
class StudyRecord:
    """One submitted study or search and its lifecycle.

    ``status`` walks ``running`` → ``done`` | ``error`` (records answered
    straight from the cache are born ``done`` with ``cached=True``).
    ``done_event`` is set on completion, which is what ``?wait=1`` long-polls
    and the tests await.  ``kind`` is ``"study"`` (a
    :class:`~repro.engine.StudySpec` replicate study) or ``"search"`` (a
    :class:`~repro.search.SearchSpec` design-space search) — both kinds share
    one registry, one in-flight bound and one result cache.
    """

    study_id: str
    spec: Union[StudySpec, SearchSpec]
    cache_key: Optional[str]
    kind: str = "study"
    status: str = "running"
    cached: bool = False
    coalesced: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: ``"fabric"`` when the failure was losing the worker fabric mid-study
    #: (:class:`~repro.engine.WorkerConnectionError`) — the HTTP layer maps
    #: those to 503 + Retry-After instead of a generic 500, because they are
    #: the server's transient problem, not the request's.
    error_kind: Optional[str] = None
    submitted_at: float = field(default_factory=time.monotonic)
    wall_seconds: Optional[float] = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def to_response(self) -> Dict[str, Any]:
        """The ``GET /v1/studies/{id}`` JSON body."""
        body: Dict[str, Any] = {
            "id": self.study_id,
            "kind": self.kind,
            "status": self.status,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "cache_key": self.cache_key,
            "spec": self.spec.to_dict(),
        }
        if self.wall_seconds is not None:
            body["wall_seconds"] = self.wall_seconds
        if self.status == "done":
            body["result"] = self.result
        elif self.status == "error":
            body["error"] = self.error
        return body


class AnalysisService:
    """The service core: one warm executor, a study registry, the cache.

    Parameters
    ----------
    workers:
        Size of the local worker pool (ignored when ``executor`` is given).
    executor:
        An opened engine executor to run studies on — e.g. a
        :class:`~repro.engine.DistributedEnsembleExecutor` over the fabric.
        Its lifecycle stays with the caller.
    max_inflight:
        Bound on concurrently executing studies; submissions beyond it raise
        :class:`BackpressureError` (HTTP 429) instead of queuing unboundedly.
        Cache hits and coalesced submissions never count against it.
    max_replicates:
        Per-request budget: specs asking for more replicates raise
        :class:`BudgetError` (HTTP 413).
    max_search_replicates:
        Per-request budget for design-space searches: specs whose total
        replicate budget (``SearchSpec.total_budget()``) exceeds it raise
        :class:`BudgetError` (HTTP 413).  Searches cost candidate-space ×
        replicates, hence the separate, larger knob.
    cache_bytes:
        Byte budget of the content-addressed result cache (0 disables it).
    runner:
        Test seam: ``runner(spec, executor) -> payload dict`` replaces the
        default ``run_replicate_study(spec, executor=...).to_payload()``.
    search_runner:
        Test seam for searches; replaces the default
        ``run_design_search(spec, executor=...).to_payload()``.
    """

    def __init__(
        self,
        workers: int = 1,
        executor=None,
        supervisor=None,
        max_inflight: int = 4,
        max_replicates: int = 64,
        max_search_replicates: int = 5000,
        cache_bytes: int = 64 * 1024 * 1024,
        runner=None,
        search_runner=None,
    ):
        if max_inflight < 1:
            raise EngineError("max_inflight must be at least 1")
        if max_replicates < 1:
            raise EngineError("max_replicates must be at least 1")
        if max_search_replicates < 1:
            raise EngineError("max_search_replicates must be at least 1")
        self.max_inflight = int(max_inflight)
        self.max_replicates = int(max_replicates)
        self.max_search_replicates = int(max_search_replicates)
        self.cache = ResultCache(max_bytes=cache_bytes)
        self._owns_executor = executor is None
        self._workers = int(workers)
        self._executor = executor
        #: A :class:`~repro.engine.WorkerSupervisor` (or anything with a
        #: ``status()`` dict) whose health rides along in :meth:`stats`.
        #: Lifecycle stays with the caller, like ``executor``.
        self._supervisor = supervisor
        self._runner = runner if runner is not None else _default_runner
        self._search_runner = (
            search_runner if search_runner is not None else _default_search_runner
        )
        self._records: Dict[str, StudyRecord] = {}
        self._finished: Deque[str] = deque()
        self._keys: OrderedDict[Union[StudySpec, SearchSpec], str] = OrderedDict()
        self._inflight_by_key: Dict[str, StudyRecord] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._started_at = time.monotonic()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._coalesced = 0

    # -- lifecycle -------------------------------------------------------------
    @property
    def executor(self):
        if self._executor is None:
            self._executor = get_executor(self._workers)
        return self._executor

    @property
    def workers(self) -> int:
        return getattr(self.executor, "workers", self._workers)

    def open(self) -> "AnalysisService":
        """Start the worker pool now (otherwise it starts on first use)."""
        self.executor.open()
        return self

    def close(self) -> None:
        """Shut the pool down — only if this service owns it."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()

    # -- submission ------------------------------------------------------------
    def parse_spec(self, data: Union[StudySpec, Mapping[str, Any], str, bytes]) -> StudySpec:
        """The :class:`StudySpec` a request body describes (EngineError → 400)."""
        if isinstance(data, StudySpec):
            return data
        if isinstance(data, (str, bytes)):
            return StudySpec.from_json(data)
        return StudySpec.from_dict(data)

    def parse_search_spec(
        self,
        data: Union[SearchSpec, Mapping[str, Any], str, bytes],
    ) -> SearchSpec:
        """The :class:`SearchSpec` a request body describes (EngineError → 400)."""
        if isinstance(data, SearchSpec):
            return data
        if isinstance(data, (str, bytes)):
            return SearchSpec.from_json(data)
        return SearchSpec.from_dict(data)

    async def submit(
        self,
        data: Union[StudySpec, Mapping[str, Any], str, bytes],
    ) -> StudyRecord:
        """Admit one study: cache hit, coalesce, or dispatch.

        Returns the (possibly already-done) :class:`StudyRecord`.  Raises
        :class:`~repro.errors.EngineError` for a malformed spec,
        :class:`BudgetError` over the replicate budget and
        :class:`BackpressureError` when the in-flight bound is saturated.
        """
        spec = self.parse_spec(data)
        if spec.n_replicates > self.max_replicates:
            self._rejected += 1
            raise BudgetError(
                f"spec asks for {spec.n_replicates} replicates; this service "
                f"accepts at most {self.max_replicates} per request",
            )
        key = self._content_key(spec, from_body=not isinstance(data, StudySpec))
        return await self._admit(spec, key, kind="study")

    async def submit_search(
        self,
        data: Union[SearchSpec, Mapping[str, Any], str, bytes],
    ) -> StudyRecord:
        """Admit one design-space search under the same policy as studies.

        The admission pipeline is shared with :meth:`submit` — one in-flight
        bound, one registry, one content-addressed cache (frontiers are keyed
        by :meth:`SearchSpec.cache_key`) — only the budget check differs: a
        search is charged its *total* replicate budget across the whole
        candidate space.
        """
        spec = self.parse_search_spec(data)
        budget = spec.total_budget()
        if budget > self.max_search_replicates:
            self._rejected += 1
            raise BudgetError(
                f"search budgets {budget} replicates over its candidate space; "
                f"this service accepts at most {self.max_search_replicates} "
                "per request (cap the space with max_candidates or lower "
                "budget_replicates)",
            )
        key = self._content_key(spec, from_body=not isinstance(data, SearchSpec))
        return await self._admit(spec, key, kind="search")

    def _content_key(self, spec: Union[StudySpec, SearchSpec], from_body: bool) -> Optional[str]:
        """The spec's cache key (``None`` unseeded), memoized for body specs.

        The memo is keyed on spec equality, which compares every field, so an
        entry only ever answers an identical spec.  A spec object handed in
        directly may carry a live circuit its name does not describe, so its
        key is computed every time.
        """
        if spec.seed is None:
            return None
        if not from_body:
            return spec.cache_key()
        key = self._keys.get(spec)
        if key is not None:
            self._keys.move_to_end(spec)
            return key
        key = spec.cache_key()
        # ``spec`` now pins its resolved circuit; remember a copy without it.
        self._keys[dataclasses.replace(spec)] = key
        if len(self._keys) > KEY_MEMO_SIZE:
            self._keys.popitem(last=False)
        return key

    async def _admit(
        self,
        spec: Union[StudySpec, SearchSpec],
        key: Optional[str],
        kind: str,
    ) -> StudyRecord:
        """The shared admission pipeline: cache hit, coalesce, or dispatch."""
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                record = self._new_record(spec, key, kind=kind, status="done", cached=True)
                record.result = hit
                record.wall_seconds = 0.0
                self._completed += 1
                self._finish(record)
                return record
            with self._lock:
                running = self._inflight_by_key.get(key)
            if running is not None:
                # Identical request already executing: attach, don't dispatch.
                self._coalesced += 1
                record = self._new_record(spec, key, kind=kind, coalesced=True)
                asyncio.ensure_future(self._follow(record, running))
                return record

        with self._lock:
            if len(self._inflight_by_key) >= self.max_inflight:
                self._rejected += 1
                raise BackpressureError(
                    f"{len(self._inflight_by_key)} requests in flight "
                    f"(bound {self.max_inflight}); retry later",
                )
            record = self._new_record(spec, key, kind=kind)
            if key is not None:
                self._inflight_by_key[key] = record
            else:
                # Unseeded specs have no stable key; track them under their id
                # so they still count against the in-flight bound.
                self._inflight_by_key[record.study_id] = record
        asyncio.ensure_future(self._execute(record))
        return record

    def _new_record(
        self,
        spec: Union[StudySpec, SearchSpec],
        key: Optional[str],
        kind: str = "study",
        status: str = "running",
        cached: bool = False,
        coalesced: bool = False,
    ) -> StudyRecord:
        record = StudyRecord(
            study_id=f"{kind}-{next(self._ids):06d}",
            spec=spec,
            cache_key=key,
            kind=kind,
            status=status,
            cached=cached,
            coalesced=coalesced,
        )
        self._records[record.study_id] = record
        self._submitted += 1
        return record

    def _finish(self, record: StudyRecord) -> None:
        """Wake the record's waiters and evict the oldest finished records."""
        record.done_event.set()
        self._finished.append(record.study_id)
        while len(self._finished) > FINISHED_RECORDS:
            del self._records[self._finished.popleft()]

    async def _execute(self, record: StudyRecord) -> None:
        started = time.monotonic()
        runner = self._search_runner if record.kind == "search" else self._runner
        try:
            payload = await asyncio.to_thread(runner, record.spec, self.executor)
        except WorkerConnectionError as error:
            # Losing the fabric is the *server's* transient problem: tag it so
            # the HTTP layer answers 503 + Retry-After rather than a 500.
            record.status = "error"
            record.error = str(error)
            record.error_kind = "fabric"
            self._failed += 1
        except ReproError as error:
            record.status = "error"
            record.error = str(error)
            self._failed += 1
        except Exception as error:  # noqa: BLE001 - a study must never kill the loop
            record.status = "error"
            record.error = f"{type(error).__name__}: {error}"
            self._failed += 1
        else:
            record.result = payload
            record.status = "done"
            self._completed += 1
            if record.cache_key is not None:
                self.cache.put(record.cache_key, payload)
        finally:
            record.wall_seconds = time.monotonic() - started
            with self._lock:
                self._inflight_by_key.pop(record.cache_key or record.study_id, None)
            self._finish(record)

    async def _follow(self, record: StudyRecord, leader: StudyRecord) -> None:
        """Mirror the leader's outcome onto a coalesced record."""
        await leader.done_event.wait()
        record.status = leader.status
        record.result = leader.result
        record.error = leader.error
        record.error_kind = leader.error_kind
        record.wall_seconds = leader.wall_seconds
        if leader.status == "done":
            self._completed += 1
        else:
            self._failed += 1
        self._finish(record)

    # -- queries ---------------------------------------------------------------
    def get(self, study_id: str) -> Optional[StudyRecord]:
        return self._records.get(study_id)

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight_by_key)

    def stats(self) -> Dict[str, Any]:
        """The ``GET /v1/stats`` JSON body."""
        inflight = self.inflight
        body: Dict[str, Any] = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "pool": {
                "executor": getattr(self.executor, "name", "unknown"),
                "workers": self.workers,
                "inflight": inflight,
                "max_inflight": self.max_inflight,
                "saturation": inflight / self.max_inflight,
            },
            "studies": {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "rejected": self._rejected,
                "coalesced": self._coalesced,
                "queue_depth": inflight,
            },
            "cache": self.cache.stats(),
            "limits": {
                "max_replicates": self.max_replicates,
                "max_search_replicates": self.max_search_replicates,
            },
        }
        # Fabric health (per-worker throughput, requeues, queue depth) and
        # supervisor status are the distributed deployment's backpressure
        # signal — present only when the executor/supervisor expose them.
        health = getattr(self._executor, "health", None)
        if callable(health):
            try:
                body["fabric"] = health()
            except Exception:  # noqa: BLE001 - stats must never take the service down
                body["fabric"] = None
        if self._supervisor is not None:
            try:
                supervisor_status = dict(self._supervisor.status())
            except Exception:  # noqa: BLE001 - same: degrade, don't die
                supervisor_status = None
            if supervisor_status is not None:
                # The executor's health already rides under "fabric".
                supervisor_status.pop("fabric", None)
            body["supervisor"] = supervisor_status
        return body


def _default_runner(spec: StudySpec, executor) -> Dict[str, Any]:
    """Run the study on the shared executor and return its JSON payload."""
    from ..analysis.replicates import run_replicate_study

    return run_replicate_study(spec, executor=executor).to_payload()


def _default_search_runner(spec: SearchSpec, executor) -> Dict[str, Any]:
    """Run the design-space search on the shared executor; JSON frontier out."""
    from ..search.engine import run_design_search

    return run_design_search(spec, executor=executor).to_payload()
