"""In-memory span tracer that wraps the program's public functions from outside.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces a fixed
list of public functions and methods with thin wrappers that record a span
(name, start, end, parent, request id, attributes) around every call, and
:meth:`Tracer.uninstall` puts the originals back.  Class methods are wrapped
on the class; module-level functions are replaced in every loaded ``repro``
module that holds them, because ``from x import f`` binds the function into
the importing module at import time.

Spans only cover work in this process.  Work inside a pool or fabric worker
shows up as the parent's ``engine.wait`` span; the workloads replay the same
public calls in this process to split it further.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "request", "thread", "attrs")

    def __init__(self, span_id, name, parent, request):
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.attrs: Dict[str, Any] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one tracer per traced window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None,
        )
        #: ``(span_id, request_id)`` adopted by spans that start with no parent
        #: in their own context — the server thread handling the request the
        #: single benchmark client is waiting on.
        self.fallback: Optional[Tuple[int, int]] = None
        self._restore: List[Tuple[Any, str, Any]] = []
        self._requests = itertools.count(1)

    def next_request(self) -> int:
        return next(self._requests)

    # -- recording -------------------------------------------------------------
    def _open(self, name: str, request: Optional[int] = None) -> Tuple[Span, Any]:
        context = self._current.get() or self.fallback
        parent, inherited = context if context else (None, None)
        with self._lock:
            span = Span(next(self._ids), name, parent, request if request is not None else inherited)
            self.spans.append(span)
        token = self._current.set((span.span_id, span.request))
        return span, token

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        span, token = self._open(name, request)
        try:
            yield span
        finally:
            self._close(span, token)

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            finally:
                tracer._close(span, token)

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span, token = tracer._open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close(span, token)

        return traced

    # -- patching --------------------------------------------------------------
    def patch_method(self, cls, attr: str, name: str, on_result=None, is_async=False) -> None:
        original = cls.__dict__[attr]
        wrapped = self.wrap_async(original, name) if is_async else self.wrap(original, name, on_result)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def patch_function(self, original: Callable, name: str, on_result=None) -> None:
        """Replace ``original`` in every loaded ``repro`` module that binds it."""
        wrapped = self.wrap(original, name, on_result)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------------
    def attributed(self, roots: Optional[Iterable[str]] = None) -> List[Span]:
        """Spans that descend from a benchmark root span (``bench.*``).

        Calibration slices dispatched between units open executor spans with
        no parent; they are not program work and are left out.  ``roots``
        narrows the result to the trees under root spans of those names.
        """
        wanted = set(roots) if roots is not None else None
        by_id = {span.span_id: span for span in self.spans}
        keep: Dict[int, bool] = {}

        def rooted(span: Span) -> bool:
            chain = []
            current: Optional[Span] = span
            verdict = False
            while current is not None:
                if current.span_id in keep:
                    verdict = keep[current.span_id]
                    break
                chain.append(current.span_id)
                if current.parent is None:
                    verdict = current.layer == "bench" and (wanted is None or current.name in wanted)
                    break
                current = by_id.get(current.parent)
            for span_id in chain:
                keep[span_id] = verdict
            return verdict

        return [span for span in self.spans if rooted(span)]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        covered = 0.0
        cursor = span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


def layer_table(spans: List[Span]) -> List[Dict[str, Any]]:
    """Self time per layer, largest first, as a share of the root spans' wall time."""
    selfs = self_times(spans)
    wall = sum(span.duration for span in spans if span.parent is None)
    per_layer: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = per_layer[span.layer]
        entry[0] += 1
        entry[1] += selfs[span.span_id]
    rows = [
        {"layer": layer, "spans": count, "self_s": total, "share": total / wall if wall else 0.0}
        for layer, (count, total) in per_layer.items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])


def format_layer_table(title: str, rows: List[Dict[str, Any]]) -> str:
    lines = [f"self time per layer ({title})", f"{'layer':<12}{'spans':>8}{'self s':>11}{'share':>9}"]
    for row in rows:
        lines.append(
            f"{row['layer']:<12}{row['spans']:>8}{row['self_s']:>11.4f}{row['share'] * 100:>8.2f}%",
        )
    return "\n".join(lines)


def dump(spans: List[Span], path: str, meta: Dict[str, Any]) -> None:
    """Write the attributed spans and the layer table as one JSON document."""
    origin = min((span.start for span in spans), default=0.0)
    selfs = self_times(spans)
    document = {
        "meta": meta,
        "layers": layer_table(spans),
        "spans": [
            {
                "id": span.span_id,
                "name": span.name,
                "parent": span.parent,
                "request": span.request,
                "thread": span.thread,
                "start_s": span.start - origin,
                "end_s": span.end - origin,
                "self_s": selfs[span.span_id],
                **({"attrs": span.attrs} if span.attrs else {}),
            }
            for span in spans
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def install(tracer: Tracer) -> Tracer:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from repro.analysis.replicates import ReplicateStudy, run_replicate_study
    from repro.core.analyzer import LogicAnalyzer
    from repro.engine.cache import CompiledModelCache
    from repro.engine.core import BaseEnsembleExecutor
    from repro.engine.distributed import DistributedEnsembleExecutor
    from repro.engine.executors import ProcessPoolEnsembleExecutor, SerialExecutor
    from repro.engine.spec import StudySpec
    from repro.gates.circuits import build_circuit
    from repro.sbol.converter import sbol_to_sbml
    from repro.search.engine import run_design_search
    from repro.search.spec import SearchSpec
    from repro.service.app import AnalysisService
    from repro.service.cache import ResultCache
    from repro.service.http import ServiceServer
    from repro.stochastic.batch import simulate_ssa_batch
    from repro.stochastic.propensity import CompiledModel
    from repro.stochastic.ssa import DirectMethodSimulator
    from repro.stochastic.trajectory import decode_trajectories, encode_trajectories
    from repro.vlab.experiment import LogicExperiment

    def record(**fields):
        def on_result(span, args, result):
            for key, extract in fields.items():
                span.attrs[key] = extract(args, result)

        return on_result

    tracer.patch_method(
        DirectMethodSimulator, "run", "stochastic.ssa",
        record(events=lambda args, result: args[0].last_event_count),
    )
    tracer.patch_function(
        simulate_ssa_batch, "stochastic.batch",
        record(rows=lambda args, result: len(result)),
    )
    tracer.patch_method(CompiledModel, "__init__", "stochastic.compile")
    tracer.patch_method(
        CompiledModelCache, "lookup", "engine.cache_lookup",
        record(hit=lambda args, result: bool(result[1])),
    )
    tracer.patch_method(BaseEnsembleExecutor, "wait_any", "engine.wait")
    tracer.patch_method(SerialExecutor, "wait_any", "engine.inline")
    tracer.patch_method(ProcessPoolEnsembleExecutor, "submit", "engine.dispatch")
    tracer.patch_method(DistributedEnsembleExecutor, "submit", "engine.dispatch")
    tracer.patch_function(
        encode_trajectories, "engine.encode",
        record(bytes=lambda args, result: len(result), rows=lambda args, result: len(args[0])),
    )
    tracer.patch_function(decode_trajectories, "engine.decode")
    tracer.patch_function(build_circuit, "gates.build")
    tracer.patch_function(sbol_to_sbml, "sbol.convert")
    tracer.patch_method(LogicExperiment, "datalog_from", "vlab.datalog")
    tracer.patch_method(LogicAnalyzer, "analyze", "core.analyze")
    tracer.patch_function(run_replicate_study, "analysis.study")
    tracer.patch_method(ReplicateStudy, "to_payload", "analysis.payload")
    tracer.patch_function(
        run_design_search, "search.run",
        record(
            candidates=lambda args, result: result.n_candidates,
            replicates=lambda args, result: result.total_replicates,
            exhaustive=lambda args, result: result.exhaustive_replicates,
            rounds=lambda args, result: result.rounds,
        ),
    )
    tracer.patch_method(StudySpec, "cache_key", "service.cache_key")
    tracer.patch_method(SearchSpec, "cache_key", "service.cache_key")
    tracer.patch_method(AnalysisService, "parse_spec", "service.parse")
    tracer.patch_method(AnalysisService, "parse_search_spec", "service.parse")
    tracer.patch_method(
        ResultCache, "get", "service.cache_get",
        record(hit=lambda args, result: result is not None),
    )
    # The request handler is the one private hook: it is where the server's
    # share of a request starts and ends.
    tracer.patch_method(ServiceServer, "_route", "service.server", is_async=True)
    return tracer
