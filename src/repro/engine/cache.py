"""Compiled-model caching for the ensemble engine.

Compiling a :class:`repro.sbml.Model` into a :class:`CompiledModel`
(generating and byte-compiling its kernel) costs far more than a short SSA
run, and every multi-run study used to pay it once *per run*.  The engine
pays it once per distinct ``(model content, frozen parameter overrides)``
pair instead, with one keying rule in every process:
``(model_fingerprint(model), overrides)``, the SHA-1 of the model's pickle.

* in-process (serial executor and single runs), :class:`CompiledModelCache`
  keys on it, so two builds of one circuit share an entry and an in-place
  edit such as ``model.set_initial_amount(...)`` keys the edited model apart;
* in worker processes (where every unpickled model is a fresh object),
  :func:`worker_compiled` keys on the fingerprint computed once in the
  parent, so each worker compiles each distinct model once, not once per job.

Compiled-propensity serialization: alongside the pickled-model blob, each
worker payload carries the **generated propensity kernel** (a
:class:`KernelArtifact`: source plus the marshalled bytecode of what loading
a kernel compiles, its preamble and ``ssa_segment``) for its own
``(model, overrides)`` pair — attached per payload rather than per blob so
sweep IPC stays linear in the number of jobs (see
:mod:`repro.stochastic.codegen`).  A worker's first compile of a model then
``exec``'s shipped code instead of re-parsing and re-compiling every
kinetic-law AST, and compiles any other part (``propensities_all``,
``propensities_after``) from the shipped source if a simulator asks for it.
The parent generates and byte-compiles each kernel once
(:func:`kernel_artifact_for_blob`, content-memoized) and every worker reuses
it, which is what makes ``workers=N`` cold starts cheap on big Cello
circuits.  The blob itself is the model's own pickle, so its content
fingerprint is every worker-side cache key.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import pickle
import threading
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from ..stochastic.codegen import compile_kernel
from ..stochastic.propensity import CompiledModel, kernel_source_for

__all__ = [
    "CompiledModelCache",
    "default_cache",
    "model_fingerprint",
    "model_blob",
    "KernelArtifact",
    "kernel_artifact_for_blob",
    "register_worker_kernel",
    "worker_compiled",
    "worker_model_from_blob",
]


def model_fingerprint(model) -> str:
    """A content fingerprint of a model, for cross-process cache keys."""
    return hashlib.sha1(pickle.dumps(model)).hexdigest()


def model_blob(model) -> Tuple[bytes, str]:
    """``(pickled model, content fingerprint)``, serialized once.

    Executors ship the blob (not the live object) inside each payload: the
    parent pays one ``pickle.dumps`` per distinct model and per-payload
    transfer reduces to a bytes copy, while workers deserialize a given
    fingerprint once and ignore the model bytes afterwards.
    """
    data = pickle.dumps(model)
    return data, hashlib.sha1(data).hexdigest()


class KernelArtifact(NamedTuple):
    """A shippable compiled-propensity kernel.

    ``bytecode`` is the marshalled :func:`~repro.stochastic.codegen.compile_kernel`
    result for ``source`` (its preamble and ``ssa_segment``), tagged with the
    interpreter's bytecode ``magic`` so a worker only reuses it when it runs
    the same Python build (always true for a process pool; the source is the
    portable fallback for everything else, and the source of the parts
    compiled on demand).
    """

    source: str
    magic: bytes
    bytecode: bytes


def _make_kernel_artifact(source: str) -> KernelArtifact:
    return KernelArtifact(
        source=source,
        magic=bytes(importlib.util.MAGIC_NUMBER),
        bytecode=marshal.dumps(compile_kernel(source)),
    )


#: Parent-side memo of generated kernel artifacts, keyed on
#: ``(content fingerprint, frozen overrides)`` — content-addressed, so it is
#: immune to in-place model edits and safe to share across batches.
_KERNEL_ARTIFACTS: "OrderedDict[Tuple[str, Tuple], KernelArtifact]" = OrderedDict()
_KERNEL_ARTIFACTS_MAX = 128
_KERNEL_ARTIFACTS_LOCK = threading.Lock()


def kernel_artifact_for_blob(model, fingerprint: str, overrides: Tuple = ()) -> KernelArtifact:
    """The generated kernel artifact for ``(model, overrides)``, memoized.

    The parent pays source generation plus one byte-compilation per distinct
    ``(model, overrides)`` pair; every worker then skips both and goes
    straight to ``exec``.
    """
    key = (fingerprint, overrides)
    with _KERNEL_ARTIFACTS_LOCK:
        artifact = _KERNEL_ARTIFACTS.get(key)
        if artifact is not None:
            _KERNEL_ARTIFACTS.move_to_end(key)
            return artifact
    source = kernel_source_for(model, dict(overrides) if overrides else None)
    artifact = _make_kernel_artifact(source)
    with _KERNEL_ARTIFACTS_LOCK:
        _KERNEL_ARTIFACTS[key] = artifact
        while len(_KERNEL_ARTIFACTS) > _KERNEL_ARTIFACTS_MAX:
            _KERNEL_ARTIFACTS.popitem(last=False)
    return artifact


class CompiledModelCache:
    """An LRU cache of :class:`CompiledModel` objects with hit/miss counters.

    Entries are keyed on ``(model_fingerprint(model), overrides)``, the rule
    :func:`worker_compiled` uses in worker processes: two builds of one
    circuit share an entry, and an in-place edit changes the fingerprint, so
    the edited model compiles afresh.  An entry's ``compiled.model`` is the
    object it was first built from; callers of a hit must not read it (it
    may have been edited since), and the simulators never do.

    Lookups are serialized by an internal lock: the shared process-wide cache
    is reachable from several threads at once (concurrent serial studies run
    through ``asyncio.to_thread``), and the lookup/move-to-end/insert/evict
    sequence is not atomic without it.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, Tuple], CompiledModel]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def get(
        self,
        model,
        overrides: Tuple[Tuple[str, float], ...] = (),
    ) -> CompiledModel:
        """The compiled form of ``model`` under ``overrides`` (compiling on miss)."""
        return self.lookup(model, overrides)[0]

    def lookup(
        self,
        model,
        overrides: Tuple[Tuple[str, float], ...] = (),
        fingerprint: Optional[str] = None,
    ) -> Tuple[CompiledModel, bool]:
        """``(compiled, cache_hit)`` — like :meth:`get`, but reporting the hit.

        ``fingerprint`` is ``model_fingerprint(model)`` when the caller has
        it already (an executor fingerprints each model object once per job
        list).  The flag belongs to *this* lookup, so callers keeping
        per-batch statistics (:class:`~repro.engine.core.BatchCacheStats`)
        stay accurate even when other threads hit the same cache
        concurrently — a delta on the global counters could not tell the
        batches apart.
        """
        if isinstance(model, CompiledModel):
            if not overrides:
                return model, False
            # Overrides cannot be applied to an already-compiled model;
            # recompile (with caching) from its source model instead.
            model, fingerprint = model.model, None
        key = (fingerprint or model_fingerprint(model), overrides)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return compiled, True
            self.misses += 1
            compiled = CompiledModel(model, dict(overrides) if overrides else None)
            self._entries[key] = compiled
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return compiled, False

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._entries)}


#: The process-wide cache used when callers do not supply their own.
_DEFAULT_CACHE = CompiledModelCache()


def default_cache() -> CompiledModelCache:
    """The shared in-process compiled-model cache."""
    return _DEFAULT_CACHE


#: Per-worker-process cache, keyed on (content fingerprint, overrides).  Lives
#: at module level so it survives across tasks dispatched to the same worker —
#: and, with persistent executor pools, across *batches* of the same study.
_WORKER_CACHE: Dict[Tuple, CompiledModel] = {}

#: Models this worker has seen, keyed on their content fingerprint.  Payloads
#: carry the pickled model inline (a persistent pool outlives any one batch,
#: so a creation-time initializer cannot know the models of later batches);
#: the worker deserializes each fingerprint once and reuses that canonical
#: instance for every later payload and batch.
_WORKER_MODELS: Dict[str, object] = {}

#: Kernel artifacts received with payloads, keyed on ``(fingerprint, frozen
#: overrides)``.  Consulted by :func:`worker_compiled` so a worker's first
#: compile of a model exec's the generated module instead of re-compiling the
#: kinetic-law ASTs.
_WORKER_KERNELS: Dict[Tuple[str, Tuple], KernelArtifact] = {}

_WORKER_CACHE_MAX = 64
_WORKER_MODELS_MAX = 64
_WORKER_KERNELS_MAX = 256

#: Guards _WORKER_MODELS / _WORKER_KERNELS: pool worker processes are
#: single-threaded, but a process that calls the payload functions itself may
#: do so from several threads at once.
_WORKER_MODELS_LOCK = threading.Lock()


def worker_model_from_blob(fingerprint: str, blob: bytes):
    """The canonical model instance for ``fingerprint``, deserializing once.

    Worker-side entry point: the first payload to arrive with a given
    fingerprint pays the ``pickle.loads``; later payloads (and batches) reuse
    that instance, so a fingerprint unpickles and compiles at most once per
    worker process.
    """
    with _WORKER_MODELS_LOCK:
        known = _WORKER_MODELS.pop(fingerprint, None)
        if known is not None:
            # Refresh recency (as worker_compiled does for _WORKER_CACHE): a
            # hot fingerprint reused every batch must outlive stale ones.
            _WORKER_MODELS[fingerprint] = known
            return known
    model = pickle.loads(blob)
    with _WORKER_MODELS_LOCK:
        while len(_WORKER_MODELS) >= _WORKER_MODELS_MAX:
            _WORKER_MODELS.pop(next(iter(_WORKER_MODELS)))
        return _WORKER_MODELS.setdefault(fingerprint, model)


def register_worker_kernel(
    fingerprint: str,
    overrides: Tuple,
    kernel: Optional[KernelArtifact],
) -> None:
    """Register one job's shipped kernel for :func:`worker_compiled` (worker side).

    The executor attaches each payload's own ``(model, overrides)`` kernel to
    the payload (not every override set of the batch to every payload, which
    would make sweep IPC quadratic); this records it under the worker's
    ``(fingerprint, overrides)`` key.  ``None`` kernels are a no-op.
    """
    if kernel is None:
        return
    key = (fingerprint, overrides)
    with _WORKER_MODELS_LOCK:
        if key not in _WORKER_KERNELS:
            _WORKER_KERNELS[key] = kernel
            while len(_WORKER_KERNELS) > _WORKER_KERNELS_MAX:
                _WORKER_KERNELS.pop(next(iter(_WORKER_KERNELS)))


def worker_compiled(
    model,
    fingerprint: str,
    overrides: Tuple[Tuple[str, float], ...] = (),
) -> Tuple[CompiledModel, bool]:
    """Worker-side compile with memoization on the parent-computed fingerprint.

    Returns ``(compiled, cache_hit)`` so the hit can be reported back to the
    parent and aggregated into the ensemble's statistics.  When the parent
    shipped a :class:`KernelArtifact` for this ``(fingerprint, overrides)``
    pair, the compile exec's its bytecode (its source under another
    interpreter's bytecode magic) instead of re-deriving the kernel from the
    model's kinetic-law ASTs — the cheap cold-start path.
    """
    key = (fingerprint, overrides)
    compiled = _WORKER_CACHE.get(key)
    if compiled is not None:
        # Refresh recency so eviction drops the coldest entry, not this one.
        _WORKER_CACHE.pop(key)
        _WORKER_CACHE[key] = compiled
        return compiled, True
    with _WORKER_MODELS_LOCK:
        entry = _WORKER_KERNELS.get(key)
        if entry is not None:
            # Refresh recency so eviction drops the coldest kernel, not one
            # that is re-read every batch (same LRU discipline as the other
            # worker-side caches).
            _WORKER_KERNELS.pop(key)
            _WORKER_KERNELS[key] = entry
    compiled = None
    if entry is not None:
        code = None
        if bytes(entry.magic) == bytes(importlib.util.MAGIC_NUMBER):
            try:
                code = marshal.loads(entry.bytecode)
            except Exception:
                code = None
        try:
            compiled = CompiledModel(
                model,
                dict(overrides) if overrides else None,
                kernel_source=entry.source,
                kernel_code=code,
            )
        except Exception:
            # A stale or incompatible kernel must never fail the run; fall
            # back to compiling from the model's ASTs below.
            compiled = None
    if compiled is None:
        compiled = CompiledModel(model, dict(overrides) if overrides else None)
    while len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
        _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
    _WORKER_CACHE[key] = compiled
    return compiled, False
