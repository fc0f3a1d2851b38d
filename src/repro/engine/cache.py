"""Compiled-model caching for the ensemble engine.

Compiling a :class:`repro.sbml.Model` into a :class:`CompiledModel` (parsing
kinetic laws, building the dependency graph) costs far more than a short SSA
run, and every multi-run study used to pay it once *per run*.  The engine
pays it once per distinct ``(model identity, frozen parameter overrides)``
pair instead:

* in-process (serial executor and single runs), :class:`CompiledModelCache`
  keys on the model's ``id()`` plus a cheap fingerprint of its mutable state
  (initial amounts, parameter values, boundary flags) so an in-place edit such
  as ``model.set_initial_amount(...)`` correctly invalidates the entry;
* in worker processes (where every unpickled model is a fresh object),
  :func:`worker_compiled` keys on a content fingerprint computed once in the
  parent, so each worker compiles each distinct model once, not once per job.

Compiled-propensity serialization: alongside the pickled-model blob, each
worker payload carries the **generated propensity kernel** (source plus
marshalled bytecode) for its own ``(model, overrides)`` pair — attached per
payload rather than per blob so sweep IPC stays linear in the number of
jobs (see :mod:`repro.stochastic.codegen`).  A worker's first compile of a
model then ``exec``'s one shipped module instead of re-parsing and
re-compiling every kinetic-law AST — the parent generates and byte-compiles
each kernel once (:func:`kernel_artifact_for_blob`, content-memoized) and
every worker reuses it, which is what makes ``jobs=N`` cold starts cheap on
big Cello circuits.  The blob envelope can also carry kernels directly
(:func:`model_blob`'s ``kernels`` argument) for callers that ship models
without per-payload metadata.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import pickle
import threading
from collections import OrderedDict
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

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


class _ModelBlob:
    """Worker-bound envelope: pickled model + generated kernel sources.

    ``kernels`` maps frozen parameter-override tuples to the generated
    propensity kernel for ``(model, overrides)`` — a :class:`KernelArtifact`
    or a bare source string.  The model stays a nested pickle so the content
    fingerprint — and with it every worker-side cache key — is computed over
    the *model alone*, unchanged by whichever kernels happen to ride along.
    """

    __slots__ = ("model_pickle", "kernels")

    def __init__(self, model_pickle: bytes, kernels: Dict[Tuple, str]):
        self.model_pickle = model_pickle
        self.kernels = kernels

    def __getstate__(self):
        return (self.model_pickle, self.kernels)

    def __setstate__(self, state):
        self.model_pickle, self.kernels = state


def model_blob(model, kernels: Optional[Mapping[Tuple, object]] = None) -> Tuple[bytes, str]:
    """``(pickled envelope, content fingerprint)`` of a model, serialized once.

    The pool executor ships the blob (not the live object) inside each
    payload: the parent pays one ``pickle.dumps`` per distinct model and
    per-job transfer reduces to a bytes copy, while workers deserialize a
    given fingerprint once and ignore the model bytes afterwards.
    ``kernels`` (frozen overrides -> generated kernel source or
    :class:`KernelArtifact`) rides along in the envelope and is registered
    worker-side on arrival.
    """
    data = pickle.dumps(model)
    fingerprint = hashlib.sha1(data).hexdigest()
    envelope = _ModelBlob(data, dict(kernels) if kernels else {})
    return pickle.dumps(envelope), fingerprint


class KernelArtifact(NamedTuple):
    """A shippable compiled-propensity kernel.

    ``bytecode`` is the marshalled code object of ``source``, tagged with the
    interpreter's bytecode ``magic`` so a worker only reuses it when it runs
    the same Python build (always true for a process pool; the source is the
    portable fallback for everything else).
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


def _state_token(model) -> Tuple:
    """Cheap token over the model state that can change without re-`id`-ing.

    Kinetic-law ASTs are treated as immutable per model object (nothing in the
    package rewrites them in place); initial amounts, boundary/constant flags
    and parameter values *are* edited in place by tests and benchmarks, so
    they participate in the cache key.
    """
    species = tuple(
        (sid, s.initial_amount, s.boundary_condition, s.constant)
        for sid, s in model.species.items()
    )
    parameters = tuple(sorted(model.parameter_values().items()))
    return (species, parameters, len(model.reactions))


class CompiledModelCache:
    """An LRU cache of :class:`CompiledModel` objects with hit/miss counters.

    Lookups are serialized by an internal lock: the shared process-wide cache
    is reachable from several threads at once (``gather_studies`` runs
    synchronous serial studies on worker threads), and the
    lookup/move-to-end/insert/evict sequence is not atomic without it.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, Tuple[object, CompiledModel]]" = OrderedDict()
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
        """The compiled form of ``model`` under ``overrides`` (compiling on miss).

        The cached entry keeps a strong reference to the source model, so the
        ``id()`` in the key cannot be recycled while the entry is alive.
        """
        return self.lookup(model, overrides)[0]

    def lookup(
        self,
        model,
        overrides: Tuple[Tuple[str, float], ...] = (),
    ) -> Tuple[CompiledModel, bool]:
        """``(compiled, cache_hit)`` — like :meth:`get`, but reporting the hit.

        The flag belongs to *this* lookup, so callers keeping per-batch
        statistics (:class:`~repro.engine.executors.BatchCacheStats`) stay
        accurate even when other threads hit the same cache concurrently —
        a delta on the global counters could not tell the batches apart.
        """
        if isinstance(model, CompiledModel):
            if not overrides:
                return model, False
            # Overrides cannot be applied to an already-compiled model;
            # recompile (with caching) from its source model instead.
            model = model.model
        key = (id(model), _state_token(model), overrides)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[1], True
            self.misses += 1
            compiled = CompiledModel(model, dict(overrides) if overrides else None)
            self._entries[key] = (model, compiled)
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

#: Kernel artifacts (or bare sources) received inside blob envelopes, keyed
#: on ``(fingerprint, frozen overrides)``.  Consulted by
#: :func:`worker_compiled` so a worker's first compile of a model exec's the
#: generated module instead of re-compiling the kinetic-law ASTs.
_WORKER_KERNELS: Dict[Tuple[str, Tuple], object] = {}

#: Blobs this worker has fully processed, as ``(fingerprint, len(blob))``
#: pairs.  A repeat of the same blob skips deserialization entirely (the old
#: known-fingerprint fast path); a *different* blob for a known fingerprint —
#: e.g. a later sweep batch adding kernels for new override sets — has a
#: different length in practice and is processed again.  A length collision
#: only costs the worker a fallback AST compile for the unseen overrides; it
#: can never produce wrong results.
_WORKER_BLOBS_SEEN: Dict[Tuple[str, int], bool] = {}
_WORKER_BLOBS_SEEN_MAX = 256

_WORKER_CACHE_MAX = 64
_WORKER_MODELS_MAX = 64
_WORKER_KERNELS_MAX = 256

#: Guards _WORKER_MODELS / _WORKER_KERNELS: pool worker processes are
#: single-threaded, but the blob memo also runs in the *parent* (serial
#: analysis fan-out), where gather_studies may drive it from several threads
#: at once.
_WORKER_MODELS_LOCK = threading.Lock()


def worker_model_from_blob(fingerprint: str, blob: bytes):
    """The canonical model instance for ``fingerprint``, deserializing once.

    Worker-side entry point: the first payload to arrive with a given
    fingerprint pays the inner-model ``pickle.loads``; later payloads (and
    batches) only decode the cheap envelope, so a fingerprint unpickles and
    compiles at most once per worker process.  Kernel sources in the envelope
    are always registered first — a later batch may bring kernels for
    override sets this worker has not seen, even when the model itself is
    already known.
    """
    seen_key = (fingerprint, len(blob))
    with _WORKER_MODELS_LOCK:
        known = _WORKER_MODELS.get(fingerprint)
        if known is not None and seen_key in _WORKER_BLOBS_SEEN:
            # Exact repeat of an already-processed blob (the common case: one
            # blob shared by every payload of a batch): skip deserialization
            # entirely, as the pre-envelope fast path did.  Refresh recency
            # (as worker_compiled does for _WORKER_CACHE): a hot fingerprint
            # reused every batch must outlive stale ones at eviction.
            _WORKER_MODELS.pop(fingerprint)
            _WORKER_MODELS[fingerprint] = known
            return known
    envelope: _ModelBlob = pickle.loads(blob)
    if envelope.kernels:
        with _WORKER_MODELS_LOCK:
            for overrides, source in envelope.kernels.items():
                _WORKER_KERNELS.setdefault((fingerprint, overrides), source)
            while len(_WORKER_KERNELS) > _WORKER_KERNELS_MAX:
                _WORKER_KERNELS.pop(next(iter(_WORKER_KERNELS)))
    with _WORKER_MODELS_LOCK:
        _WORKER_BLOBS_SEEN[seen_key] = True
        while len(_WORKER_BLOBS_SEEN) > _WORKER_BLOBS_SEEN_MAX:
            _WORKER_BLOBS_SEEN.pop(next(iter(_WORKER_BLOBS_SEEN)))
        known = _WORKER_MODELS.get(fingerprint)
        if known is not None:
            _WORKER_MODELS.pop(fingerprint)
            _WORKER_MODELS[fingerprint] = known
            return known
    model = pickle.loads(envelope.model_pickle)
    with _WORKER_MODELS_LOCK:
        while len(_WORKER_MODELS) >= _WORKER_MODELS_MAX:
            _WORKER_MODELS.pop(next(iter(_WORKER_MODELS)))
        _WORKER_MODELS[fingerprint] = model
    return model


def register_worker_kernel(fingerprint: Optional[str], overrides: Tuple, kernel) -> None:
    """Register one job's shipped kernel for :func:`worker_compiled` (worker side).

    The executor attaches each payload's own ``(model, overrides)`` kernel to
    the payload (not every override set of the batch to every payload, which
    would make sweep IPC quadratic); this records it under the worker's
    ``(fingerprint, overrides)`` key.  ``None`` kernels are a no-op.
    """
    if kernel is None or fingerprint is None:
        return
    key = (fingerprint, overrides)
    with _WORKER_MODELS_LOCK:
        if key not in _WORKER_KERNELS:
            _WORKER_KERNELS[key] = kernel
            while len(_WORKER_KERNELS) > _WORKER_KERNELS_MAX:
                _WORKER_KERNELS.pop(next(iter(_WORKER_KERNELS)))


def worker_compiled(
    model,
    fingerprint: Optional[str],
    overrides: Tuple[Tuple[str, float], ...] = (),
) -> Tuple[CompiledModel, bool]:
    """Worker-side compile with memoization on the parent-computed fingerprint.

    Returns ``(compiled, cache_hit)`` so the hit can be reported back to the
    parent and aggregated into the ensemble's statistics.  When the parent
    shipped generated kernel source for this ``(fingerprint, overrides)``
    pair, the compile exec's that source instead of re-deriving it from the
    model's kinetic-law ASTs — the cheap cold-start path.
    """
    if fingerprint is None:
        return CompiledModel(model, dict(overrides) if overrides else None), False
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
        source = entry
        code = None
        if isinstance(entry, tuple):  # a KernelArtifact (possibly re-pickled)
            source = entry[0]
            if bytes(entry[1]) == bytes(importlib.util.MAGIC_NUMBER):
                try:
                    code = marshal.loads(entry[2])
                except Exception:
                    code = None
        try:
            compiled = CompiledModel(
                model,
                dict(overrides) if overrides else None,
                kernel_source=source,
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
