"""Compiled-model caching for the ensemble engine.

Compiling a :class:`repro.sbml.Model` into a :class:`CompiledModel`
(generating and byte-compiling its kernel) costs far more than a short SSA
run, and every multi-run study used to pay it once *per run*.  The engine
pays it once per distinct ``(model content, frozen parameter overrides)``
pair instead, with one keying rule in every process:
``(model_fingerprint(model), overrides)``, the SHA-1 of the model's pickle.

* in-process (serial executor and single runs), :func:`default_cache` keys
  on it, so two builds of one circuit share an entry and an in-place edit
  such as ``model.set_initial_amount(...)`` keys the edited model apart;
* in worker processes, :func:`worker_compiled` looks up a second
  :class:`CompiledModelCache` under the fingerprint the parent computed once
  per model, so each worker compiles each distinct ``(model, overrides)``
  pair once, not once per job.

Every miss compiles through
:func:`~repro.stochastic.propensity.compile_model`, so a job whose model is
already a :class:`CompiledModel` counts hits and misses alike in every
process.  The process that runs a kernel compiles it: a worker payload
carries the model's pickle (its blob, see :func:`model_blob`) and the blob's
fingerprint, never generated code, and a worker unpickles and compiles the
blob only on a miss of its own cache.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..stochastic.propensity import CompiledModel, compile_model

__all__ = [
    "CompiledModelCache",
    "default_cache",
    "model_fingerprint",
    "model_blob",
    "worker_compiled",
]


def model_fingerprint(model) -> str:
    """A content fingerprint of a model, for cross-process cache keys."""
    return hashlib.sha1(pickle.dumps(model)).hexdigest()


def model_blob(model) -> Tuple[bytes, str]:
    """``(pickled model, content fingerprint)``, serialized once.

    Executors ship the blob (not the live object) inside each payload: the
    parent pays one ``pickle.dumps`` per distinct model and per-payload
    transfer reduces to a bytes copy, while a worker unpickles the blob only
    when it misses its compiled-model cache (:func:`worker_compiled`).
    """
    data = pickle.dumps(model)
    return data, hashlib.sha1(data).hexdigest()


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
        blob: Optional[bytes] = None,
    ) -> Tuple[CompiledModel, bool]:
        """``(compiled, cache_hit)`` — like :meth:`get`, but reporting the hit.

        ``fingerprint`` is ``model_fingerprint(model)`` when the caller has
        it already (an executor fingerprints each model object once per job
        list).  A worker passes ``model=None`` with the model's pickle as
        ``blob``, which is unpickled only on a miss.  A miss compiles by
        :func:`~repro.stochastic.propensity.compile_model`'s rule.  The flag
        belongs to *this* lookup, so callers keeping per-batch statistics
        (:class:`~repro.engine.core.BatchCacheStats`) stay accurate even when
        other threads hit the same cache concurrently — a delta on the global
        counters could not tell the batches apart.
        """
        key = (fingerprint or model_fingerprint(model), overrides)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return compiled, True
            self.misses += 1
            if model is None:
                model = pickle.loads(blob)
            compiled = compile_model(model, dict(overrides) if overrides else None)
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


#: The worker-process cache (:func:`worker_compiled`).  It survives across
#: the dispatches a worker runs and, with persistent pools, across batches;
#: it is kept apart from :func:`default_cache` so that a fork-started pool
#: does not inherit the parent's entries.
_WORKER_CACHE = CompiledModelCache()


def worker_compiled(
    fingerprint: str,
    blob: bytes,
    overrides: Tuple[Tuple[str, float], ...] = (),
) -> Tuple[CompiledModel, bool]:
    """Worker side: ``(compiled, cache_hit)`` for ``blob`` under ``overrides``.

    ``blob`` is a model's pickle and ``fingerprint`` its hash, computed once
    in the parent; the blob is unpickled and compiled only on a miss.  The
    hit is reported back to the parent and aggregated into the ensemble's
    statistics.
    """
    return _WORKER_CACHE.lookup(None, overrides, fingerprint, blob)
