"""The canonical study request object: :class:`StudySpec`.

A web tier needs one serializable object that *names a study* twice over:
once as the request schema (``POST /v1/studies`` bodies are StudySpec JSON)
and once as the identity under content-addressed result caching.

:class:`StudySpec` is that object.  It is

* **frozen** — hashable, safe as a dict key, immune to accidental mutation
  between submission and execution;
* **canonical** — the simulator name is canonicalized, overrides are sorted,
  so two specs describing the same study compare (and serialize) equal;
* **JSON round-trippable** — :meth:`to_json` / :meth:`from_json` with a
  versioned ``schema`` field, so persisted or on-the-wire specs from a newer
  schema are rejected loudly instead of misread;
* **content-addressable** — :meth:`cache_key` digests everything that
  determines the study's *result*: the resolved circuit model's content
  fingerprint (:func:`repro.engine.cache.model_fingerprint`), the frozen
  parameter overrides, the seed, the stimulus protocol (hold time, repeats,
  input clamp levels, schedule), the sampling interval, the simulator, the
  replicate count and the analyzer configuration.  Execution knobs
  (``workers``, ``batch_size``) are deliberately *excluded*: the engine
  guarantees bit-identical results across executors and batch sizes, so they
  cannot change the answer — only how fast it arrives.  The digest is
  deterministic across processes and machines (verified by the
  worker-process tests), which is what lets a service parent and a fabric
  worker agree on a key without talking to each other.

The same spec is consumed identically by the Python API
(:func:`repro.analysis.run_replicate_study`, which takes nothing else), the
CLI (``genlogic verify``) and the HTTP service (:mod:`repro.service`).
Every malformed field raises :class:`~repro.errors.EngineError` naming it,
which the service answers with 400.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from ..errors import EngineError, ReproError, SimulationError
from ..stochastic import canonical_simulator_name

__all__ = [
    "MAX_STUDY_SAMPLES",
    "MAX_STUDY_STEPS",
    "STUDY_SPEC_SCHEMA",
    "StudySpec",
    "as_float",
    "as_seed",
    "check_protocol",
    "frozen_overrides",
]

#: Version of the StudySpec wire schema.  Bump when a field is added,
#: removed or changes meaning; :meth:`StudySpec.from_dict` rejects specs from
#: a *newer* schema instead of silently dropping fields it does not know.
#: Schema 2 dropped the analysis fan-out knob of schema 1.
STUDY_SPEC_SCHEMA = 2

#: Samples a study may ask for, summed over its replicates, with each held
#: input combination counted as one more (:func:`check_protocol`):
#: :meth:`StudySpec.check_cost` refuses more, and
#: :meth:`repro.search.SearchSpec.check_budget` refuses a search replicate
#: over it.  Each sample of a replicate is one state row and each held
#: combination one simulated segment, so this bounds what a worker runs,
#: records and ships.
MAX_STUDY_SAMPLES = 10_000_000

#: Input combinations one replicate may hold in turn (``2**n * repeats``):
#: :meth:`StudySpec.check_cost` and
#: :meth:`repro.search.SearchSpec.check_budget` refuse more.
#: :meth:`StudySpec.cache_key` builds and digests that schedule, ~10 µs a
#: combination on a 2-vCPU Xeon VM, and the service keys a body on its event
#: loop, so this bounds that work at ~0.1 s whatever the hold time.
MAX_STUDY_STEPS = 10_000


def check_protocol(
    subject: str,
    n_inputs: int,
    hold_time: float,
    repeats: int,
    sample_interval: float,
    n_replicates: int = 1,
) -> None:
    """Raise :class:`EngineError` when ``n_replicates`` replicates of a
    stimulus protocol ask for more than :data:`MAX_STUDY_SAMPLES` samples,
    or one replicate holds more than :data:`MAX_STUDY_STEPS` input
    combinations.

    A replicate holds each of ``2**n_inputs`` input combinations
    ``hold_time`` long, ``repeats`` times, and records a sample every
    ``sample_interval``; each held combination counts as one sample more,
    so a tiny hold time cannot make many combinations free.  Counted from
    the protocol alone, before any circuit or schedule is built.
    ``subject`` names what is counted in the message.
    """
    steps = 2**n_inputs * repeats
    try:
        samples = steps * (hold_time / sample_interval + 1) * n_replicates
    except OverflowError:  # an integer field beyond float range
        samples = math.inf
    if samples > MAX_STUDY_SAMPLES:
        raise EngineError(
            f"{subject}: about {samples:.3g} samples; at most {MAX_STUDY_SAMPLES} "
            "are accepted (lower hold_time, repeats or the replicate count, or "
            "raise sample_interval)",
        )
    if steps > MAX_STUDY_STEPS:
        raise EngineError(
            f"{subject}: {steps} input combinations held a replicate; at most "
            f"{MAX_STUDY_STEPS} are accepted (lower repeats)",
        )


def as_float(label: str, value: Any) -> float:
    """``float(value)``, or :class:`EngineError` naming ``label`` for a non-number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise EngineError(f"{label} must be a number") from None


def as_seed(label: str, value: Any) -> Optional[int]:
    """``value`` as a non-negative integer seed; ``None`` stays ``None``.

    Python and numpy integers and integral floats pass; a bool, a fractional
    float, a non-number or a negative raises :class:`EngineError` naming
    ``label`` — a seed of 1.5 must not quietly run (and be cached as) seed 1.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise EngineError(f"{label} must be an integer or None")
    try:
        seed = int(value)
    except (ValueError, OverflowError):  # NaN, infinity
        raise EngineError(f"{label} must be an integer or None") from None
    if seed != value:
        raise EngineError(f"{label} must be an integer or None")
    if seed < 0:
        raise EngineError(f"{label} must be non-negative")
    return seed


def frozen_overrides(
    overrides: Union[None, Mapping[str, float], Iterable[Tuple[str, float]]],
) -> Tuple[Tuple[str, float], ...]:
    """Overrides as a sorted, hashable ``((name, value), ...)`` tuple.

    The canonical frozen form shared by every spec that carries parameter
    overrides (:class:`StudySpec` here, :class:`repro.search.SearchSpec`'s
    variant grid): sorted by name, values coerced to float, duplicate names
    rejected, non-finite values rejected — so two equal override sets always
    compare, hash and serialize identically.
    """
    if overrides is None:
        return ()
    try:
        items = overrides.items() if isinstance(overrides, Mapping) else overrides
        pairs = [(str(name), value) for name, value in items]
    except (TypeError, ValueError):
        raise EngineError("parameter overrides must be (name, value) pairs") from None
    frozen = tuple(
        sorted((name, as_float(f"parameter override {name!r}", value)) for name, value in pairs)
    )
    names = [name for name, _ in frozen]
    if len(set(names)) != len(names):
        raise EngineError(f"duplicate parameter override names in {names}")
    for name, value in frozen:
        if not math.isfinite(value):
            raise EngineError(f"parameter override {name!r} must be finite, got {value}")
    return frozen


@dataclass(frozen=True)
class StudySpec:
    """One replicate study, described declaratively and canonically.

    Parameters
    ----------
    circuit:
        Built-in circuit name (``"and"``, ``"0x0B"``, ``"cello_0x0b"`` ...),
        resolved through :func:`repro.gates.resolve_circuit`.  Specs built
        from a live :class:`~repro.gates.GeneticCircuit` via
        :meth:`for_circuit` carry the object along, so unnamed custom
        circuits work everywhere except JSON re-resolution.
    n_replicates:
        Independent seeded experiments to aggregate.
    threshold / fov_ud:
        Analyzer configuration (digital threshold, acceptable fraction of
        variation).
    hold_time / repeats:
        Stimulus protocol: how long each input combination is held, and how
        many times the exhaustive walk repeats.
    simulator:
        Canonical simulator name or documented alias.
    seed:
        Root seed the per-replicate seeds are fanned out from.  ``None``
        draws fresh entropy — such a spec executes fine but has no stable
        :meth:`cache_key` (and the service will refuse to cache it).
    sample_interval:
        Trace sampling interval of the virtual-laboratory run.
    overrides:
        Parameter overrides applied at model-compile time (part of the
        compiled-model cache key and of :meth:`cache_key`).
    workers / batch_size:
        Execution knobs: worker processes and replicates per dispatch.  They
        tune *how* the study runs, never what it computes — results are
        bit-identical by the engine's contract — so they are excluded from
        :meth:`cache_key`.
    schema:
        Wire-schema version (see :data:`STUDY_SPEC_SCHEMA`).
    """

    circuit: str
    n_replicates: int = 5
    threshold: float = 15.0
    fov_ud: float = 0.25
    hold_time: float = 200.0
    repeats: int = 1
    simulator: str = "ssa"
    seed: Optional[int] = None
    sample_interval: float = 1.0
    overrides: Tuple[Tuple[str, float], ...] = ()
    workers: int = 1
    batch_size: int = 1
    schema: int = STUDY_SPEC_SCHEMA

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, str) or not self.circuit:
            raise EngineError("StudySpec.circuit must be a non-empty circuit name")
        try:
            object.__setattr__(self, "simulator", canonical_simulator_name(self.simulator))
        except SimulationError as error:
            raise EngineError(f"StudySpec.simulator: {error}") from None
        object.__setattr__(self, "overrides", frozen_overrides(self.overrides))
        object.__setattr__(self, "seed", as_seed("StudySpec.seed", self.seed))
        for name in ("n_replicates", "repeats", "workers", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise EngineError(f"StudySpec.{name} must be a positive integer")
        for name in ("threshold", "fov_ud", "hold_time", "sample_interval"):
            value = as_float(f"StudySpec.{name}", getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value) or value <= 0:
                raise EngineError(f"StudySpec.{name} must be positive and finite")
        if not isinstance(self.schema, int) or self.schema < 1:
            raise EngineError("StudySpec.schema must be a positive integer")
        if self.schema > STUDY_SPEC_SCHEMA:
            raise EngineError(
                f"StudySpec schema {self.schema} is newer than this package "
                f"understands (max {STUDY_SPEC_SCHEMA}); upgrade genlogic",
            )

    # -- construction ----------------------------------------------------------
    @classmethod
    def for_circuit(cls, circuit, **fields: Any) -> "StudySpec":
        """Build a spec from a circuit *name or live object* plus field values.

        A :class:`~repro.gates.GeneticCircuit` instance is attached to the
        spec (so resolution never consults the name registry), with its
        ``name`` recorded as the ``circuit`` field; a string is stored as-is
        and resolved lazily on first use.
        """
        if isinstance(circuit, str):
            return cls(circuit=circuit, **fields)
        name = getattr(circuit, "name", None)
        if not name:
            raise EngineError("StudySpec.for_circuit needs a circuit name or GeneticCircuit")
        spec = cls(circuit=str(name), **fields)
        object.__setattr__(spec, "_circuit", circuit)
        return spec

    def replace(self, **changes: Any) -> "StudySpec":
        """A copy with ``changes`` applied (re-validated and re-canonicalized).

        The resolved circuit object (if any) is carried over, so replacing
        execution knobs on a spec built from a live circuit keeps working
        without a registry lookup.
        """
        clone = dataclasses.replace(self, **changes)
        attached = self.__dict__.get("_circuit")
        if attached is not None:
            object.__setattr__(clone, "_circuit", attached)
        return clone

    # -- resolution ------------------------------------------------------------
    def resolve_circuit(self):
        """The :class:`~repro.gates.GeneticCircuit` this spec names (memoized).

        A name that builds no circuit raises :class:`~repro.errors.EngineError`.
        """
        attached = self.__dict__.get("_circuit")
        if attached is not None:
            return attached
        from ..gates.circuits import resolve_circuit

        try:
            circuit = resolve_circuit(self.circuit)
        except ReproError as error:
            raise EngineError(f"StudySpec.circuit: {error}") from None
        object.__setattr__(self, "_circuit", circuit)
        return circuit

    def experiment(self):
        """The :class:`~repro.vlab.LogicExperiment` configured by this spec."""
        from ..vlab.experiment import LogicExperiment

        return LogicExperiment.for_spec(self)

    def template_job(self):
        """The :class:`~repro.engine.SimulationJob` template (seedless).

        Per-replicate seeds are fanned out from :attr:`seed` by
        :func:`repro.engine.replicate_jobs` at submission time; the template
        itself carries none.
        """
        return self.experiment().job(
            hold_time=self.hold_time,
            repeats=self.repeats,
            overrides=dict(self.overrides) if self.overrides else None,
        )

    # -- cost ------------------------------------------------------------------
    def check_cost(self) -> None:
        """Raise :class:`EngineError` when the study asks for more than
        :data:`MAX_STUDY_STEPS` held input combinations per replicate or
        :data:`MAX_STUDY_SAMPLES` samples over all its replicates.

        Counted by :func:`check_protocol`, with ``n_inputs`` the attached
        circuit's input count or, for a name, the most inputs a named
        circuit takes (a Cello circuit's three), so the count bounds the
        study's own.  The service checks it before computing any key.
        """
        attached = self.__dict__.get("_circuit")
        if attached is not None:
            n_inputs = attached.n_inputs
        else:
            from ..gates.cello import CELLO_INPUT_SPECIES

            n_inputs = len(CELLO_INPUT_SPECIES)
        check_protocol(
            "the study",
            n_inputs,
            self.hold_time,
            self.repeats,
            self.sample_interval,
            self.n_replicates,
        )

    # -- content addressing ----------------------------------------------------
    def cache_key(self) -> str:
        """A content-addressed digest of everything that determines the result.

        Two specs share a key exactly when they describe the same
        computation: same resolved model *content* (via
        :func:`~repro.engine.cache.model_fingerprint`, so rebuilding a
        circuit from scratch — in another process, on another machine —
        produces the same key), same stimulus schedule and clamp levels,
        same sampling, simulator, seed, replicate count, overrides and
        analyzer configuration.  Execution knobs do not participate, because
        the engine's bit-identical contract makes them irrelevant to the
        result.  Raises :class:`~repro.errors.EngineError` when the spec has
        no seed — an unseeded study draws fresh entropy per run and has no
        stable identity to cache under.
        """
        if self.seed is None:
            raise EngineError(
                "a StudySpec without a seed has no stable cache key (every "
                "execution draws fresh entropy); set seed= to make the study "
                "content-addressable",
            )
        from .cache import model_fingerprint

        experiment = self.experiment()
        job = self.template_job()
        # The schedule is a plain tree of floats/strings built deterministically
        # from the protocol, so its pickle is a stable content token.
        schedule_digest = hashlib.sha256(pickle.dumps(job.schedule)).hexdigest()
        payload = {
            "schema": self.schema,
            "model": model_fingerprint(experiment.model),
            "experiment": {
                "inputs": list(experiment.input_species),
                "output": experiment.output_species,
                "input_high": experiment.input_high,
                "input_low": experiment.input_low,
            },
            "job": {
                "simulator": job.simulator,
                "t_end": job.t_end,
                "sample_interval": job.sample_interval,
                "schedule": schedule_digest,
                "overrides": [list(pair) for pair in self.overrides],
            },
            "study": {
                "n_replicates": self.n_replicates,
                "seed": self.seed,
            },
            "analyzer": {
                "threshold": self.threshold,
                "fov_ud": self.fov_ud,
            },
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (overrides become ``[[name, value], ...]``)."""
        data = dataclasses.asdict(self)
        data["overrides"] = [list(pair) for pair in self.overrides]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Parse a dict (e.g. a decoded request body), rejecting unknown keys.

        Unknown fields raise instead of being dropped: a typo in a request
        (``"thresold"``) must not silently run the default study, and a field
        from a future schema must not be half-honoured.
        """
        if not isinstance(data, Mapping):
            raise EngineError("a StudySpec must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise EngineError(
                f"unknown StudySpec field(s) {unknown}; known fields: {sorted(known)}",
            )
        if "circuit" not in data:
            raise EngineError("a StudySpec needs a 'circuit' field")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "StudySpec":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as error:  # bad JSON or UTF-8, huge ints, deep nesting
            raise EngineError(f"StudySpec JSON is malformed: {error}") from None
        return cls.from_dict(data)

    # -- pickling --------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # Drop the memoized circuit: pickles stay light and deterministic, and
        # the receiving process re-resolves (or re-attaches) its own instance.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
