"""The canonical design-space search request: :class:`SearchSpec`.

A search inverts the replicate study's question.  A study asks "how reliably
does *this* circuit compute its function"; a search asks "given a Boolean
*function*, which part assignment computes it best" — and ranks the whole
candidate space (repressor permutations × RBS/promoter variant overrides) by
(fitness, robustness).

Like :class:`~repro.engine.StudySpec`, the spec is frozen, canonical, JSON
round-trippable with a versioned schema, and content-addressable:
:meth:`cache_key` digests everything that determines the search *result* —
the function and inputs, the library name **and the resolved model content
of the first candidate** (so silently changed library kinetics or synthesis
rules change the key), the variant grid, the allocator policy and its
budgets, the analyzer configuration, the stimulus protocol and the seed.
Execution knobs (``workers``, ``batch_size``) are excluded: the engine runs
the same bits on every backend, and the search layer allocates replicates by
deterministic rules over those bits, so the frontier cannot depend on them.

The same spec is consumed identically by the Python API
(:func:`repro.search.run_design_search`), the CLI (``genlogic search``) and
the HTTP service (``POST /v1/search``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..engine.spec import frozen_overrides
from ..errors import EngineError
from ..gates.assignment import PartAssignment, count_assignments, enumerate_assignments
from ..gates.parts_library import LIBRARY_NAMES, PartsLibrary, resolve_library
from ..gates.synthesis import synthesize_from_hex
from ..stochastic import canonical_simulator_name

__all__ = ["SEARCH_SPEC_SCHEMA", "SearchSpec"]

#: Version of the SearchSpec wire schema.  Bump when a field is added,
#: removed or changes meaning; :meth:`SearchSpec.from_dict` rejects specs
#: from a *newer* schema instead of silently dropping fields.
SEARCH_SPEC_SCHEMA = 1

_ALLOCATORS = ("racing", "fixed")

_DEFAULT_INPUTS = ("LacI", "TetR", "AraC")


@dataclass(frozen=True)
class SearchSpec:
    """One design-space search, described declaratively and canonically.

    Parameters
    ----------
    function:
        Hexadecimal truth-table name of the target Boolean function
        (``"0x0B"``); the candidate netlist is synthesized from it.
    inputs:
        Input protein names, MSB→LSB of the combination index.
    output_protein:
        Reporter carried by the circuit output.
    library:
        Named parts library (see
        :func:`repro.gates.resolve_library`): ``"diverse"`` (default) gives
        every repressor distinct kinetics so permutations genuinely differ.
    variants:
        Grid of kinetic parameter-override sets (RBS/promoter variants), one
        frozen ``((name, value), ...)`` tuple per variant.  Each candidate is
        one repressor permutation × one variant; overrides apply at
        simulation time, so variants of a permutation share a compiled model.
    max_candidates:
        Cap on the enumerated candidate stream (None = the full space).
    allocator:
        ``"racing"`` (default): every candidate starts at ``n0`` replicates
        and only candidates whose confidence intervals still overlap the
        frontier cut receive further ``refine_step``-sized batches, up to
        ``fixed_replicates`` each — total replicates sublinear in the
        candidate count.  ``"fixed"``: every candidate gets exactly
        ``fixed_replicates`` (the exhaustive baseline).
    n0:
        Initial replicates per candidate (at least 2 — the overlap test
        needs a variance estimate).
    refine_step:
        Replicates added to each still-ambiguous candidate per racing round.
    fixed_replicates:
        Replicates per candidate under ``"fixed"``; per-candidate cap under
        ``"racing"`` (so racing can never spend more than fixed-N would).
    budget_replicates:
        Hard cap on total replicates across the search (None = the
        exhaustive total, ``n_candidates × fixed_replicates``).
    top_k:
        Size of the frontier the racing allocator separates (the cut lies
        between rank ``top_k`` and ``top_k + 1``).
    ci_level:
        Confidence level of the overlap test's intervals.
    threshold / fov_ud / hold_time / repeats / simulator / sample_interval / seed:
        Analyzer configuration and stimulus protocol, exactly as on
        :class:`~repro.engine.StudySpec`.  The seed roots the per-candidate
        ``SeedSequence`` fan-out; ``None`` draws fresh entropy (no cache key).
    workers / batch_size:
        Execution knobs — excluded from :meth:`cache_key`.
    """

    function: str
    inputs: Tuple[str, ...] = _DEFAULT_INPUTS
    output_protein: str = "YFP"
    library: str = "diverse"
    variants: Tuple[Tuple[Tuple[str, float], ...], ...] = ((),)
    max_candidates: Optional[int] = None
    allocator: str = "racing"
    n0: int = 3
    refine_step: int = 2
    fixed_replicates: int = 10
    budget_replicates: Optional[int] = None
    top_k: int = 5
    ci_level: float = 0.95
    threshold: float = 15.0
    fov_ud: float = 0.25
    hold_time: float = 200.0
    repeats: int = 1
    simulator: str = "ssa"
    sample_interval: float = 1.0
    seed: Optional[int] = None
    workers: int = 1
    batch_size: int = 1
    schema: int = SEARCH_SPEC_SCHEMA

    def __post_init__(self) -> None:
        if not isinstance(self.function, str) or not self.function:
            raise EngineError("SearchSpec.function must be a hex truth-table name")
        try:
            int(self.function, 16)
        except ValueError:
            raise EngineError(
                f"SearchSpec.function {self.function!r} is not a valid hexadecimal name",
            ) from None
        inputs = tuple(str(name) for name in self.inputs)
        if not inputs or len(set(inputs)) != len(inputs):
            raise EngineError("SearchSpec.inputs must be distinct, non-empty names")
        object.__setattr__(self, "inputs", inputs)
        if not isinstance(self.output_protein, str) or not self.output_protein:
            raise EngineError("SearchSpec.output_protein must be a species name")
        if str(self.library).lower() not in LIBRARY_NAMES:
            raise EngineError(
                f"SearchSpec.library {self.library!r} is unknown; available: {LIBRARY_NAMES}",
            )
        object.__setattr__(self, "library", str(self.library).lower())
        variants = tuple(frozen_overrides(variant) for variant in self.variants)
        if not variants:
            raise EngineError("SearchSpec.variants needs at least one override set")
        object.__setattr__(self, "variants", variants)
        if self.allocator not in _ALLOCATORS:
            raise EngineError(
                f"SearchSpec.allocator must be one of {_ALLOCATORS}, got {self.allocator!r}",
            )
        object.__setattr__(self, "simulator", canonical_simulator_name(self.simulator))
        for name in ("n0", "refine_step", "fixed_replicates", "top_k", "repeats",
                     "workers", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise EngineError(f"SearchSpec.{name} must be a positive integer")
        if self.n0 < 2:
            raise EngineError(
                "SearchSpec.n0 must be at least 2: the racing allocator's "
                "overlap test needs a variance estimate per candidate",
            )
        if self.fixed_replicates < self.n0:
            raise EngineError("SearchSpec.fixed_replicates must be >= n0")
        for name in ("max_candidates", "budget_replicates"):
            value = getattr(self, name)
            if value is not None:
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise EngineError(f"SearchSpec.{name} must be a positive integer or None")
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(self.seed, int):
                try:
                    coerced = int(self.seed)
                except (TypeError, ValueError):
                    raise EngineError("SearchSpec.seed must be an integer or None") from None
                object.__setattr__(self, "seed", coerced)
        for name in ("threshold", "fov_ud", "hold_time", "sample_interval"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value) or value <= 0:
                raise EngineError(f"SearchSpec.{name} must be positive and finite")
        ci_level = float(self.ci_level)
        object.__setattr__(self, "ci_level", ci_level)
        if not 0.0 < ci_level < 1.0:
            raise EngineError("SearchSpec.ci_level must be in (0, 1)")
        if not isinstance(self.schema, int) or self.schema < 1:
            raise EngineError("SearchSpec.schema must be a positive integer")
        if self.schema > SEARCH_SPEC_SCHEMA:
            raise EngineError(
                f"SearchSpec schema {self.schema} is newer than this package "
                f"understands (max {SEARCH_SPEC_SCHEMA}); upgrade genlogic",
            )

    # -- construction ----------------------------------------------------------
    def replace(self, **changes: Any) -> "SearchSpec":
        """A copy with ``changes`` applied (re-validated and re-canonicalized)."""
        return dataclasses.replace(self, **changes)

    # -- resolution ------------------------------------------------------------
    def parts(self) -> PartsLibrary:
        """The named parts library, freshly built."""
        return resolve_library(self.library)

    def netlist(self):
        """A fresh synthesis of the target function (deterministic gate names)."""
        return synthesize_from_hex(
            self.function,
            inputs=list(self.inputs),
            name=f"search_{self.function.lower()}",
        )

    def candidates(self) -> List[PartAssignment]:
        """The enumerated candidate stream this spec describes (materialized)."""
        return list(
            enumerate_assignments(
                self.netlist(),
                self.parts(),
                output_protein=self.output_protein,
                variants=list(self.variants),
                limit=self.max_candidates,
            ),
        )

    def n_candidates(self) -> int:
        """Size of the candidate stream without materializing it."""
        total = count_assignments(
            self.netlist(),
            self.parts(),
            output_protein=self.output_protein,
            variants=list(self.variants),
        )
        if self.max_candidates is not None:
            total = min(total, self.max_candidates)
        return total

    def exhaustive_replicates(self) -> int:
        """Replicates an exhaustive fixed-N evaluation of the space costs."""
        return self.n_candidates() * self.fixed_replicates

    def total_budget(self) -> int:
        """The hard replicate cap: ``budget_replicates`` or the exhaustive total."""
        if self.budget_replicates is not None:
            return self.budget_replicates
        return self.exhaustive_replicates()

    # -- content addressing ----------------------------------------------------
    def cache_key(self) -> str:
        """Content-addressed digest of everything determining the frontier.

        Includes the model fingerprint of candidate 0 (resolved through the
        live synthesis + library code), anchoring the key to the actual model
        content the way :meth:`repro.engine.StudySpec.cache_key` does — two
        processes agree on the key exactly when they would compute the same
        frontier.  Raises :class:`~repro.errors.EngineError` without a seed.
        """
        if self.seed is None:
            raise EngineError(
                "a SearchSpec without a seed has no stable cache key (every "
                "execution draws fresh entropy); set seed= to make the search "
                "content-addressable",
            )
        from ..engine.cache import model_fingerprint
        from ..gates.circuits import build_circuit

        candidates = self.candidates()
        if not candidates:
            raise EngineError(f"search space of {self.function!r} is empty")
        anchor = build_circuit(
            self.netlist(),
            library=self.parts(),
            output_protein=self.output_protein,
            assignment=candidates[0],
        )
        payload = {
            "schema": self.schema,
            "function": self.function.lower(),
            "inputs": list(self.inputs),
            "output_protein": self.output_protein,
            "library": self.library,
            "model0": model_fingerprint(anchor.model),
            "variants": [[list(pair) for pair in variant] for variant in self.variants],
            "space": {
                "max_candidates": self.max_candidates,
                "n_candidates": len(candidates),
            },
            "allocator": {
                "name": self.allocator,
                "n0": self.n0,
                "refine_step": self.refine_step,
                "fixed_replicates": self.fixed_replicates,
                "budget_replicates": self.budget_replicates,
                "top_k": self.top_k,
                "ci_level": self.ci_level,
            },
            "protocol": {
                "hold_time": self.hold_time,
                "repeats": self.repeats,
                "simulator": self.simulator,
                "sample_interval": self.sample_interval,
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
        """A JSON-ready dict (variants become ``[[[name, value], ...], ...]``)."""
        data = dataclasses.asdict(self)
        data["inputs"] = list(self.inputs)
        data["variants"] = [[list(pair) for pair in variant] for variant in self.variants]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpec":
        """Parse a dict (e.g. a decoded request body), rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise EngineError("a SearchSpec must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise EngineError(
                f"unknown SearchSpec field(s) {unknown}; known fields: {sorted(known)}",
            )
        if "function" not in data:
            raise EngineError("a SearchSpec needs a 'function' field")
        fields = dict(data)
        if "inputs" in fields:
            fields["inputs"] = tuple(fields["inputs"])
        if "variants" in fields:
            variants = fields["variants"]
            if not isinstance(variants, Sequence) or isinstance(variants, (str, bytes)):
                raise EngineError("SearchSpec.variants must be a list of override sets")
            fields["variants"] = tuple(
                tuple((str(name), float(value)) for name, value in variant)
                for variant in variants
            )
        return cls(**fields)

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "SearchSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise EngineError(f"SearchSpec JSON is malformed: {error}") from None
        return cls.from_dict(data)
