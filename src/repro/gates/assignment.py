"""Explicit part assignments: the pure core of circuit composition.

Which repressor carries which internal net is a value, not library state:
searching over many circuits needs a value that *names* a candidate, so that
there is something to enumerate, hash, cache or ship to a worker.

:class:`PartAssignment` is that value: a frozen mapping of assignable gates
to repressor names plus an optional set of kinetic parameter overrides
(RBS/promoter variants).  Composition
(:func:`repro.gates.compose.assign_proteins`) is a pure function of the
netlist, the library and an assignment; :func:`default_assignment` computes
the first-fit assignment used when none is given.
:func:`enumerate_assignments` yields the full candidate stream — repressor
permutations × a variant grid — deterministically and resumably, which is
what the design-space search layer (:mod:`repro.search`) iterates over.

Gate names are stable tokens here: :mod:`repro.gates.synthesis` names gates
deterministically (``g_inv0``, ``g_nor0``, ... in synthesis order), so an
assignment produced against one synthesis of a function applies to every
re-synthesis of the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, permutations
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ModelError
from .netlist import Netlist
from .parts_library import PartsLibrary, default_library

__all__ = [
    "PartAssignment",
    "assignable_gates",
    "default_assignment",
    "enumerate_assignments",
    "count_assignments",
]

#: One variant: parameter overrides as a mapping or an item sequence.
VariantLike = Union[Mapping[str, float], Iterable[Tuple[str, float]]]


def _frozen_overrides(overrides: Optional[VariantLike]) -> Tuple[Tuple[str, float], ...]:
    """Overrides as a sorted, hashable ``((name, value), ...)`` tuple."""
    if overrides is None:
        return ()
    items = overrides.items() if isinstance(overrides, Mapping) else list(overrides)
    frozen = tuple(sorted((str(name), float(value)) for name, value in items))
    names = [name for name, _ in frozen]
    if len(set(names)) != len(names):
        raise ModelError(f"duplicate parameter override names in {names}")
    return frozen


@dataclass(frozen=True)
class PartAssignment:
    """One candidate choice of parts for a netlist.

    Attributes
    ----------
    repressors:
        ``((gate_name, repressor_name), ...)`` for every assignable gate, in
        the netlist's topological gate order.
    overrides:
        Frozen kinetic parameter overrides (RBS/promoter variants) applied at
        simulation time as the job's ``parameter_overrides`` — the circuit
        model itself is identical across variants of one permutation, so
        compiled-model caches stay warm.
    index:
        Position of this candidate in its enumeration stream (metadata only;
        two assignments with equal parts compare equal regardless of where
        they were enumerated).
    """

    repressors: Tuple[Tuple[str, str], ...]
    overrides: Tuple[Tuple[str, float], ...] = ()
    index: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        frozen = tuple((str(gate), str(part)) for gate, part in self.repressors)
        object.__setattr__(self, "repressors", frozen)
        gates = [gate for gate, _ in frozen]
        if len(set(gates)) != len(gates):
            raise ModelError(f"assignment names gate(s) more than once: {gates}")
        parts = [part for _, part in frozen]
        if len(set(parts)) != len(parts):
            raise ModelError(
                f"assignment reuses repressor(s) across gates: {parts} "
                "(Cello's no-reuse constraint)",
            )
        object.__setattr__(self, "overrides", _frozen_overrides(self.overrides))

    # -- queries ---------------------------------------------------------------
    @property
    def gate_names(self) -> Tuple[str, ...]:
        return tuple(gate for gate, _ in self.repressors)

    @property
    def repressor_names(self) -> Tuple[str, ...]:
        return tuple(part for _, part in self.repressors)

    def repressor_for(self, gate_name: str) -> Optional[str]:
        """The repressor assigned to ``gate_name`` (None when not covered)."""
        for gate, part in self.repressors:
            if gate == gate_name:
                return part
        return None

    def label(self) -> str:
        """Compact human-readable tag, e.g. ``"PhlF+SrpR @kmax=2.0"``."""
        parts = "+".join(self.repressor_names) or "(preassigned)"
        if not self.overrides:
            return parts
        knobs = ",".join(f"{name}={value:g}" for name, value in self.overrides)
        return f"{parts} @{knobs}"

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "repressors": [list(pair) for pair in self.repressors],
            "overrides": [list(pair) for pair in self.overrides],
        }
        if self.index is not None:
            data["index"] = self.index
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PartAssignment":
        if not isinstance(data, Mapping):
            raise ModelError("a PartAssignment must be a JSON object")
        known = {"repressors", "overrides", "index"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ModelError(f"unknown PartAssignment field(s) {unknown}")
        repressors = tuple(
            (str(gate), str(part)) for gate, part in data.get("repressors", ())
        )
        overrides = tuple((str(n), float(v)) for n, v in data.get("overrides", ()))
        index = data.get("index")
        return cls(
            repressors=repressors,
            overrides=overrides,
            index=None if index is None else int(index),
        )


def _static_reserved(netlist: Netlist, output_protein: str) -> set:
    """Names never available to assignment: inputs, output, usable pre-assignments."""
    reserved = set(netlist.inputs) | {output_protein}
    for gate in netlist.topological_order():
        if gate.output == netlist.output:
            continue
        if gate.repressor and gate.repressor not in reserved:
            reserved.add(gate.repressor)
    return reserved


def assignable_gates(netlist: Netlist, output_protein: str = "GFP") -> List[str]:
    """Gates needing a repressor from the library, in topological order.

    The output-driving gate carries the reporter, and gates with a usable
    pre-assigned repressor (hand-built circuits) keep it; every other gate is
    assignable.  A pre-assignment colliding with an input, the reporter or an
    earlier pre-assignment is unusable and makes its gate assignable again.
    """
    netlist.check_complete()
    reserved = set(netlist.inputs) | {output_protein}
    names: List[str] = []
    for gate in netlist.topological_order():
        if gate.output == netlist.output:
            continue
        if gate.repressor and gate.repressor not in reserved:
            reserved.add(gate.repressor)
        else:
            names.append(gate.name)
    return names


def default_assignment(
    netlist: Netlist,
    library: Optional[PartsLibrary] = None,
    output_protein: str = "GFP",
    overrides: Optional[VariantLike] = None,
) -> PartAssignment:
    """The first-fit assignment, computed purely.

    Walks the netlist in topological order and gives each assignable gate the
    first library repressor not yet reserved (inputs, the reporter, earlier
    choices and usable pre-assignments all reserve their names) through
    :meth:`PartsLibrary.select_repressor`, without touching any library state.
    """
    netlist.check_complete()
    library = library or default_library()
    reserved = set(netlist.inputs) | {output_protein}
    chosen: List[Tuple[str, str]] = []
    for gate in netlist.topological_order():
        if gate.output == netlist.output:
            continue
        if gate.repressor and gate.repressor not in reserved:
            part_name = gate.repressor
        else:
            part_name = library.select_repressor(unavailable=sorted(reserved)).name
            chosen.append((gate.name, part_name))
        reserved.add(part_name)
    return PartAssignment(repressors=tuple(chosen), overrides=_frozen_overrides(overrides))


def _normalized_variants(
    variants: Optional[Sequence[VariantLike]],
) -> List[Tuple[Tuple[str, float], ...]]:
    if variants is None:
        return [()]
    normalized = [_frozen_overrides(variant) for variant in variants]
    if not normalized:
        raise ModelError("variants must contain at least one override set (may be empty)")
    return normalized


def _candidate_pool(netlist: Netlist, library: PartsLibrary, output_protein: str) -> List[str]:
    reserved = _static_reserved(netlist, output_protein)
    return [name for name in library.repressors if name not in reserved]


def count_assignments(
    netlist: Netlist,
    library: Optional[PartsLibrary] = None,
    output_protein: str = "GFP",
    variants: Optional[Sequence[VariantLike]] = None,
) -> int:
    """Size of the stream :func:`enumerate_assignments` yields.

    ``P(pool, gates) × len(variants)`` where ``pool`` is the number of
    library repressors not reserved by inputs, the reporter or usable
    pre-assignments, and ``gates`` the number of assignable gates.
    """
    gates = assignable_gates(netlist, output_protein)
    library = library or default_library()
    pool = _candidate_pool(netlist, library, output_protein)
    if len(pool) < len(gates):
        return 0
    return math.perm(len(pool), len(gates)) * len(_normalized_variants(variants))


def enumerate_assignments(
    netlist: Netlist,
    library: Optional[PartsLibrary] = None,
    output_protein: str = "GFP",
    variants: Optional[Sequence[VariantLike]] = None,
    start: int = 0,
    limit: Optional[int] = None,
) -> Iterator[PartAssignment]:
    """Yield every candidate :class:`PartAssignment` for ``netlist``.

    The stream is the cross product of repressor permutations (assignable
    gates drawing from the unreserved library pool, in library insertion
    order) and the ``variants`` grid of parameter-override sets (default: one
    empty variant).  Permutations are the outer loop, variants the inner one,
    and each yielded assignment carries its stream position as ``.index`` —
    so the order is deterministic, and the stream is resumable: ``start=K``
    skips straight to candidate ``K`` (permutation skipping is arithmetic,
    not a re-enumeration), ``limit=N`` stops after ``N`` candidates.

    The very first candidate (``start=0``, no variants) is exactly
    :func:`default_assignment`: first-fit is the first permutation.
    """
    if start < 0:
        raise ModelError("enumerate_assignments start must be non-negative")
    if limit is not None and limit < 0:
        raise ModelError("enumerate_assignments limit must be non-negative")
    gates = assignable_gates(netlist, output_protein)
    library = library or default_library()
    pool = _candidate_pool(netlist, library, output_protein)
    if len(pool) < len(gates):
        raise ModelError(
            f"library pool of {len(pool)} repressor(s) cannot cover "
            f"{len(gates)} assignable gate(s)",
        )
    variant_sets = _normalized_variants(variants)
    n_variants = len(variant_sets)
    start_perm, start_variant = divmod(start, n_variants)

    index = start_perm * n_variants + start_variant
    yielded = 0
    first = True
    for perm in islice(permutations(pool, len(gates)), start_perm, None):
        variant_offset = start_variant if first else 0
        first = False
        for variant in variant_sets[variant_offset:]:
            if limit is not None and yielded >= limit:
                return
            yield PartAssignment(
                repressors=tuple(zip(gates, perm)),
                overrides=variant,
                index=index,
            )
            index += 1
            yielded += 1
    return
