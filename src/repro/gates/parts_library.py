"""Cello-like repressor parts library.

Cello implements every logic gate as a repressor-based NOT/NOR: the gate's
input promoters drive transcription of a repressor protein, which in turn
shuts off the gate's output promoter.  A circuit therefore needs one
*distinct* repressor per gate (so the gates do not cross-talk), drawn from a
library of characterised repressor/promoter pairs.

This module provides that library: the twelve repressors used by Cello
(Nielsen et al. 2016) plus the classic LacI/TetR/cI trio of the paper's
Figure 1, each with a response function (maximal promoter strength, Hill
repression coefficient ``K``, Hill cooperativity ``n``) expressed directly in
molecule counts so the resulting SBML models live on the same scale as the
paper's 15-molecule threshold.

The absolute values are not the published Cello parameters (those are in
arbitrary fluorescence units per a proprietary characterisation pipeline);
they are chosen so that a gate's settled output is ≈40 molecules when ON and
≈1–4 molecules when OFF, and so that an input applied at the paper's
15-molecule threshold level already switches a gate firmly (repression
coefficient K = 7 molecules), giving clean separation around that threshold
while keeping stochastic simulations cheap.  The
substitution is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

from ..errors import ModelError

__all__ = [
    "RepressorPart",
    "ReporterPart",
    "InputSignal",
    "PartsLibrary",
    "default_library",
    "diverse_library",
    "resolve_library",
    "LIBRARY_NAMES",
]


@dataclass(frozen=True)
class RepressorPart:
    """A characterised repressor / repressible-promoter pair.

    Attributes
    ----------
    name:
        Protein (species) name of the repressor, e.g. ``"PhlF"``.
    promoter:
        Name of the promoter the repressor shuts off, e.g. ``"pPhlF"``.
    strength:
        Maximal production rate from the promoter (molecules / time unit).
    K:
        Repressor amount at which the promoter is at half activity.
    n:
        Hill cooperativity of the repression.
    degradation:
        First-order degradation/dilution rate of the repressor protein.
    """

    name: str
    promoter: str
    strength: float = 4.0
    K: float = 7.0
    n: float = 4.0
    degradation: float = 0.1

    def __post_init__(self) -> None:
        if self.strength <= 0 or self.K <= 0 or self.n <= 0 or self.degradation <= 0:
            raise ModelError(f"repressor {self.name!r} has non-positive kinetics")


@dataclass(frozen=True)
class ReporterPart:
    """A fluorescent reporter protein used for circuit outputs."""

    name: str
    degradation: float = 0.1

    def __post_init__(self) -> None:
        if self.degradation <= 0:
            raise ModelError(f"reporter {self.name!r} has non-positive degradation")


@dataclass(frozen=True)
class InputSignal:
    """An externally controlled input protein (clamped by the virtual lab).

    ``low`` / ``high`` are the molecule counts used for digital 0 / 1, and
    ``K`` / ``n`` the response the input exerts on promoters it represses.
    """

    name: str
    low: float = 0.0
    high: float = 40.0
    K: float = 7.0
    n: float = 4.0

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ModelError(f"input {self.name!r} must have high > low")
        if self.K <= 0 or self.n <= 0:
            raise ModelError(f"input {self.name!r} has non-positive response parameters")


#: The Cello repressors (Nielsen et al. 2016) plus the Figure-1 classics.
_CELLO_REPRESSOR_NAMES = [
    "PhlF",
    "SrpR",
    "BM3R1",
    "HlyIIR",
    "BetI",
    "AmtR",
    "QacR",
    "IcaRA",
    "LitR",
    "LmrA",
    "PsrA",
    "AmeR",
    "CI",
    "LacI",
    "TetR",
]

_DEFAULT_INPUT_NAMES = ["LacI", "TetR", "AraC", "LuxR"]
_DEFAULT_REPORTER_NAMES = ["GFP", "YFP", "RFP", "BFP"]


class PartsLibrary:
    """A pool of repressors, reporters and input signals for circuit assembly.

    Part *selection* is pure: :meth:`select_repressor` answers "which
    repressor would be picked given these unavailable names" without touching
    any state, and :mod:`repro.gates.assignment` builds entire circuit
    assignments on top of it — passing the names already used, so that every
    gate of a circuit gets a different repressor, mirroring Cello's no-reuse
    constraint.  A library holds no per-circuit state.
    """

    def __init__(
        self,
        repressors: Sequence[RepressorPart],
        reporters: Sequence[ReporterPart],
        inputs: Sequence[InputSignal],
    ):
        self.repressors: Dict[str, RepressorPart] = {}
        for part in repressors:
            if part.name in self.repressors:
                raise ModelError(f"duplicate repressor {part.name!r} in library")
            self.repressors[part.name] = part
        self.reporters: Dict[str, ReporterPart] = {r.name: r for r in reporters}
        self.inputs: Dict[str, InputSignal] = {s.name: s for s in inputs}

    # -- selection (pure) ------------------------------------------------------
    def select_repressor(self, unavailable: Sequence[str] = ()) -> RepressorPart:
        """The first repressor not named in ``unavailable`` (pure, no state).

        This is the library's selection rule — first fit in insertion order —
        as a pure function: calling it never records anything, so the same
        arguments always return the same part.  Names double-booked as input
        signals of a circuit belong in ``unavailable`` to avoid cross-talk,
        as do repressors already carrying other nets.
        """
        banned = set(unavailable)
        for name, part in self.repressors.items():
            if name not in banned:
                return part
        raise ModelError(
            "parts library exhausted: no repressor available outside "
            f"{sorted(banned)}",
        )

    def copy(self) -> "PartsLibrary":
        """An independent library with the same parts."""
        return PartsLibrary(
            list(self.repressors.values()),
            list(self.reporters.values()),
            list(self.inputs.values()),
        )

    # -- queries ---------------------------------------------------------------
    def repressor(self, name: str) -> RepressorPart:
        try:
            return self.repressors[name]
        except KeyError:
            raise ModelError(f"library has no repressor named {name!r}") from None

    def reporter(self, name: str) -> ReporterPart:
        try:
            return self.reporters[name]
        except KeyError:
            raise ModelError(f"library has no reporter named {name!r}") from None

    def input_signal(self, name: str) -> InputSignal:
        if name in self.inputs:
            return self.inputs[name]
        # Inputs not declared explicitly get default response parameters.
        return InputSignal(name)

    def with_kinetics(
        self,
        strength: Optional[float] = None,
        K: Optional[float] = None,
        n: Optional[float] = None,
        degradation: Optional[float] = None,
    ) -> "PartsLibrary":
        """A copy of the library with uniformly overridden kinetics.

        Used by parameter sweeps (e.g. the threshold-robustness experiment of
        Figure 5) to rescale every gate at once.
        """
        new_repressors = []
        for part in self.repressors.values():
            new_repressors.append(
                replace(
                    part,
                    strength=strength if strength is not None else part.strength,
                    K=K if K is not None else part.K,
                    n=n if n is not None else part.n,
                    degradation=degradation if degradation is not None else part.degradation,
                ),
            )
        new_inputs = []
        for signal in self.inputs.values():
            new_inputs.append(
                replace(
                    signal,
                    K=K if K is not None else signal.K,
                    n=n if n is not None else signal.n,
                ),
            )
        return PartsLibrary(new_repressors, list(self.reporters.values()), new_inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PartsLibrary(repressors={len(self.repressors)}, "
            f"reporters={len(self.reporters)}, inputs={len(self.inputs)})"
        )


def default_library(
    strength: float = 4.0,
    K: float = 7.0,
    n: float = 4.0,
    degradation: float = 0.1,
    input_high: float = 40.0,
) -> PartsLibrary:
    """The standard parts library used by the named circuits and benchmarks.

    The defaults give every gate an ON level of ``strength / degradation`` =
    40 molecules and an OFF level of a few molecules, cleanly separated by
    the paper's 15-molecule threshold.
    """
    repressors = [
        RepressorPart(
            name=name,
            promoter=f"p{name}",
            strength=strength,
            K=K,
            n=n,
            degradation=degradation,
        )
        for name in _CELLO_REPRESSOR_NAMES
    ]
    reporters = [
        ReporterPart(name=name, degradation=degradation) for name in _DEFAULT_REPORTER_NAMES
    ]
    inputs = [
        InputSignal(name=name, low=0.0, high=input_high, K=K, n=n)
        for name in _DEFAULT_INPUT_NAMES
    ]
    return PartsLibrary(repressors, reporters, inputs)


#: Kinetic ladders of :func:`diverse_library`.  The cycle lengths (5, 4, 3)
#: are pairwise coprime, so each of the 15 repressors gets a distinct
#: (strength, K, n) combination.  Strengths keep every gate's ON level
#: (``strength / degradation`` = 26–64 molecules) above the paper's
#: 15-molecule threshold while spreading how much headroom each part has.
_DIVERSE_STRENGTHS = [2.6, 3.4, 4.2, 5.2, 6.4]
_DIVERSE_KS = [5.0, 6.5, 8.0, 9.5]
_DIVERSE_NS = [2.4, 3.2, 4.0]


def diverse_library(
    degradation: float = 0.1,
    input_high: float = 40.0,
) -> PartsLibrary:
    """A parts library whose repressors have deliberately *different* kinetics.

    :func:`default_library` gives every repressor identical response
    parameters, which makes all part assignments of a circuit statistically
    equivalent — fine for verifying one circuit, useless for *searching* over
    assignments.  This library assigns each repressor a distinct
    (strength, K, n) combination from fixed ladders, deterministically by its
    position in the Cello name list, so repressor permutations genuinely
    differ in fitness and a design-space search has a real landscape to rank.
    """
    repressors = [
        RepressorPart(
            name=name,
            promoter=f"p{name}",
            strength=_DIVERSE_STRENGTHS[index % len(_DIVERSE_STRENGTHS)],
            K=_DIVERSE_KS[index % len(_DIVERSE_KS)],
            n=_DIVERSE_NS[index % len(_DIVERSE_NS)],
            degradation=degradation,
        )
        for index, name in enumerate(_CELLO_REPRESSOR_NAMES)
    ]
    reporters = [
        ReporterPart(name=name, degradation=degradation) for name in _DEFAULT_REPORTER_NAMES
    ]
    inputs = [
        InputSignal(name=name, low=0.0, high=input_high) for name in _DEFAULT_INPUT_NAMES
    ]
    return PartsLibrary(repressors, reporters, inputs)


#: Named library factories resolvable from serialized specs (SearchSpec's
#: ``library`` field, the CLI's ``--library``).
_LIBRARY_FACTORIES = {
    "default": default_library,
    "diverse": diverse_library,
}

LIBRARY_NAMES = sorted(_LIBRARY_FACTORIES)


def resolve_library(name: str) -> PartsLibrary:
    """Build the named parts library (``"default"`` or ``"diverse"``).

    The registry the search layer uses to keep libraries serializable: a
    library *name* can live in a frozen spec and travel as JSON, where a live
    :class:`PartsLibrary` cannot.
    """
    try:
        factory = _LIBRARY_FACTORIES[str(name).lower()]
    except KeyError:
        raise ModelError(
            f"unknown parts library {name!r}; available: {LIBRARY_NAMES}",
        ) from None
    return factory()
