"""Input stimulus protocols.

To recover the Boolean behaviour of an n-input circuit, the virtual
laboratory must walk the circuit through input combinations, holding each one
long enough for the output to respond — the paper applies every combination
for at least the circuit's propagation delay (1,000 time units in its
experiments, for a 10,000-unit run).  A :class:`StimulusProtocol` captures
that walk: which combinations, in which order, held for how long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple


from ..errors import ExperimentError
from ..stochastic.events import InputSchedule
from ..stochastic.rng import make_rng

__all__ = [
    "StimulusProtocol",
    "exhaustive_protocol",
    "gray_code_protocol",
    "random_protocol",
    "custom_protocol",
]


def _gray_code(n_bits: int) -> List[int]:
    """Indices 0..2^n-1 in reflected-Gray-code order."""
    return [i ^ (i >> 1) for i in range(2**n_bits)]


@dataclass
class StimulusProtocol:
    """A sequence of input combinations, each held for a fixed time.

    Attributes
    ----------
    n_inputs:
        Number of circuit inputs.
    combinations:
        Input combinations as bit tuples, in application order.  Combinations
        may repeat (e.g. several sweeps through the truth table).
    hold_time:
        Time units each combination is held; must exceed the circuit's
        propagation delay for the analysis to recover correct logic (the
        paper demonstrates what goes wrong otherwise).
    """

    n_inputs: int
    combinations: List[Tuple[int, ...]]
    hold_time: float

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ExperimentError("a protocol needs at least one input")
        if self.hold_time <= 0:
            raise ExperimentError("hold_time must be positive")
        if not self.combinations:
            raise ExperimentError("a protocol needs at least one combination")
        cleaned = []
        for combination in self.combinations:
            if len(combination) != self.n_inputs:
                raise ExperimentError(
                    f"combination {tuple(combination)} does not have {self.n_inputs} bits",
                )
            cleaned.append(tuple(int(bool(b)) for b in combination))
        self.combinations = cleaned

    # -- derived quantities ----------------------------------------------------
    @property
    def total_time(self) -> float:
        """Total simulation time the protocol spans."""
        return self.hold_time * len(self.combinations)

    @property
    def n_steps(self) -> int:
        return len(self.combinations)

    def covers_all_combinations(self) -> bool:
        """True when every one of the 2^n combinations appears at least once."""
        return len(set(self.combinations)) == 2**self.n_inputs

    def combination_indices(self) -> List[int]:
        """Combination indices (first input = MSB) in application order."""
        indices = []
        for combination in self.combinations:
            index = 0
            for bit in combination:
                index = (index << 1) | bit
            indices.append(index)
        return indices

    # -- conversion --------------------------------------------------------------
    def to_schedule(
        self,
        input_species: Sequence[str],
        high: float,
        low: float = 0.0,
    ) -> InputSchedule:
        """Convert to an :class:`InputSchedule` clamping the given species."""
        if len(input_species) != self.n_inputs:
            raise ExperimentError(
                f"protocol has {self.n_inputs} inputs but {len(input_species)} species "
                "were supplied",
            )
        return InputSchedule.from_combinations(
            list(input_species),
            self.combinations,
            self.hold_time,
            high,
            low,
        )

    def repeat(self, times: int) -> "StimulusProtocol":
        """A protocol that runs this one ``times`` times back to back."""
        if times < 1:
            raise ExperimentError("repeat count must be at least 1")
        return StimulusProtocol(self.n_inputs, self.combinations * times, self.hold_time)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.combinations)

    def __len__(self) -> int:
        return len(self.combinations)


def exhaustive_protocol(
    n_inputs: int,
    hold_time: float,
    repeats: int = 1,
) -> StimulusProtocol:
    """All 2^n combinations in ascending binary order, ``repeats`` times."""
    sweep = [
        tuple((index >> (n_inputs - 1 - bit)) & 1 for bit in range(n_inputs))
        for index in range(2**n_inputs)
    ]
    return StimulusProtocol(n_inputs, sweep * max(1, repeats), hold_time)


def gray_code_protocol(
    n_inputs: int,
    hold_time: float,
    repeats: int = 1,
) -> StimulusProtocol:
    """All combinations in Gray-code order (one input flips per step).

    Gray-code ordering minimises the number of simultaneous input flips and
    therefore the length of output transients, which is the gentlest way to
    exercise a slow genetic circuit.
    """
    combinations = []
    for _ in range(max(1, repeats)):
        for index in _gray_code(n_inputs):
            combinations.append(
                tuple((index >> (n_inputs - 1 - bit)) & 1 for bit in range(n_inputs)),
            )
    return StimulusProtocol(n_inputs, combinations, hold_time)


def random_protocol(
    n_inputs: int,
    hold_time: float,
    n_steps: int,
    rng=None,
    ensure_coverage: bool = True,
) -> StimulusProtocol:
    """A random walk over input combinations.

    With ``ensure_coverage`` the first 2^n steps enumerate every combination
    (in random order) so the analysis always sees each one at least once.
    """
    generator = make_rng(rng)
    total = 2**n_inputs
    if n_steps < 1:
        raise ExperimentError("n_steps must be at least 1")
    indices: List[int] = []
    if ensure_coverage:
        if n_steps < total:
            raise ExperimentError(
                f"n_steps={n_steps} cannot cover all {total} combinations; "
                "lower n_inputs, raise n_steps, or pass ensure_coverage=False",
            )
        order = list(range(total))
        generator.shuffle(order)
        indices.extend(order)
    while len(indices) < n_steps:
        indices.append(int(generator.integers(0, total)))
    combinations = [
        tuple((index >> (n_inputs - 1 - bit)) & 1 for bit in range(n_inputs))
        for index in indices
    ]
    return StimulusProtocol(n_inputs, combinations, hold_time)


def custom_protocol(
    combinations: Sequence[Sequence[int]],
    hold_time: float,
) -> StimulusProtocol:
    """A protocol from an explicit list of combinations."""
    combinations = [tuple(c) for c in combinations]
    if not combinations:
        raise ExperimentError("custom protocol needs at least one combination")
    return StimulusProtocol(len(combinations[0]), list(combinations), hold_time)
