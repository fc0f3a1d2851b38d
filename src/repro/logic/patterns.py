"""Recognition of named gate behaviours.

One of the paper's two motivations for logic analysis is that it "helps in
extracting the Boolean logic of a circuit even when the user does not have
any prior knowledge about its expected behaviour".  Reporting that a
recovered truth table *is* a 3-input AND (the paper's observation for circuit
``0x0B`` at a 3-molecule threshold) is far more useful than printing a raw
expression, so this module matches truth tables against the standard n-input
gate families.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Sequence, Tuple

from .truthtable import TruthTable

__all__ = ["GATE_FAMILIES", "identify_gate", "gate_truth_table", "is_named_gate"]


def _and(*bits: int) -> int:
    return int(all(bits))


def _or(*bits: int) -> int:
    return int(any(bits))


def _nand(*bits: int) -> int:
    return int(not all(bits))


def _nor(*bits: int) -> int:
    return int(not any(bits))


def _xor(*bits: int) -> int:
    return int(sum(bits) % 2 == 1)


def _xnor(*bits: int) -> int:
    return int(sum(bits) % 2 == 0)


def _buffer(*bits: int) -> int:
    return int(bits[0])


def _not(*bits: int) -> int:
    return int(not bits[0])


def _majority(*bits: int) -> int:
    return int(sum(bits) > len(bits) / 2)


def _minority(*bits: int) -> int:
    return int(sum(bits) < len(bits) / 2)


def _const_low(*bits: int) -> int:
    return 0


def _const_high(*bits: int) -> int:
    return 1


#: Gate family name -> (function over input bits, minimum input count).
GATE_FAMILIES: Dict[str, Tuple[Callable[..., int], int]] = {
    "CONST0": (_const_low, 1),
    "CONST1": (_const_high, 1),
    "BUF": (_buffer, 1),
    "NOT": (_not, 1),
    "AND": (_and, 2),
    "OR": (_or, 2),
    "NAND": (_nand, 2),
    "NOR": (_nor, 2),
    "XOR": (_xor, 2),
    "XNOR": (_xnor, 2),
    "MAJORITY": (_majority, 3),
    "MINORITY": (_minority, 3),
}

#: Recognition order: specific families before degenerate ones so that, e.g.,
#: a 2-input XNOR is reported as XNOR rather than anything else, and constants
#: are reported as constants.
_RECOGNITION_ORDER = [
    "CONST0",
    "CONST1",
    "BUF",
    "NOT",
    "AND",
    "OR",
    "NAND",
    "NOR",
    "XOR",
    "XNOR",
    "MAJORITY",
    "MINORITY",
]


def gate_truth_table(name: str, inputs: Sequence[str]) -> TruthTable:
    """The truth table of a named gate family over the given inputs."""
    key = name.upper()
    if key not in GATE_FAMILIES:
        raise KeyError(f"unknown gate family {name!r}")
    fn, minimum_inputs = GATE_FAMILIES[key]
    if len(inputs) < minimum_inputs:
        raise ValueError(
            f"gate {name!r} needs at least {minimum_inputs} inputs, got {len(inputs)}",
        )
    return TruthTable.from_function(fn, inputs)


@functools.lru_cache(maxsize=None)
def _candidate_columns(n_inputs: int) -> Tuple[Tuple[str, Optional[int], Tuple[int, ...]], ...]:
    """``(family, input position, output column)`` for every candidate
    :func:`identify_gate` tries on an ``n_inputs``-input table, in its order.

    The columns depend only on the input count, so each is built once: the
    families in recognition order, then, for a multi-input table, BUF and
    NOT of each input (position set) in place of the families' BUF and NOT.
    """
    rows = [TruthTable.combination_bits(index, n_inputs) for index in range(2**n_inputs)]
    candidates = []
    for name in _RECOGNITION_ORDER:
        fn, minimum_inputs = GATE_FAMILIES[name]
        if n_inputs < minimum_inputs or (name in ("BUF", "NOT") and n_inputs > 1):
            continue
        candidates.append((name, None, tuple(int(bool(fn(*bits))) for bits in rows)))
    if n_inputs > 1:
        for position in range(n_inputs):
            column = tuple(bits[position] for bits in rows)
            candidates.append(("BUF", position, column))
            candidates.append(("NOT", position, tuple(1 - bit for bit in column)))
    return tuple(candidates)


def identify_gate(table: TruthTable) -> Optional[str]:
    """Name of the gate family matching ``table``, or None.

    For 1-input tables only BUF/NOT/constants can match; BUF and NOT of a
    specific input of a multi-input table are reported with the input index,
    e.g. ``"BUF(in2)"``.
    """
    outputs = tuple(table.outputs)
    for name, position, column in _candidate_columns(table.n_inputs):
        if column == outputs:
            return name if position is None else f"{name}({table.inputs[position]})"
    return None


def is_named_gate(table: TruthTable, name: str) -> bool:
    """True when ``table`` implements the named gate family over its inputs."""
    try:
        candidate = gate_truth_table(name, table.inputs)
    except (KeyError, ValueError):
        return False
    return candidate.outputs == table.outputs
