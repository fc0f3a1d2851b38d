"""Tests for named-gate recognition."""

import pytest

from repro.logic import TruthTable, gate_truth_table, identify_gate, is_named_gate


class TestGateTruthTable:
    def test_two_input_families(self):
        assert gate_truth_table("AND", ["A", "B"]).outputs == [0, 0, 0, 1]
        assert gate_truth_table("OR", ["A", "B"]).outputs == [0, 1, 1, 1]
        assert gate_truth_table("NAND", ["A", "B"]).outputs == [1, 1, 1, 0]
        assert gate_truth_table("NOR", ["A", "B"]).outputs == [1, 0, 0, 0]
        assert gate_truth_table("XOR", ["A", "B"]).outputs == [0, 1, 1, 0]
        assert gate_truth_table("XNOR", ["A", "B"]).outputs == [1, 0, 0, 1]

    def test_single_input_families(self):
        assert gate_truth_table("NOT", ["A"]).outputs == [1, 0]
        assert gate_truth_table("BUF", ["A"]).outputs == [0, 1]

    def test_three_input_majority(self):
        table = gate_truth_table("MAJORITY", ["A", "B", "C"])
        assert table.minterms() == [3, 5, 6, 7]

    def test_case_insensitive(self):
        assert gate_truth_table("and", ["A", "B"]).outputs == [0, 0, 0, 1]

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            gate_truth_table("MUX", ["A", "B"])

    def test_minimum_input_count_enforced(self):
        with pytest.raises(ValueError):
            gate_truth_table("MAJORITY", ["A", "B"])


class TestIdentifyGate:
    @pytest.mark.parametrize(
        "expression, name",
        [
            ("A & B", "AND"),
            ("A | B", "OR"),
            ("~(A & B)", "NAND"),
            ("~(A | B)", "NOR"),
            ("A ^ B", "XOR"),
            ("~(A ^ B)", "XNOR"),
            ("A & B & C", "AND"),
            ("~(A | B | C)", "NOR"),
            ("~A", "NOT"),
            ("A", "BUF"),
        ],
    )
    def test_standard_families(self, expression, name):
        assert identify_gate(TruthTable.from_expression(expression)) == name

    def test_constants(self):
        assert identify_gate(TruthTable(["A"], [0, 0])) == "CONST0"
        assert identify_gate(TruthTable(["A", "B"], [1, 1, 1, 1])) == "CONST1"

    def test_majority(self):
        table = TruthTable.from_expression("A & B | B & C | A & C")
        assert identify_gate(table) == "MAJORITY"

    def test_single_input_dependence_of_multi_input_table(self):
        table = TruthTable.from_expression("B", inputs=["A", "B"])
        assert identify_gate(table) == "BUF(B)"
        inverted = TruthTable.from_expression("~A", inputs=["A", "B", "C"])
        assert identify_gate(inverted) == "NOT(A)"

    def test_unnamed_function_returns_none(self):
        assert identify_gate(TruthTable.from_hex("0x1C", n_inputs=3)) is None

    def test_paper_finding_0x0b_at_low_threshold_is_and(self):
        """The paper reports 0x0B behaves as a 3-input AND at a 3-molecule threshold."""
        assert identify_gate(TruthTable.from_minterm_indices([7], ["a", "b", "c"])) == "AND"


def _identify_gate_by_family_tables(table):
    """The loop ``identify_gate`` ran before it cached its columns: one
    ``TruthTable.from_function`` per family per call (the reference)."""
    from repro.logic.patterns import _RECOGNITION_ORDER, GATE_FAMILIES

    for name in _RECOGNITION_ORDER:
        fn, minimum_inputs = GATE_FAMILIES[name]
        if table.n_inputs < minimum_inputs:
            continue
        if name in ("BUF", "NOT") and table.n_inputs > 1:
            continue
        if TruthTable.from_function(fn, table.inputs).outputs == table.outputs:
            return name
    if table.n_inputs > 1:
        for position, input_name in enumerate(table.inputs):
            buffer_outputs = []
            not_outputs = []
            for index in range(table.n_rows):
                bit = TruthTable.combination_bits(index, table.n_inputs)[position]
                buffer_outputs.append(bit)
                not_outputs.append(1 - bit)
            if table.outputs == buffer_outputs:
                return f"BUF({input_name})"
            if table.outputs == not_outputs:
                return f"NOT({input_name})"
    return None


@pytest.mark.parametrize("n_inputs", [1, 2, 3])
def test_every_table_named_as_by_family_tables(n_inputs):
    inputs = ["x", "y", "z"][:n_inputs]
    names = set()
    for value in range(2 ** (2**n_inputs)):
        table = TruthTable.from_hex(value, inputs=inputs)
        name = identify_gate(table)
        assert name == _identify_gate_by_family_tables(table), hex(value)
        names.add(name)
    assert len(names) > 2 * n_inputs  # the walk meets many families


class TestIsNamedGate:
    def test_positive(self):
        assert is_named_gate(TruthTable.from_expression("A & B"), "AND")

    def test_negative(self):
        assert not is_named_gate(TruthTable.from_expression("A & B"), "OR")

    def test_unknown_name_is_false(self):
        assert not is_named_gate(TruthTable.from_expression("A & B"), "LATCH")

    def test_wrong_arity_is_false(self):
        assert not is_named_gate(TruthTable.from_expression("A & B"), "MAJORITY")
