"""Round-trip and error tests for SBML reading/writing."""

import pytest

from repro.errors import SBMLParseError
from repro.sbml import (
    Model,
    read_sbml_file,
    read_sbml_string,
    write_sbml_file,
    write_sbml_string,
)


def _roundtrip(model: Model) -> Model:
    return read_sbml_string(write_sbml_string(model))


class TestRoundTrip:
    def test_species_attributes_survive(self, toy_model):
        again = _roundtrip(toy_model)
        assert again.species_ids() == toy_model.species_ids()
        assert again.species["A"].boundary_condition is True
        assert again.species["Y"].boundary_condition is False

    def test_parameters_survive(self, toy_model):
        again = _roundtrip(toy_model)
        assert again.parameters["kmax"].value == pytest.approx(4.0)
        assert again.parameters["n"].value == pytest.approx(2.5)

    def test_reactions_survive(self, toy_model):
        again = _roundtrip(toy_model)
        assert again.reaction_ids() == toy_model.reaction_ids()
        production = again.get_reaction("production_Y")
        assert production.modifiers == ["A"]
        assert [p.species for p in production.products] == ["Y"]

    def test_kinetic_laws_evaluate_identically(self, toy_model):
        again = _roundtrip(toy_model)
        env = {"A": 12.0, "Y": 5.0, **toy_model.parameter_values()}
        for rid in toy_model.reaction_ids():
            original = toy_model.get_reaction(rid).kinetic_law.math.evaluate(env)
            rebuilt = again.get_reaction(rid).kinetic_law.math.evaluate(env)
            assert rebuilt == pytest.approx(original)

    def test_notes_survive(self, toy_model):
        toy = toy_model.copy()
        toy.notes = "A hand-built NOT gate"
        again = _roundtrip(toy)
        assert "NOT gate" in again.notes

    def test_initial_amounts_survive(self, toy_model):
        toy = toy_model.copy()
        toy.set_initial_amount("A", 40.0)
        again = _roundtrip(toy)
        assert again.species["A"].initial_amount == pytest.approx(40.0)

    def test_local_parameters_survive(self):
        model = Model("m")
        model.add_species("X")
        model.add_reaction(
            "r",
            products=[("X", 1.0)],
            kinetic_law="k_local",
            local_parameters={"k_local": 3.0},
        )
        again = _roundtrip(model)
        assert again.get_reaction("r").kinetic_law.local_parameters == {"k_local": 3.0}

    def test_stoichiometry_survives(self):
        model = Model("m")
        model.add_species("X")
        model.add_species("D")
        model.add_reaction(
            "dimerise",
            reactants=[("X", 2.0)],
            products=[("D", 1.0)],
            kinetic_law="X * (X - 1)",
        )
        again = _roundtrip(model)
        assert again.get_reaction("dimerise").reactants[0].stoichiometry == pytest.approx(2.0)

    def test_file_roundtrip(self, toy_model, tmp_path):
        path = tmp_path / "model.xml"
        write_sbml_file(toy_model, path)
        again = read_sbml_file(path)
        assert again.sid == toy_model.sid
        assert again.reaction_ids() == toy_model.reaction_ids()

    def test_gate_circuit_model_roundtrips(self, and_circuit):
        again = _roundtrip(and_circuit.model)
        assert set(again.species_ids()) == set(and_circuit.model.species_ids())
        assert set(again.reaction_ids()) == set(and_circuit.model.reaction_ids())

    def test_double_roundtrip_is_stable(self, toy_model):
        once = write_sbml_string(_roundtrip(toy_model))
        twice = write_sbml_string(_roundtrip(read_sbml_string(once)))
        assert once == twice


class TestWriterOutput:
    def test_declares_level_3(self, toy_model):
        text = write_sbml_string(toy_model)
        assert 'level="3"' in text
        assert "http://www.sbml.org/sbml/level3/version1/core" in text

    def test_escapes_attribute_values(self):
        model = Model("m", name='needs "quoting" & escaping')
        model.add_species("X")
        model.add_reaction("r", products=[("X", 1.0)], kinetic_law="1")
        text = write_sbml_string(model)
        assert "&quot;" in text or "&amp;" in text
        read_sbml_string(text)  # must stay parseable


class TestReaderErrors:
    def test_malformed_xml(self):
        with pytest.raises(SBMLParseError):
            read_sbml_string("<sbml><model>")

    def test_wrong_root_element(self):
        with pytest.raises(SBMLParseError):
            read_sbml_string("<notSBML/>")

    def test_missing_model_element(self):
        with pytest.raises(SBMLParseError):
            read_sbml_string('<sbml xmlns="http://www.sbml.org/sbml/level3/version1/core"/>')

    def test_species_without_id(self):
        text = """<sbml xmlns="http://www.sbml.org/sbml/level3/version1/core">
          <model id="m"><listOfSpecies><species/></listOfSpecies></model></sbml>"""
        with pytest.raises(SBMLParseError):
            read_sbml_string(text)

    def test_kinetic_law_without_math(self):
        text = """<sbml xmlns="http://www.sbml.org/sbml/level3/version1/core">
          <model id="m">
            <listOfSpecies><species id="X" compartment="cell"/></listOfSpecies>
            <listOfReactions><reaction id="r"><kineticLaw/></reaction></listOfReactions>
          </model></sbml>"""
        with pytest.raises(SBMLParseError):
            read_sbml_string(text)

    def test_unknown_elements_are_ignored(self):
        text = """<sbml xmlns="http://www.sbml.org/sbml/level3/version1/core">
          <model id="m">
            <listOfUnitDefinitions><unitDefinition id="u"/></listOfUnitDefinitions>
            <listOfSpecies><species id="X" compartment="cell" initialAmount="1"/></listOfSpecies>
          </model></sbml>"""
        model = read_sbml_string(text)
        assert model.species_ids() == ["X"]


MATHML = 'xmlns="http://www.w3.org/1998/Math/MathML"'

#: One hand-written use of each model list the reader refuses.
UNSUPPORTED = {
    "listOfFunctionDefinitions": f"""<functionDefinition id="double"><math {MATHML}>
        <lambda><bvar><ci>x</ci></bvar><apply><times/><cn>2</cn><ci>x</ci></apply></lambda>
        </math></functionDefinition>""",
    "listOfInitialAssignments": f"""<initialAssignment symbol="X"><math {MATHML}>
        <apply><times/><ci>k</ci><cn>10</cn></apply></math></initialAssignment>""",
    "listOfRules": f"""<assignmentRule variable="k"><math {MATHML}>
        <apply><divide/><ci>X</ci><cn>100</cn></apply></math></assignmentRule>""",
    "listOfEvents": f"""<event id="knockout" useValuesFromTriggerTime="true">
        <trigger initialValue="false" persistent="true"><math {MATHML}>
          <apply><gt/><csymbol encoding="text"
            definitionURL="http://www.sbml.org/sbml/symbols/time">t</csymbol><cn>50</cn></apply>
        </math></trigger>
        <listOfEventAssignments><eventAssignment variable="X"><math {MATHML}><cn>0</cn></math>
        </eventAssignment></listOfEventAssignments></event>""",
}


def _document(species: str, extra: str = "") -> str:
    """A one-compartment decay model around the given species and extra lists."""
    return f"""<sbml xmlns="http://www.sbml.org/sbml/level3/version1/core" level="3" version="1">
      <model id="m">
        <listOfCompartments><compartment id="cell" size="2.5" constant="true"/></listOfCompartments>
        <listOfSpecies>{species}</listOfSpecies>
        <listOfParameters><parameter id="k" value="0.1" constant="false"/></listOfParameters>
        {extra}
        <listOfReactions><reaction id="decay" reversible="false">
          <listOfReactants><speciesReference species="X" stoichiometry="1"/></listOfReactants>
          <kineticLaw><math {MATHML}><apply><times/><ci>k</ci><ci>X</ci></apply></math></kineticLaw>
        </reaction></listOfReactions>
      </model></sbml>"""


AMOUNT = '<species id="X" compartment="cell" initialAmount="10" hasOnlySubstanceUnits="true"/>'


class TestUnsupportedConstructs:
    """A construct the simulators cannot honour is refused by name, never
    skipped: the model would otherwise run and give wrong answers."""

    @pytest.mark.parametrize("name", sorted(UNSUPPORTED))
    def test_a_used_list_is_rejected_by_name(self, name):
        with pytest.raises(SBMLParseError, match=f"<{name}> is not supported"):
            read_sbml_string(_document(AMOUNT, f"<{name}>{UNSUPPORTED[name]}</{name}>"))

    @pytest.mark.parametrize("name", sorted(UNSUPPORTED))
    def test_an_empty_list_is_accepted(self, name):
        extra = f"<{name}><annotation><note/></annotation></{name}>"
        assert read_sbml_string(_document(AMOUNT, extra)).species["X"].initial_amount == 10.0

    def test_initial_concentration_becomes_an_amount(self):
        species = '<species id="X" compartment="cell" initialConcentration="4"/>'
        assert read_sbml_string(_document(species)).species["X"].initial_amount == 10.0

    def test_a_law_reading_a_concentration_is_rejected(self):
        """``hasOnlySubstanceUnits="false"`` makes ``X`` in ``k * X`` a
        concentration, amount / 2.5 here; the simulators would read 10."""
        species = AMOUNT.replace('"true"', '"false"')
        with pytest.raises(SBMLParseError, match="hasOnlySubstanceUnits='false'"):
            read_sbml_string(_document(species))

    def test_substance_units_flag_survives_a_unit_compartment(self):
        species = AMOUNT.replace('"true"', '"false"')
        model = read_sbml_string(_document(species).replace('size="2.5"', 'size="1"'))
        again = read_sbml_string(write_sbml_string(model))
        assert model.species["X"].has_only_substance_units is False
        assert again.species["X"].has_only_substance_units is False

    def test_amount_and_concentration_together_are_rejected(self):
        species = '<species id="X" compartment="cell" initialAmount="1" initialConcentration="4"/>'
        with pytest.raises(SBMLParseError, match="both initialAmount and initialConcentration"):
            read_sbml_string(_document(species))
