"""Parse SBML Level 3 (core subset) XML documents into :class:`Model` objects.

The reader accepts the documents produced by :mod:`repro.sbml.writer` as well
as hand-written SBML that sticks to the core constructs used by genetic logic
circuits: compartments, species, global parameters and reactions with MathML
kinetic laws.  A species' ``initialConcentration`` becomes an amount (times
its compartment's ``size``); one whose laws would read a concentration
(``hasOnlySubstanceUnits="false"`` where the size is not 1) is refused,
since the simulators read amounts.  Function definitions, initial assignments,
rules and events change what a model computes, so a document using any of
them is refused with an :class:`~repro.errors.SBMLParseError` naming it
rather than simulated without it.  Other unknown elements (unit definitions,
annotations) are ignored, so that models exported by other tools (iBioSim,
COPASI) remain loadable as long as their kinetic laws stay within the
supported MathML subset.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from ..errors import SBMLParseError
from .ast import from_mathml
from .model import KineticLaw, Model, SpeciesReference

__all__ = ["read_sbml_string", "read_sbml_file"]

#: Model lists the reader refuses when they hold anything: the model would
#: run without the functions, assignments, rules or events they define.
UNSUPPORTED_LISTS = (
    "listOfFunctionDefinitions",
    "listOfInitialAssignments",
    "listOfRules",
    "listOfEvents",
)


def _strip(tag: str) -> str:
    """Remove the namespace from an element tag."""
    return tag.split("}")[-1]


def _find_child(element: ET.Element, name: str) -> Optional[ET.Element]:
    for child in element:
        if _strip(child.tag) == name:
            return child
    return None


def _iter_children(element: Optional[ET.Element], name: str):
    if element is None:
        return
    for child in element:
        if _strip(child.tag) == name:
            yield child


def _parse_bool(value: Optional[str], default: bool = False) -> bool:
    if value is None:
        return default
    return value.strip().lower() in {"true", "1"}


def _parse_float(value: Optional[str], default: float = 0.0) -> float:
    if value is None or value == "":
        return default
    try:
        return float(value)
    except ValueError as exc:
        raise SBMLParseError(f"bad numeric attribute {value!r}") from exc


def read_sbml_string(text: str) -> Model:
    """Parse an SBML XML string into a :class:`Model`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SBMLParseError(f"malformed XML: {exc}") from exc
    if _strip(root.tag) != "sbml":
        raise SBMLParseError(f"expected <sbml> root element, got <{_strip(root.tag)}>")
    model_element = _find_child(root, "model")
    if model_element is None:
        raise SBMLParseError("document has no <model> element")

    for name in UNSUPPORTED_LISTS:
        element = _find_child(model_element, name)
        tags = [] if element is None else [_strip(child.tag) for child in element]
        items = [tag for tag in tags if tag not in ("notes", "annotation")]
        if items:
            more = f" and {len(items) - 1} more" if len(items) > 1 else ""
            raise SBMLParseError(
                f"<{name}> is not supported (it holds <{items[0]}>{more}); "
                "the model cannot be simulated faithfully without it",
            )

    model = Model(
        sid=model_element.get("id", "model"),
        name=model_element.get("name", ""),
    )

    notes = _find_child(model_element, "notes")
    if notes is not None:
        model.notes = " ".join(t.strip() for t in notes.itertext() if t.strip())

    compartments = _find_child(model_element, "listOfCompartments")
    for element in _iter_children(compartments, "compartment"):
        model.add_compartment(
            element.get("id", "cell"),
            size=_parse_float(element.get("size"), 1.0),
            name=element.get("name", ""),
        )
    if not model.compartments:
        model.add_compartment("cell")

    species_list = _find_child(model_element, "listOfSpecies")
    for element in _iter_children(species_list, "species"):
        sid = element.get("id")
        if not sid:
            raise SBMLParseError("species element without an id")
        compartment = element.get("compartment", next(iter(model.compartments)))
        if compartment not in model.compartments:
            model.add_compartment(compartment)
        amount = _parse_float(element.get("initialAmount"), 0.0)
        concentration = element.get("initialConcentration")
        if concentration is not None:
            if element.get("initialAmount") is not None:
                raise SBMLParseError(
                    f"species {sid!r} sets both initialAmount and initialConcentration",
                )
            amount = _parse_float(concentration) * model.compartments[compartment].size
        substance_only = _parse_bool(element.get("hasOnlySubstanceUnits"), True)
        if not substance_only and model.compartments[compartment].size != 1.0:
            raise SBMLParseError(
                f"species {sid!r} has hasOnlySubstanceUnits='false' in a compartment of "
                "size other than 1: kinetic laws would read its concentration, and the "
                "simulators read amounts",
            )
        species = model.add_species(
            sid,
            initial_amount=amount,
            compartment=compartment,
            boundary_condition=_parse_bool(element.get("boundaryCondition")),
            constant=_parse_bool(element.get("constant")),
            name=element.get("name", ""),
        )
        species.has_only_substance_units = substance_only

    parameters = _find_child(model_element, "listOfParameters")
    for element in _iter_children(parameters, "parameter"):
        sid = element.get("id")
        if not sid:
            raise SBMLParseError("parameter element without an id")
        model.add_parameter(
            sid,
            value=_parse_float(element.get("value"), 0.0),
            name=element.get("name", ""),
        )

    reactions = _find_child(model_element, "listOfReactions")
    for element in _iter_children(reactions, "reaction"):
        sid = element.get("id")
        if not sid:
            raise SBMLParseError("reaction element without an id")
        reactants = [
            SpeciesReference(
                ref.get("species", ""),
                _parse_float(ref.get("stoichiometry"), 1.0),
            )
            for ref in _iter_children(_find_child(element, "listOfReactants"), "speciesReference")
        ]
        products = [
            SpeciesReference(
                ref.get("species", ""),
                _parse_float(ref.get("stoichiometry"), 1.0),
            )
            for ref in _iter_children(_find_child(element, "listOfProducts"), "speciesReference")
        ]
        modifiers = [
            ref.get("species", "")
            for ref in _iter_children(
                _find_child(element, "listOfModifiers"),
                "modifierSpeciesReference",
            )
        ]
        kinetic_law = None
        law_element = _find_child(element, "kineticLaw")
        if law_element is not None:
            math_element = _find_child(law_element, "math")
            if math_element is None:
                raise SBMLParseError(f"reaction {sid!r} kineticLaw has no <math>")
            local = {}
            locals_element = _find_child(law_element, "listOfLocalParameters")
            for parameter in _iter_children(locals_element, "localParameter"):
                local[parameter.get("id", "")] = _parse_float(parameter.get("value"), 0.0)
            kinetic_law = KineticLaw(from_mathml(math_element), local)
        model.add_reaction(
            sid,
            reactants=reactants,
            products=products,
            modifiers=modifiers,
            kinetic_law=kinetic_law,
            reversible=_parse_bool(element.get("reversible")),
            name=element.get("name", ""),
        )
    return model


def read_sbml_file(path) -> Model:
    """Read an SBML XML file into a :class:`Model`."""
    with open(path, "r", encoding="utf-8") as handle:
        return read_sbml_string(handle.read())
