"""SBOL-like structural designs and the SBOL→SBML converter.

Mirrors the paper's tool flow: Cello emits SBOL (structure only); the
SBOL→SBML converter adds kinetics so the circuit can be simulated.
"""

from .._lazy import lazy_exports

__all__ = [
    "Role",
    "InteractionType",
    "ParticipationRole",
    "ComponentDefinition",
    "promoter",
    "rbs",
    "cds",
    "terminator",
    "protein",
    "small_molecule",
    "Participation",
    "Interaction",
    "TranscriptionalUnit",
    "SBOLDocument",
    "ConversionParameters",
    "sbol_to_sbml",
    "write_sbol_string",
    "write_sbol_file",
    "read_sbol_string",
    "read_sbol_file",
]

#: The submodule that defines each re-exported name, imported the first
#: time ``repro.sbol.X`` is read.
_EXPORTS = {
    "ConversionParameters": "converter",
    "sbol_to_sbml": "converter",
    "Interaction": "document",
    "Participation": "document",
    "SBOLDocument": "document",
    "TranscriptionalUnit": "document",
    "read_sbol_file": "serialize",
    "read_sbol_string": "serialize",
    "write_sbol_file": "serialize",
    "write_sbol_string": "serialize",
    "ComponentDefinition": "parts",
    "InteractionType": "parts",
    "ParticipationRole": "parts",
    "Role": "parts",
    "cds": "parts",
    "promoter": "parts",
    "protein": "parts",
    "rbs": "parts",
    "small_molecule": "parts",
    "terminator": "parts",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
