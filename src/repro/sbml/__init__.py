"""SBML Level 3 (core subset) models: representation, parsing and writing.

This package is the model substrate of the reproduction: genetic circuits are
expressed as reaction networks with kinetic laws, exactly as the SBML models
the paper simulates in D-VASim.
"""

from .._lazy import lazy_exports

__all__ = [
    "Expr",
    "Num",
    "Sym",
    "BinOp",
    "Neg",
    "Call",
    "parse",
    "compile_function",
    "to_mathml",
    "from_mathml",
    "Compartment",
    "Species",
    "Parameter",
    "SpeciesReference",
    "KineticLaw",
    "Reaction",
    "Model",
    "is_valid_sid",
    "read_sbml_string",
    "read_sbml_file",
    "write_sbml_string",
    "write_sbml_file",
    "validate_model",
    "check_model",
]

#: The submodule that defines each re-exported name, imported the first
#: time ``repro.sbml.X`` is read.
_EXPORTS = {
    "BinOp": "ast",
    "Call": "ast",
    "Expr": "ast",
    "Neg": "ast",
    "Num": "ast",
    "Sym": "ast",
    "compile_function": "ast",
    "from_mathml": "ast",
    "parse": "ast",
    "to_mathml": "ast",
    "Compartment": "model",
    "KineticLaw": "model",
    "Model": "model",
    "Parameter": "model",
    "Reaction": "model",
    "Species": "model",
    "SpeciesReference": "model",
    "is_valid_sid": "model",
    "read_sbml_file": "reader",
    "read_sbml_string": "reader",
    "check_model": "validation",
    "validate_model": "validation",
    "write_sbml_file": "writer",
    "write_sbml_string": "writer",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
