"""Composition of gate netlists into SBOL designs and SBML models.

This module is the bridge between the digital view (a :class:`Netlist` of
NOT/NOR/NAND gates) and the biochemical view (an SBML reaction network the
stochastic simulators can run).  It follows the paper's own tool flow:

netlist  →  SBOL structural design  →  (SBOL→SBML converter)  →  SBML model

Each gate is realised as one (or, for NAND, several) transcriptional units.
Internal nets are carried by repressor proteins allocated from a
:class:`~repro.gates.parts_library.PartsLibrary`; the circuit output is
carried by a fluorescent reporter; the primary inputs are proteins clamped by
the virtual laboratory.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import ModelError
from ..sbml.model import Model
from ..sbol.converter import ConversionParameters, sbol_to_sbml
from ..sbol.document import SBOLDocument
from ..sbol.parts import ComponentDefinition, cds, promoter, protein, terminator
from .assignment import PartAssignment, default_assignment
from .gate import GateType
from .netlist import GateInstance, Netlist
from .parts_library import PartsLibrary, default_library

__all__ = ["assign_proteins", "netlist_to_sbol", "netlist_to_model"]


def assign_proteins(
    netlist: Netlist,
    library: Optional[PartsLibrary] = None,
    output_protein: str = "GFP",
    assignment: Optional[PartAssignment] = None,
) -> Dict[str, str]:
    """Map every net of ``netlist`` to the protein species that carries it.

    Primary input nets map to themselves (they are already protein names such
    as ``LacI``); internal nets get a distinct repressor; the output net maps
    to ``output_protein``.  The chosen repressor is also recorded on each
    :class:`GateInstance` (its ``repressor`` attribute).

    Which repressor carries which net is a pure function of ``assignment``
    (an explicit :class:`~repro.gates.assignment.PartAssignment`): no library
    state is read or written.  When ``assignment`` is omitted, the default is
    :func:`~repro.gates.assignment.default_assignment`, the first-fit choice.
    An explicit assignment wins over a gate's pre-assigned ``repressor``
    attribute; gates the assignment does not cover fall back to their usable
    pre-assignment.
    """
    netlist.check_complete()
    library = library or default_library()
    if assignment is None:
        assignment = default_assignment(netlist, library, output_protein)
    chosen = dict(assignment.repressors)
    net_protein: Dict[str, str] = {net: net for net in netlist.inputs}
    reserved = set(netlist.inputs) | {output_protein}

    for gate in netlist.topological_order():
        if gate.output == netlist.output:
            net_protein[gate.output] = output_protein
            gate.repressor = output_protein
            continue
        part_name = chosen.pop(gate.name, None)
        if part_name is None:
            if gate.repressor and gate.repressor not in reserved:
                # Respect a pre-assigned repressor (hand-built circuits).
                part_name = gate.repressor
                if part_name not in library.repressors:
                    raise ModelError(
                        f"gate {gate.name!r} requests unknown repressor {part_name!r}",
                    )
            else:
                raise ModelError(
                    f"assignment covers no repressor for gate {gate.name!r} "
                    f"(assignable gates need one each)",
                )
        else:
            if part_name not in library.repressors:
                raise ModelError(
                    f"assignment gives gate {gate.name!r} unknown repressor {part_name!r}",
                )
            if part_name in reserved:
                raise ModelError(
                    f"assignment gives gate {gate.name!r} repressor {part_name!r}, "
                    "which is already carrying another net (cross-talk)",
                )
        gate.repressor = part_name
        reserved.add(part_name)
        net_protein[gate.output] = part_name
    if chosen:
        raise ModelError(
            f"assignment names unknown or non-assignable gate(s) {sorted(chosen)}",
        )
    return net_protein


def _protein_component(
    name: str,
    library: PartsLibrary,
    is_input: bool,
    is_output: bool,
) -> ComponentDefinition:
    """Build the protein component with the response properties the converter reads."""
    if is_input:
        if name in library.repressors:
            # An input carried by a characterised repressor protein (LacI,
            # TetR, ...) uses that part's response function.
            part = library.repressor(name)
            return protein(name, K=part.K, n=part.n)
        signal = library.input_signal(name)
        return protein(name, K=signal.K, n=signal.n)
    if is_output:
        reporter = library.reporter(name) if name in library.reporters else None
        degradation = reporter.degradation if reporter else 0.1
        return protein(name, degradation=degradation)
    part = library.repressor(name)
    return protein(name, K=part.K, n=part.n, degradation=part.degradation)


def netlist_to_sbol(
    netlist: Netlist,
    library: Optional[PartsLibrary] = None,
    output_protein: str = "GFP",
    assignment: Optional[PartAssignment] = None,
) -> Tuple[SBOLDocument, Dict[str, str]]:
    """Build the SBOL structural design of a gate netlist.

    Returns the document and the net → protein mapping used.  ``assignment``
    selects the parts explicitly (see :func:`assign_proteins`).
    """
    library = library or default_library()
    net_protein = assign_proteins(netlist, library, output_protein, assignment=assignment)

    document = SBOLDocument(netlist.name, name=netlist.name)

    # Protein components.
    for net, species in net_protein.items():
        is_input = net in netlist.inputs
        is_output = net == netlist.output
        component = _protein_component(species, library, is_input, is_output)
        document.ensure_component(component)

    # One transcriptional unit per NOT/NOR gate; one per input for NAND gates.
    for gate in netlist.topological_order():
        product_species = net_protein[gate.output]
        input_species = [net_protein[net] for net in gate.inputs]
        promoter_strength = _gate_promoter_strength(gate, library)

        if gate.gate_type in (GateType.NOT, GateType.NOR):
            _add_unit(
                document,
                unit_id=f"tu_{gate.name}",
                promoter_ids=[f"p_{gate.name}"],
                repressors_per_promoter=[input_species],
                product=product_species,
                strength=promoter_strength,
            )
        elif gate.gate_type == GateType.NAND:
            for index, species in enumerate(input_species):
                _add_unit(
                    document,
                    unit_id=f"tu_{gate.name}_{index}",
                    promoter_ids=[f"p_{gate.name}_{index}"],
                    repressors_per_promoter=[[species]],
                    product=product_species,
                    strength=promoter_strength,
                )
        else:  # pragma: no cover - GateInstance already validates the type
            raise ModelError(f"gate {gate.name!r} has unsupported type {gate.gate_type!r}")

    return document, net_protein


def _gate_promoter_strength(gate: GateInstance, library: PartsLibrary) -> float:
    """Maximal strength of the gate's promoter(s).

    If the gate's output protein is a library repressor, reuse that part's
    characterised strength so the downstream gate sees the level it was tuned
    for; otherwise fall back to the library-wide default.
    """
    if gate.repressor and gate.repressor in library.repressors:
        return library.repressor(gate.repressor).strength
    some_part = next(iter(library.repressors.values()))
    return some_part.strength


def _add_unit(
    document: SBOLDocument,
    unit_id: str,
    promoter_ids,
    repressors_per_promoter,
    product: str,
    strength: float,
) -> None:
    """Add one transcriptional unit (promoters + CDS + terminator) to the design."""
    parts = []
    for promoter_id, repressors in zip(promoter_ids, repressors_per_promoter):
        document.ensure_component(promoter(promoter_id, strength=strength))
        parts.append(promoter_id)
        for repressor in repressors:
            document.add_repression(repressor, promoter_id)
    cds_id = f"cds_{unit_id}"
    terminator_id = f"ter_{unit_id}"
    document.ensure_component(cds(cds_id))
    document.ensure_component(terminator(terminator_id))
    document.add_production(cds_id, product)
    parts.extend([cds_id, terminator_id])
    document.add_unit(unit_id, parts)


def netlist_to_model(
    netlist: Netlist,
    library: Optional[PartsLibrary] = None,
    output_protein: str = "GFP",
    parameters: Optional[ConversionParameters] = None,
    model_id: Optional[str] = None,
    assignment: Optional[PartAssignment] = None,
) -> Tuple[Model, SBOLDocument, Dict[str, str]]:
    """Full composition: netlist → SBOL → SBML model.

    Returns the model, the intermediate SBOL document, and the net → protein
    mapping (the model's input species are ``[net_protein[i] for i in
    netlist.inputs]`` and its output species is ``net_protein[netlist.output]``).
    ``assignment`` selects the parts explicitly (see :func:`assign_proteins`).
    """
    library = library or default_library()
    document, net_protein = netlist_to_sbol(
        netlist, library, output_protein, assignment=assignment
    )
    model = sbol_to_sbml(
        document,
        parameters=parameters,
        model_id=model_id or netlist.name.replace("-", "_"),
    )
    return model, document, net_protein
