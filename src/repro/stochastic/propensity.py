"""Compilation of SBML models into fast propensity evaluators.

The stochastic simulators never interpret kinetic-law ASTs in their inner
loop.  :class:`CompiledModel` turns a :class:`repro.sbml.Model` into:

* a species index (name -> column in the state vector),
* per-reaction state-change vectors (with boundary/input species frozen),
* a whole-model **kernel** generated by :mod:`repro.stochastic.codegen` —
  one module per model holding the ``ssa_segment`` direct-method loop
  (compiled with the model) and the fused ``propensities_all`` /
  ``propensities_after`` evaluators (compiled the first time a simulator
  reads them), with constants folded to literals — or, with ``REPRO_KERNEL=interp``,
  the reference path of per-reaction compiled callables (the simulators then
  run their per-event numpy loops), and
* a reaction dependency graph (used by the Gibson–Bruck simulator to only
  recompute propensities that could have changed).

Both backends produce **bit-identical** propensity values and trajectories
(tested in ``tests/stochastic/test_kernel_parity.py``), so simulator results
do not depend on the backend.  The same compiled object also serves the
deterministic ODE integrator, which interprets the propensities as
macroscopic rates.

A :class:`CompiledModel` is picklable *by generated source*: un-pickling
loads the kernel module from its source instead of re-deriving it from the
kinetic-law ASTs.  The ensemble engine ships each job's model as it was
given and generates no code for its workers: each worker compiles what it
runs (see :mod:`repro.engine.cache`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import PropensityError, SimulationError
from ..sbml.ast import compile_function
from ..sbml.model import Model
from . import codegen

__all__ = ["CompiledModel", "compile_model"]


def _model_tables(model: Model, parameter_overrides: Optional[Dict[str, float]]):
    """The cheap per-model tables every backend needs.

    Returns ``(species, index, boundary_mask, initial_state, constants,
    change_indices, change_deltas)``.  Raises for models without reactions,
    reactions without kinetic laws, and overrides naming unknown parameters —
    the same eager diagnostics :class:`CompiledModel` has always given.
    """
    species = model.species_ids()
    index = {sid: i for i, sid in enumerate(species)}
    reaction_ids = model.reaction_ids()
    if not reaction_ids:
        raise SimulationError(f"model {model.sid!r} has no reactions to simulate")

    boundary_mask = np.array(
        [model.species[sid].boundary_condition or model.species[sid].constant for sid in species],
        dtype=bool,
    )
    initial_state = np.array(
        [float(model.species[sid].initial_amount) for sid in species],
        dtype=float,
    )

    constants = model.parameter_values()
    if parameter_overrides:
        unknown = set(parameter_overrides) - set(constants)
        if unknown:
            raise PropensityError(
                f"parameter overrides refer to unknown parameters: {sorted(unknown)}",
            )
        constants.update(parameter_overrides)

    change_indices: List[np.ndarray] = []
    change_deltas: List[np.ndarray] = []
    for rid in reaction_ids:
        reaction = model.reactions[rid]
        if reaction.kinetic_law is None:
            raise PropensityError(f"reaction {rid!r} has no kinetic law")
        delta = reaction.net_stoichiometry()
        indices = []
        deltas = []
        for sid, value in delta.items():
            column = index[sid]
            if boundary_mask[column]:
                # Boundary species are clamped by the experiment driver;
                # reactions may read them but never change them.
                continue
            indices.append(column)
            deltas.append(float(value))
        change_indices.append(np.array(indices, dtype=int))
        change_deltas.append(np.array(deltas, dtype=float))
    return species, index, boundary_mask, initial_state, constants, change_indices, change_deltas


def _law_specs(
    model: Model,
    species_index: Dict[str, int],
    constants: Dict[str, float],
    change_indices: List[np.ndarray],
    change_deltas: List[np.ndarray],
    species: List[str],
):
    """Per-reaction kernel specs plus the reaction dependency table.

    Performs the same symbol validation as the interpreted compile (unknown
    symbols raise :class:`PropensityError` with the same message), so codegen
    and interp surface identical diagnostics.
    """
    specs: List[codegen.ReactionKernelSpec] = []
    law_species: List[set] = []
    for r, rid in enumerate(model.reaction_ids()):
        law = model.reactions[rid].kinetic_law
        local_constants = dict(constants)
        local_constants.update(law.local_parameters)
        law_symbols = law.math.symbols()
        species_args = tuple((s, species_index[s]) for s in law_symbols if s in species_index)
        non_species = [
            s
            for s in law_symbols
            if s not in species_index and s not in local_constants and s != "time"
        ]
        if non_species:
            raise PropensityError(
                f"kinetic law of {rid!r} references unknown symbols {non_species}",
            )
        # A symbol that is both a species and a (local) constant resolves to
        # the species, exactly as compile_function's name map does — drop the
        # shadowed constants so codegen's folder cannot pick them up.
        spec_constants = {
            name: value for name, value in local_constants.items() if name not in species_index
        }
        changes = tuple(zip(change_indices[r].tolist(), change_deltas[r].tolist()))
        specs.append(
            codegen.ReactionKernelSpec(rid, law.math, species_args, spec_constants, changes),
        )
        law_species.append({s for s, _ in species_args})
    changed = [{species[i] for i in change_indices[r]} for r in range(len(change_indices))]
    return specs, codegen.dependents_table(law_species, changed)


class CompiledModel:
    """A :class:`repro.sbml.Model` compiled for simulation.

    Parameters
    ----------
    model:
        The reaction-network model to compile.
    parameter_overrides:
        Optional ``{parameter_id: value}`` replacing global parameter values
        at compile time — used by sweeps that vary, e.g., Hill thresholds
        without mutating the source model.
    backend:
        ``"codegen"`` (generated whole-model kernels, the default) or
        ``"interp"`` (per-reaction compiled callables).  ``None`` reads the
        ``REPRO_KERNEL`` environment variable.
    kernel_source:
        Generated kernel source for exactly this ``(model, overrides)``
        pair: another instance's :attr:`kernel_source`, as unpickling passes
        it.  When given (and the backend is ``codegen``) the constructor
        loads it and skips per-reaction AST analysis entirely.
    """

    def __init__(
        self,
        model: Model,
        parameter_overrides: Optional[Dict[str, float]] = None,
        *,
        backend: Optional[str] = None,
        kernel_source: Optional[str] = None,
    ):
        self.model = model
        self._overrides: Dict[str, float] = dict(parameter_overrides or {})
        tables = _model_tables(model, parameter_overrides)
        (
            self.species,
            self.index,
            self.boundary_mask,
            self.initial_state,
            self.constants,
            self._change_indices,
            self._change_deltas,
        ) = tables
        self.reaction_ids: List[str] = model.reaction_ids()
        self.n_species = len(self.species)
        self.n_reactions = len(self.reaction_ids)

        # Interpreted per-reaction structures are built lazily: the codegen
        # backend never needs them unless someone calls `propensity()`.
        self._propensity_fns: Optional[List[Callable[..., float]]] = None
        self._propensity_args: Optional[List[Tuple[int, ...]]] = None
        self._law_species: Optional[List[set]] = None
        self._dependents: Optional[List[List[int]]] = None
        self._change_matrix: Optional[np.ndarray] = None
        self._integral_changes: Optional[bool] = None

        if backend is None:
            backend = codegen.default_backend()
        elif backend not in (codegen.BACKEND_CODEGEN, codegen.BACKEND_INTERP):
            raise SimulationError(
                f"unknown propensity backend {backend!r}; "
                f"choose {codegen.BACKEND_CODEGEN!r} or {codegen.BACKEND_INTERP!r}",
            )
        self.backend = backend
        self.kernel: Optional[codegen.PropensityKernel] = None

        if backend == codegen.BACKEND_CODEGEN:
            if kernel_source is None:
                specs, dependents = _law_specs(
                    model,
                    self.index,
                    self.constants,
                    self._change_indices,
                    self._change_deltas,
                    self.species,
                )
                self._dependents = dependents
                kernel_source = codegen.generate_kernel_source(
                    model.sid,
                    specs,
                    dependents,
                    self.n_species,
                )
            self.kernel = codegen.load_kernel(kernel_source)
            if (
                self.kernel.n_reactions != self.n_reactions
                or self.kernel.n_species != self.n_species
            ):
                raise PropensityError(
                    f"propensity kernel shape ({self.kernel.n_reactions} reactions, "
                    f"{self.kernel.n_species} species) does not match model "
                    f"{model.sid!r} ({self.n_reactions} reactions, {self.n_species} "
                    "species); the kernel source is stale",
                )
            if self._dependents is None:
                self._dependents = self.kernel.dependents
        else:
            self._build_interp()

    # -- serialization --------------------------------------------------------
    def __reduce__(self):
        # Serialize *by generated source*: the receiving process exec's the
        # kernel module instead of re-parsing and re-compiling the ASTs.
        source = self.kernel.source if self.kernel is not None else None
        return (
            _rebuild_compiled,
            (self.model, dict(self._overrides) or None, self.backend, source),
        )

    # -- interpreted fallback -------------------------------------------------
    def _build_interp(self) -> None:
        """Build the per-reaction compiled callables (idempotent, lazy).

        Concurrent first calls from several threads each build a consistent
        table into locals and publish it atomically; the duplicated work is
        harmless and the published structures are identical.
        """
        if self._propensity_fns is not None:
            return
        fns: List[Callable[..., float]] = []
        args_list: List[Tuple[int, ...]] = []
        law_species: List[set] = []
        for rid in self.reaction_ids:
            law = self.model.reactions[rid].kinetic_law
            local_constants = dict(self.constants)
            local_constants.update(law.local_parameters)
            law_symbols = law.math.symbols()
            species_args = [s for s in law_symbols if s in self.index]
            non_species = [
                s
                for s in law_symbols
                if s not in self.index and s not in local_constants and s != "time"
            ]
            if non_species:
                raise PropensityError(
                    f"kinetic law of {rid!r} references unknown symbols {non_species}",
                )
            fns.append(compile_function(law.math, species_args, local_constants))
            args_list.append(tuple(self.index[s] for s in species_args))
            law_species.append(set(species_args))
        self._propensity_args = args_list
        self._law_species = law_species
        self._propensity_fns = fns
        if self._dependents is None:
            self._dependents = self._build_dependency_graph()

    # -- dependency graph -----------------------------------------------------
    def _build_dependency_graph(self) -> List[List[int]]:
        """Species→readers index + one union per reaction (O(R·deps), not O(R²))."""
        changed = [
            {self.species[i] for i in self._change_indices[r]} for r in range(self.n_reactions)
        ]
        return codegen.dependents_table(self._law_species, changed)

    def dependents(self, reaction_index: int) -> List[int]:
        """Indices of reactions whose propensity may change when ``reaction_index`` fires."""
        if self._dependents is None:
            self._build_interp()
        return self._dependents[reaction_index]

    # -- state helpers --------------------------------------------------------
    def state_from_dict(self, amounts: Dict[str, float]) -> np.ndarray:
        """Build a state vector from a ``{species: amount}`` mapping.

        Species not mentioned keep their model initial amount.
        """
        state = self.initial_state.copy()
        for sid, value in amounts.items():
            if sid not in self.index:
                raise SimulationError(f"unknown species {sid!r} in initial state")
            state[self.index[sid]] = float(value)
        return state

    def clamp(self, state: np.ndarray, settings: Dict[str, float]) -> None:
        """Apply an input event: overwrite the clamped species in place."""
        for sid, value in settings.items():
            if sid not in self.index:
                raise SimulationError(f"input event drives unknown species {sid!r}")
            state[self.index[sid]] = float(value)

    # -- propensities ---------------------------------------------------------
    def propensity(self, reaction_index: int, state: np.ndarray) -> float:
        """Propensity of one reaction in the given state (clamped at zero)."""
        if self._propensity_fns is None:
            self._build_interp()
        args = self._propensity_args[reaction_index]
        value = self._propensity_fns[reaction_index](*(state[i] for i in args))
        if value != value:  # NaN guard
            raise PropensityError(
                f"propensity of reaction {self.reaction_ids[reaction_index]!r} is NaN",
            )
        return value if value > 0.0 else 0.0

    def propensities(self, state: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Vector of all reaction propensities in the given state."""
        if out is None:
            out = np.empty(self.n_reactions, dtype=float)
        if self.kernel is not None:
            return self.kernel.propensities_all(state, out)
        for r in range(self.n_reactions):
            out[r] = self.propensity(r, state)
        return out

    def propensities_after(self, reaction_index: int, state: np.ndarray, out: np.ndarray):
        """Recompute (into ``out``) only the dependents of ``reaction_index``.

        The Gibson–Bruck update: after ``reaction_index`` fires, only
        reactions reading a changed species can have a different propensity.
        Entries of ``out`` outside ``dependents(reaction_index)`` are left
        untouched.
        """
        if self.kernel is not None:
            return self.kernel.propensities_after(reaction_index, state, out)
        for j in self.dependents(reaction_index):
            out[j] = self.propensity(j, state)
        return out

    def propensities_batch(self, states: np.ndarray, out: Optional[np.ndarray] = None):
        """Propensity matrix ``[B, R]`` for a batch of states ``[B, S]``.

        One :meth:`propensities` evaluation per row, so every row is
        bit-identical to the scalar path (the tau-leap inner loop calls it
        with ``B = 1``).
        """
        states = np.asarray(states, dtype=float)
        if states.ndim != 2:
            raise SimulationError(
                f"propensities_batch expects a [batch, species] matrix, got shape "
                f"{states.shape}",
            )
        if out is None:
            out = np.empty((states.shape[0], self.n_reactions), dtype=float)
        for b in range(states.shape[0]):
            self.propensities(states[b], out=out[b])
        return out

    def apply(self, reaction_index: int, state: np.ndarray) -> None:
        """Fire a reaction once: update ``state`` in place."""
        indices = self._change_indices[reaction_index]
        if indices.size:
            state[indices] += self._change_deltas[reaction_index]

    def change_matrix(self) -> np.ndarray:
        """Dense ``[R, S]`` net-stoichiometry matrix (boundary species zeroed).

        Built lazily; used by tau-leaping to apply a whole vector of firing
        counts in one matmul.
        """
        if self._change_matrix is None:
            matrix = np.zeros((self.n_reactions, self.n_species), dtype=float)
            for r in range(self.n_reactions):
                indices = self._change_indices[r]
                if indices.size:
                    matrix[r, indices] = self._change_deltas[r]
            self._change_matrix = matrix
        return self._change_matrix

    @property
    def has_integral_stoichiometry(self) -> bool:
        """True when every state-change delta is a whole number.

        Whole-number changes make sums of ``count * delta`` exact in floating
        point regardless of summation order, which lets tau-leaping use a
        matmul without changing results bit-for-bit.
        """
        if self._integral_changes is None:
            self._integral_changes = all(
                float(delta).is_integer() for deltas in self._change_deltas for delta in deltas
            )
        return self._integral_changes

    def rates(self, state: np.ndarray) -> np.ndarray:
        """Net rate of change of every species (ODE right-hand side).

        Propensities come from the whole-model kernel; the per-reaction
        accumulation loop is kept (rather than a matmul) because its
        sequential summation order is part of the bit-identity contract with
        earlier releases.
        """
        state = np.asarray(state, dtype=float)
        values = self.propensities(state)
        derivative = np.zeros(self.n_species, dtype=float)
        for r in range(self.n_reactions):
            a = values[r]
            if a == 0.0:
                continue
            indices = self._change_indices[r]
            if indices.size:
                derivative[indices] += a * self._change_deltas[r]
        return derivative

    @property
    def kernel_source(self) -> str:
        """The generated kernel module source for this model + overrides.

        Available on both backends (an interp-backend instance generates it
        on demand without switching backends).  Pickling a codegen instance
        carries it, so unpickling loads the kernel instead of re-deriving it.
        """
        if self.kernel is not None:
            return self.kernel.source
        specs, dependents = _law_specs(
            self.model,
            self.index,
            self.constants,
            self._change_indices,
            self._change_deltas,
            self.species,
        )
        return codegen.generate_kernel_source(
            self.model.sid,
            specs,
            dependents,
            self.n_species,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CompiledModel({self.model.sid!r}, species={self.n_species}, "
            f"reactions={self.n_reactions}, backend={self.backend!r})"
        )


def _rebuild_compiled(model, overrides, backend, kernel_source):
    """Pickle helper: rebuild a :class:`CompiledModel` by exec'ing its source."""
    return CompiledModel(model, overrides, backend=backend, kernel_source=kernel_source)


def compile_model(
    model,
    parameter_overrides: Optional[Dict[str, float]] = None,
) -> CompiledModel:
    """Compile ``model`` unless it is already a :class:`CompiledModel`.

    Overrides that match the already-compiled constant values are a no-op and
    return the existing object — sweeps frequently re-submit the baseline
    point, which used to trigger a full recompile for nothing.  A recompile
    keeps the compiled object's propensity backend.
    """
    if isinstance(model, CompiledModel):
        if parameter_overrides:
            # A recompile would produce constants = base model values plus
            # exactly these overrides.  Only skip it when the compiled object
            # already IS that — comparing against its current constants alone
            # would wrongly keep unrelated overrides it was built with.
            expected = model.model.parameter_values()
            if set(parameter_overrides) <= set(expected):
                expected.update(
                    {sid: float(value) for sid, value in parameter_overrides.items()},
                )
                if model.constants == expected:
                    return model
            return CompiledModel(model.model, parameter_overrides, backend=model.backend)
        return model
    return CompiledModel(model, parameter_overrides)
