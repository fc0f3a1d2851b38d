"""Stochastic and deterministic simulation of genetic circuit models.

This package replaces the D-VASim simulation engine the paper uses: exact
SSA (direct and next-reaction methods), approximate tau-leaping, and an ODE
baseline, all sharing one compiled-model representation, one input-clamping
mechanism and one sampled-trajectory output format.
"""

from ..errors import SimulationError
from .batch import simulate_ssa_batch
from .codegen import BACKEND_CODEGEN, BACKEND_INTERP, KERNEL_ENV_VAR, default_backend
from .events import InputEvent, InputSchedule
from .nextreaction import NextReactionSimulator, simulate_next_reaction
from .ode import OdeSimulator, simulate_ode
from .propensity import CompiledModel, compile_model
from .rng import fan_out_seeds, make_rng, spawn_rngs
from .sampling import SampleRecorder, make_sample_times
from .ssa import DirectMethodSimulator, simulate_ssa
from .tauleap import TauLeapSimulator, simulate_tau_leap
from .trajectory import Trajectory, decode_trajectories, encode_trajectories

#: The canonical simulators: one entry per distinct algorithm.
CANONICAL_SIMULATORS = {
    "ssa": simulate_ssa,
    "next-reaction": simulate_next_reaction,
    "tau-leap": simulate_tau_leap,
    "ode": simulate_ode,
}

#: Documented aliases, resolved by :func:`canonical_simulator_name`.
#: ``"direct"`` is Gillespie's name for the ``"ssa"`` algorithm (the direct
#: method), kept because the paper and D-VASim both use it.
SIMULATOR_ALIASES = {
    "direct": "ssa",
    "gillespie": "ssa",
    "nrm": "next-reaction",
}


def canonical_simulator_name(name: str) -> str:
    """Normalize a simulator name: lower-case, strip, resolve aliases.

    This is the single lookup site shared by the ensemble engine, the virtual
    laboratory and the CLI.  Raises :class:`~repro.errors.SimulationError` for
    unknown names, listing the canonical choices.
    """
    if not isinstance(name, str):
        raise SimulationError(f"simulator name must be a string, got {name!r}")
    key = name.strip().lower()
    key = SIMULATOR_ALIASES.get(key, key)
    if key not in CANONICAL_SIMULATORS:
        raise SimulationError(
            f"unknown simulator {name!r}; choose from {sorted(CANONICAL_SIMULATORS)} "
            f"(aliases: {sorted(SIMULATOR_ALIASES)})",
        )
    return key


def resolve_simulator(name: str):
    """The one-shot simulation function for ``name`` (aliases accepted)."""
    return CANONICAL_SIMULATORS[canonical_simulator_name(name)]


#: Backwards-compatible flat mapping of every accepted name (canonical names
#: plus aliases) -> one-shot simulation function.  Derived from the canonical
#: table so there is exactly one source of truth.
SIMULATORS = {
    **CANONICAL_SIMULATORS,
    **{alias: CANONICAL_SIMULATORS[target] for alias, target in SIMULATOR_ALIASES.items()},
}

__all__ = [
    "InputEvent",
    "InputSchedule",
    "Trajectory",
    "CompiledModel",
    "compile_model",
    "KERNEL_ENV_VAR",
    "BACKEND_CODEGEN",
    "BACKEND_INTERP",
    "default_backend",
    "make_rng",
    "spawn_rngs",
    "fan_out_seeds",
    "CANONICAL_SIMULATORS",
    "SIMULATOR_ALIASES",
    "canonical_simulator_name",
    "resolve_simulator",
    "SampleRecorder",
    "make_sample_times",
    "DirectMethodSimulator",
    "simulate_ssa",
    "simulate_ssa_batch",
    "encode_trajectories",
    "decode_trajectories",
    "NextReactionSimulator",
    "simulate_next_reaction",
    "TauLeapSimulator",
    "simulate_tau_leap",
    "OdeSimulator",
    "simulate_ode",
    "SIMULATORS",
]
