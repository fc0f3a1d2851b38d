"""Backend parity: codegen kernels vs the interpreted per-reaction path.

The generated whole-model kernels promise **bit-identical** trajectories to
the interpreted fallback — same propensity values, same RNG draw sequence,
same chosen reactions — on every example model and every simulator.  These
tests run each (model, simulator) pair under both ``REPRO_KERNEL`` settings
with the same seed and compare the sampled trajectories exactly (no
tolerance), including boundary-species clamping mid-run and local-parameter
shadowing.
"""

import math
import re

import numpy as np
import pytest

from repro.gates import cello_circuit
from repro.sbml import Model
from repro.stochastic import (
    BACKEND_CODEGEN,
    BACKEND_INTERP,
    KERNEL_ENV_VAR,
    CompiledModel,
    InputSchedule,
    resolve_simulator,
)

SIMULATORS = ["ssa", "next-reaction", "tau-leap", "ode"]

MODEL_NAMES = [
    "toy_not",
    "and_gate",
    "not_gate",
    "cello_0x0B",
    "mixed_functions",
    "local_shadowing",
    "shared_factor",
    "literal_bits",
    "floor_factor",
    "hill_nonatomic",
    "cascade_40",
]

#: Shorter horizons for the bigger circuits keep the SSA runs quick; the
#: event counts are still in the thousands, plenty to detect any divergence.
T_END = {
    "toy_not": 60.0,
    "and_gate": 30.0,
    "not_gate": 40.0,
    "cello_0x0B": 25.0,
    "mixed_functions": 60.0,
    "local_shadowing": 60.0,
    "shared_factor": 60.0,
    "literal_bits": 60.0,
    "floor_factor": 60.0,
    "hill_nonatomic": 60.0,
    "cascade_40": 60.0,
}


def _mixed_functions_model() -> Model:
    """A model exercising every expression feature codegen special-cases:
    Hill inlining, pow on species, exp/sqrt/min/max/piecewise, unary minus.
    """
    model = Model("mixed_functions")
    model.add_species("I", boundary_condition=True, initial_amount=5.0)
    model.add_species("X", initial_amount=20.0)
    model.add_species("Y", initial_amount=3.0)
    model.add_parameter("k1", 2.0)
    model.add_parameter("K", 8.0)
    model.add_parameter("n", 2.0)
    model.add_parameter("kd", 0.02)
    model.add_reaction(
        "hill_production",
        products=[("Y", 1.0)],
        modifiers=["I"],
        kinetic_law="k1 * hill_act(I, K, n)",
    )
    model.add_reaction(
        "exp_production",
        products=[("X", 1.0)],
        modifiers=["Y"],
        kinetic_law="k1 * exp(-(Y) / 40)",
    )
    model.add_reaction(
        "minmax_decay",
        reactants=[("X", 1.0)],
        modifiers=["Y"],
        kinetic_law="0.02 * min(X, 30) + 0.001 * max(Y, 1)",
    )
    model.add_reaction(
        "pow_decay",
        reactants=[("X", 1.0)],
        kinetic_law="kd * X^1.3",
    )
    model.add_reaction(
        "piecewise_production",
        products=[("Y", 1.0)],
        kinetic_law="piecewise(0.5, Y - 10, 0.05)",
    )
    model.add_reaction(
        "sqrt_decay",
        reactants=[("Y", 1.0)],
        kinetic_law="0.05 * sqrt(Y + 1)",
    )
    return model


def _local_shadowing_model() -> Model:
    """Local kinetic-law parameters shadow globals of the same id."""
    model = Model("local_shadowing")
    model.add_species("A", boundary_condition=True, initial_amount=10.0)
    model.add_species("X", initial_amount=4.0)
    model.add_parameter("k", 0.05)
    model.add_parameter("K", 12.0)
    model.add_reaction(
        "production_global_k",
        products=[("X", 1.0)],
        modifiers=["A"],
        kinetic_law="k * A",
    )
    model.add_reaction(
        "production_local_k",
        products=[("X", 1.0)],
        modifiers=["A"],
        kinetic_law="k * hill_rep(A, K, 2.0)",
        local_parameters={"k": 3.0},
    )
    model.add_reaction(
        "degradation",
        reactants=[("X", 1.0)],
        kinetic_law="k * X",
        local_parameters={"k": 0.15},
    )
    return model


def _cascade_model(n_genes: int = 20) -> Model:
    """A repressor cascade of ``2 * n_genes`` reactions: input ``I``
    activates ``G0``, each ``G{k}`` represses ``G{k+1}``, every gene decays.

    Each law reads one species, so the model is sparse and an event
    recomputes one or two laws of a 40-term pairwise sum: five stride-8
    passes, whose partial sums the fused loop keeps and updates in place.
    """
    model = Model("cascade_40")
    model.add_species("I", boundary_condition=True, initial_amount=5.0)
    for k in range(n_genes):
        model.add_species(f"G{k}", initial_amount=float(k % 4))
    for k in range(n_genes):
        source = "hill_act(I, 5.0, 2.0)" if k == 0 else f"hill_rep(G{k - 1}, 10.0, 2.0)"
        model.add_reaction(f"make_G{k}", products=[(f"G{k}", 1.0)], kinetic_law=f"2.0 * {source}")
        model.add_reaction(f"decay_G{k}", reactants=[(f"G{k}", 1.0)], kinetic_law=f"0.1 * G{k}")
    return model


@pytest.fixture()
def example_models(toy_model, and_circuit, not_circuit, cello_0x0b):
    return {
        "toy_not": toy_model,
        "and_gate": and_circuit.model,
        "not_gate": not_circuit.model,
        "cello_0x0B": cello_0x0b.model,
        "mixed_functions": _mixed_functions_model(),
        "local_shadowing": _local_shadowing_model(),
        "cascade_40": _cascade_model(),
        **{name: build() for name, build in FACTORED_MODELS.items()},
    }


def _schedule_for(model, t_end: float) -> InputSchedule:
    """Clamp the model's boundary inputs mid-run (boundary-clamping parity)."""
    schedule = InputSchedule()
    boundary = model.boundary_species()
    for offset, sid in enumerate(boundary):
        schedule.add(t_end / 3 + offset, {sid: 30.0})
        schedule.add(2 * t_end / 3 + offset, {sid: 0.0})
    return schedule


class TestBackendParity:
    @pytest.mark.parametrize("simulator", SIMULATORS)
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_trajectories_bit_identical(self, example_models, name, simulator, monkeypatch):
        model = example_models[name]
        t_end = T_END[name]
        schedule = _schedule_for(model, t_end)
        simulate = resolve_simulator(simulator)
        trajectories = {}
        for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
            monkeypatch.setenv(KERNEL_ENV_VAR, backend)
            trajectories[backend] = simulate(
                model,
                t_end,
                sample_interval=1.0,
                schedule=schedule,
                rng=20170656,
            )
        codegen_run = trajectories[BACKEND_CODEGEN]
        interp_run = trajectories[BACKEND_INTERP]
        assert codegen_run.species == interp_run.species
        assert np.array_equal(codegen_run.times, interp_run.times)
        assert np.array_equal(codegen_run.data, interp_run.data)

    @pytest.mark.parametrize("fractional_state", [False, True])
    def test_tauleap_matmul_update_bit_identical_to_sequential(
        self, example_models, fractional_state, monkeypatch
    ):
        """The vectorised `counts @ change_matrix` update must equal the
        historical sequential per-reaction loop bit-for-bit — including when
        a fractional species amount forces the sequential path."""
        from repro.stochastic import CompiledModel, simulate_tau_leap

        model = example_models["mixed_functions"].copy()
        if fractional_state:
            model.set_initial_amount("X", 20.5)
        with_matrix = simulate_tau_leap(model, 50.0, rng=20170658)
        # Force the sequential update unconditionally and re-run.
        monkeypatch.setattr(
            CompiledModel,
            "has_integral_stoichiometry",
            property(lambda self: False),
        )
        sequential = simulate_tau_leap(model, 50.0, rng=20170658)
        assert np.array_equal(with_matrix.data, sequential.data)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_propensity_vectors_bit_identical(self, example_models, name):
        from repro.stochastic import CompiledModel

        model = example_models[name]
        codegen_model = CompiledModel(model, backend=BACKEND_CODEGEN)
        interp_model = CompiledModel(model, backend=BACKEND_INTERP)
        rng = np.random.default_rng(20170657)
        states = np.abs(rng.normal(12.0, 8.0, size=(20, codegen_model.n_species)))
        assert np.array_equal(
            codegen_model.propensities_batch(states),
            interp_model.propensities_batch(states),
        )
        for state in states:
            assert np.array_equal(
                codegen_model.propensities(state),
                interp_model.propensities(state),
            )


# ---------------------------------------------------------------------------
# Single-species factors in the fused loop
# ---------------------------------------------------------------------------


def _input_model(sid: str, *species) -> Model:
    """A model with boundary input ``I`` and the given (id, amount) species,
    each degrading at 0.1 per molecule."""
    model = Model(sid)
    model.add_species("I", boundary_condition=True, initial_amount=5.0)
    for name, amount in species:
        model.add_species(name, initial_amount=amount)
    for name, _ in species:
        model.add_reaction(f"decay_{name}", reactants=[(name, 1.0)], kinetic_law=f"0.1 * {name}")
    return model


def _shared_factor_model() -> Model:
    """``4 * hill_rep(Y, 7, 2)`` is one factor of two laws that read other species."""
    model = _input_model("shared_factor", ("X", 2.0), ("Y", 3.0), ("Z", 1.0))
    model.add_reaction(
        "make_x",
        products=[("X", 1.0)],
        kinetic_law="4.0 * hill_rep(Y, 7.0, 2.0) * hill_act(I, 5.0, 2.0)",
    )
    model.add_reaction(
        "make_z",
        products=[("Z", 1.0)],
        kinetic_law="4.0 * hill_rep(Y, 7.0, 2.0) * (1 + 0.05 * X)",
    )
    model.add_reaction("make_y", products=[("Y", 1.0)], kinetic_law="0.5 + 0.1 * Z")
    return model


#: The next float above the Hill constant 7.0.
K_UP = math.nextafter(7.0, math.inf)


def _literal_bits_model() -> Model:
    """Pairs of subtrees that differ only in one literal's bits: ``0.0`` vs
    ``-0.0`` (equal under ``==`` and in infix text) and ``K`` vs ``K_UP``."""
    model = _input_model("literal_bits", ("X", 4.0), ("Y", 6.0))
    laws = {
        "plus_zero": "(0.0 + hill_rep(Y, 7.0, 2.0)) * (1 + I)",
        "plus_minus_zero": "(-0.0 + hill_rep(Y, 7.0, 2.0)) * (2 + I)",
        "hill_k": "hill_rep(X, 7.0, 2.0) * (1 + I)",
        "hill_k_up": f"hill_rep(X, {K_UP!r}, 2.0) * (2 + I)",
    }
    for rid, law in laws.items():
        model.add_reaction(rid, products=[("X" if "zero" in rid else "Y", 1.0)], kinetic_law=law)
    return model


def _floor_factor_model() -> Model:
    """``floor(X / 3)`` is a factor of two laws and the whole of one of them;
    ``ceil`` sits in a factor of a third."""
    model = _input_model("floor_factor", ("X", 20.0), ("Y", 5.0))
    model.add_reaction("make_x", products=[("X", 1.0)], kinetic_law="2.0 + 0.1 * I")
    model.add_reaction("floor_alone", products=[("Y", 1.0)], kinetic_law="floor(X / 3)")
    model.add_reaction("floor_times", products=[("Y", 1.0)], kinetic_law="floor(X / 3) * I * 0.01")
    model.add_reaction(
        "ceil_mixed", reactants=[("Y", 1.0)], kinetic_law="ceil(Y / 4) * (X + 1) * 0.01"
    )
    return model


def _hill_nonatomic_model() -> Model:
    """Hill terms over non-atomic arguments: temporaries and walrus names
    inside factors, and a factor inside a Hill argument that reads two species."""
    model = _input_model("hill_nonatomic", ("X", 3.0), ("Y", 2.0))
    model.add_reaction(
        "rep_shifted",
        products=[("X", 1.0)],
        kinetic_law="3.0 * hill_rep(Y + 1, 6.0, 2.0) * (1 + I)",
    )
    model.add_reaction(
        "act_scaled",
        products=[("Y", 1.0)],
        kinetic_law="hill_act(2 * X, 15.0, 2.0) * hill_rep(Y + 1, 6.0, 2.0)",
    )
    model.add_reaction(
        "act_mixed",
        products=[("Y", 1.0)],
        kinetic_law="0.5 * hill_act((X + 1) * Y, 30.0, 2.0)",
    )
    return model


FACTORED_MODELS = {
    "shared_factor": _shared_factor_model,
    "literal_bits": _literal_bits_model,
    "floor_factor": _floor_factor_model,
    "hill_nonatomic": _hill_nonatomic_model,
}


#: The line opening the event loop of ``ssa_segment``.
LOOP_HEADER = "for events in range(events, max(events, max_events) + 1):"

#: A line opening a branch of the loop's reaction selection: a cached
#: partial sum below 8 reactions, a running sum from 8 on, or the fall-through.
BRANCH = re.compile(r"^ +(?:(?:el)?if (?:_c\d+|\(_c := .*\)) > _threshold|else):\n", re.M)


def _segment_entry(model) -> str:
    """The source of ``ssa_segment`` up to its event loop."""
    source = CompiledModel(model, backend=BACKEND_CODEGEN).kernel.source
    segment = source[source.index("def ssa_segment(") :]
    return segment[: segment.index(LOOP_HEADER)]


def _segment_factors(model) -> list:
    """The expressions of the factor locals ``ssa_segment`` computes at entry,
    one per local, in order."""
    return re.findall(r"^ +_f\d+ = (.*)$", _segment_entry(model), re.M)


class TestFactoredLoopSource:
    """Where the fused loop keeps single-species factors (the models also run
    in :class:`TestBackendParity`)."""

    def test_shared_subtree_is_one_local(self):
        factors = _segment_factors(_shared_factor_model())
        assert sum(expr.startswith("(4.0 * (1.0 if") for expr in factors) == 1
        assert len(set(factors)) == len(factors)

    def test_literal_bits_keep_subtrees_apart(self):
        factors = _segment_factors(_literal_bits_model())
        starts = ("(0.0 + ", "(-0.0 + ", "(1.0 if _s1 <= 0.0 else (49.0 /")
        for start in starts:
            assert sum(expr.startswith(start) for expr in factors) == 1, start
        k_up = repr(K_UP**2.0)
        assert sum(f"({k_up} /" in expr for expr in factors) == 1
        assert len(set(factors)) == len(factors)

    def test_integral_factor_still_sums_as_a_float(self):
        model = _floor_factor_model()
        entry = _segment_entry(model)
        (floor_local,) = re.findall(r"^ +(_f\d+) = _fn_floor\(\(_s1 / 3\.0\)\)$", entry, re.M)
        # The law that is nothing but the shared floor still holds a float.
        assert f"(_v := float({floor_local}))" in entry
        assert "_fn_ceil((_s2 / 4.0))" in _segment_factors(model)

    def test_hill_temporaries_inside_factors(self):
        model = _hill_nonatomic_model()
        assert any(":=" in expr for expr in _segment_factors(model))
        # hill_act((X + 1) * Y, ...) reads two species: its argument's
        # temporary multiplies the factor (X + 1) by Y.
        assert re.search(r"^ +_t\d+ = \(_f\d+ \* _s2\)$", _segment_entry(model), re.M)

    @pytest.mark.parametrize(("name", "column"), [("0x8E", 5), ("0xC8", 3)])
    def test_nested_factor_reads_the_inner_local(self, name, column, monkeypatch):
        """``4.0 * hill_rep(s)`` reads the local holding another law's
        ``hill_rep(s)``: each branch evaluates every ``_sN ** 4.0`` once."""
        model = cello_circuit(name).model
        source = CompiledModel(model, backend=BACKEND_CODEGEN).kernel.source
        start = source.index("def ssa_segment(")
        segment = source[start : source.index("# part: propensities_all")]
        entry, loop = segment.split(LOOP_HEADER)
        branches = BRANCH.split(loop)
        assert len(branches) > 10
        for block in (entry, *branches):
            powers = re.findall(r"_s\d+ \*\* 4\.0", block)
            assert len(powers) == len(set(powers)), block
        (inner,) = re.findall(rf"^ +(_f\d+) = \(1\.0 if _s{column} <= 0\.0 else .*$", entry, re.M)
        assert re.search(rf"^ +_f\d+ = \(4\.0 \* {inner}\)$", entry, re.M)
        runs = []
        for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
            monkeypatch.setenv(KERNEL_ENV_VAR, backend)
            runs.append(resolve_simulator("ssa")(model, 40.0, rng=20170664).data)
        assert np.array_equal(*runs)
