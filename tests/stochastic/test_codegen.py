"""Unit tests for whole-model propensity kernel code generation."""

import ast
import pickle
import re
import struct

import numpy as np
import pytest

from repro.errors import PropensityError, SimulationError
from repro.sbml import Model
from repro.stochastic import CompiledModel, compile_model
from repro.stochastic import codegen, ziggurat
from repro.stochastic.codegen import (
    BACKEND_CODEGEN,
    BACKEND_INTERP,
    KERNEL_ENV_VAR,
    KERNEL_FORMAT,
    default_backend,
    load_kernel,
    pairwise_sum_source,
)
from repro.stochastic.ssa import DirectMethodSimulator


def _random_states(compiled, count, seed=7):
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(15.0, 10.0, size=(count, compiled.n_species)))


@pytest.fixture()
def backends(toy_model):
    return (
        CompiledModel(toy_model, backend=BACKEND_CODEGEN),
        CompiledModel(toy_model, backend=BACKEND_INTERP),
    )


class TestSourceGeneration:
    def test_module_layout(self, toy_model):
        source = CompiledModel(toy_model).kernel_source
        assert f"KERNEL_FORMAT = {KERNEL_FORMAT}" in source
        assert "def propensities_all(state, out):" in source
        assert "def propensities_after(r, state, out):" in source
        assert (
            "def ssa_segment(state, t, t_stop, generator, recorder, events, max_events):"
            in source
        )
        assert "DEPENDENTS = " in source

    def test_ssa_segment_compiles_apart_with_source_line_numbers(self, toy_model):
        source = CompiledModel(toy_model).kernel_source
        head, tail = codegen.compile_part(source, ""), codegen.compile_part(source, "ssa_segment")

        def functions(code):
            return {c.co_name: c for c in code.co_consts if hasattr(c, "co_name")}

        assert "ssa_segment" not in functions(head)
        segment = functions(tail)["ssa_segment"]
        assert source.splitlines()[segment.co_firstlineno - 1].startswith("def ssa_segment(")

    def test_constants_folded_to_literals(self, toy_model):
        source = CompiledModel(toy_model).kernel_source
        # No constant-dictionary lookups survive codegen; the Hill threshold
        # K^n = 10^2.5 is folded to a literal at generation time.
        assert "_c[" not in source
        assert repr(10.0**2.5) in source

    def test_generation_is_deterministic(self, toy_model):
        assert CompiledModel(toy_model).kernel_source == CompiledModel(toy_model).kernel_source

    def test_compiled_model_exposes_its_source(self, toy_model):
        compiled = CompiledModel(toy_model, backend=BACKEND_CODEGEN)
        assert compiled.kernel is not None
        assert compiled.kernel.source == compiled.kernel_source
        # The interp backend can still generate (without loading) the source.
        interp = CompiledModel(toy_model, backend=BACKEND_INTERP)
        assert interp.kernel is None
        assert interp.kernel_source == compiled.kernel_source

    def test_override_constants_change_the_source(self, toy_model):
        overridden = CompiledModel(toy_model, {"kmax": 8.0})
        assert CompiledModel(toy_model).kernel_source != overridden.kernel_source

    def test_incompatible_format_rejected(self, toy_model):
        source = CompiledModel(toy_model).kernel_source.replace(
            f"KERNEL_FORMAT = {KERNEL_FORMAT}",
            "KERNEL_FORMAT = 9999",
        )
        with pytest.raises(PropensityError, match="incompatible format"):
            load_kernel(source)

    def test_syntax_error_rejected(self):
        with pytest.raises(PropensityError, match="invalid propensity kernel source"):
            load_kernel("def propensities_all(state, out:\n")

    def test_stale_kernel_shape_rejected(self, toy_model):
        other = Model("other")
        other.add_species("X", initial_amount=1.0)
        other.add_parameter("k", 1.0)
        other.add_reaction("decay", reactants=[("X", 1.0)], kinetic_law="k * X")
        with pytest.raises(PropensityError, match="stale"):
            CompiledModel(other, kernel_source=CompiledModel(toy_model).kernel_source)


class TestKernelSemantics:
    def test_full_vector_matches_interp(self, backends):
        codegen_model, interp_model = backends
        for state in _random_states(codegen_model, 25):
            assert np.array_equal(
                codegen_model.propensities(state),
                interp_model.propensities(state),
            )

    def test_incremental_matches_full_recompute(self, backends):
        codegen_model, _ = backends
        state = codegen_model.state_from_dict({"A": 12.0, "Y": 9.0})
        for r in range(codegen_model.n_reactions):
            out = codegen_model.propensities(state)
            codegen_model.apply(r, state)
            codegen_model.propensities_after(r, state, out)
            assert np.array_equal(out, codegen_model.propensities(state))

    def test_batch_matches_rowwise_scalar(self, backends):
        codegen_model, interp_model = backends
        states = _random_states(codegen_model, 17)
        expected = np.stack([codegen_model.propensities(row) for row in states])
        assert np.array_equal(codegen_model.propensities_batch(states), expected)
        assert np.array_equal(interp_model.propensities_batch(states), expected)

    def test_batch_requires_a_matrix(self, backends):
        codegen_model, _ = backends
        with pytest.raises(SimulationError, match="batch"):
            codegen_model.propensities_batch(np.zeros(codegen_model.n_species))

    def test_negative_propensity_clamped(self):
        model = Model("m")
        model.add_species("X", initial_amount=1.0)
        model.add_parameter("k", 1.0)
        model.add_reaction("weird", reactants=[("X", 1.0)], kinetic_law="k * (X - 5)")
        compiled = CompiledModel(model, backend=BACKEND_CODEGEN)
        assert compiled.propensities(compiled.initial_state)[0] == 0.0
        assert compiled.propensities_batch(compiled.initial_state[None, :])[0, 0] == 0.0

    def test_nan_raises_like_interp(self):
        # inf - inf yields NaN under both Python-float and numpy-scalar
        # semantics (multiplication overflow is exception-free in both).
        model = Model("m")
        model.add_species("X", initial_amount=1.0)
        model.add_reaction(
            "undefined",
            products=[("X", 1.0)],
            kinetic_law="X * 1e308 * 10 - X * 1e308 * 10",
        )
        state = np.ones(1)
        for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
            compiled = CompiledModel(model, backend=backend)
            with np.errstate(all="ignore"):
                with pytest.raises(PropensityError, match="'undefined' is NaN"):
                    compiled.propensities(state)
                if backend == BACKEND_CODEGEN:
                    with pytest.raises(PropensityError, match="'undefined' is NaN"):
                        compiled.propensities_batch(state[None, :])


    def test_min_with_nan_matches_scalar_semantics(self):
        # min(5, NaN) is 5.0 under Python's comparison-driven min; the batch
        # kernel must agree (np.minimum would propagate the NaN and trip the
        # NaN guard instead).
        model = Model("m")
        model.add_species("X", initial_amount=1.0)
        model.add_reaction(
            "guarded",
            products=[("X", 1.0)],
            kinetic_law="min(5.0, X * 1e308 * 10 - X * 1e308 * 10)",
        )
        state = np.ones(1)
        with np.errstate(all="ignore"):
            for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
                compiled = CompiledModel(model, backend=backend)
                assert compiled.propensities(state)[0] == 5.0
                assert compiled.propensities_batch(np.ones((3, 1)))[0, 0] == 5.0

    def test_species_shadowing_a_local_parameter_resolves_to_the_species(self):
        # The interpreted name map gives species precedence over a local
        # parameter of the same id; the folder must not fold it away.
        model = Model("shadow")
        model.add_species("X", initial_amount=7.0)
        model.add_reaction(
            "odd",
            products=[("X", 1.0)],
            kinetic_law="0.1 * X",
            local_parameters={"X": 99.0},
        )
        state = np.array([7.0])
        for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
            compiled = CompiledModel(model, backend=backend)
            assert compiled.propensities(state)[0] == 0.1 * 7.0

    def test_dense_graph_falls_back_to_full_recompute(self, toy_model, monkeypatch):
        monkeypatch.setattr(codegen, "_AFTER_STATEMENT_CAP", 0)
        compiled = CompiledModel(toy_model, backend=BACKEND_CODEGEN)
        assert "_AFTER" not in compiled.kernel.source
        state = compiled.state_from_dict({"A": 5.0, "Y": 3.0})
        out = compiled.propensities(state)
        compiled.apply(0, state)
        compiled.propensities_after(0, state, out)
        assert np.array_equal(out, compiled.propensities(state))


class TestBackendSelection:
    def test_codegen_is_the_default(self, toy_model, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert default_backend() == BACKEND_CODEGEN
        assert CompiledModel(toy_model).kernel is not None

    def test_env_var_selects_interp(self, toy_model, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "interp")
        compiled = CompiledModel(toy_model)
        assert compiled.backend == BACKEND_INTERP
        assert compiled.kernel is None

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "turbo")
        with pytest.raises(SimulationError, match="turbo"):
            default_backend()

    def test_unknown_backend_argument_rejected(self, toy_model):
        with pytest.raises(SimulationError):
            CompiledModel(toy_model, backend="turbo")

    def test_interp_scalar_propensity_still_works_on_codegen_backend(self, backends):
        codegen_model, interp_model = backends
        state = codegen_model.state_from_dict({"A": 3.0, "Y": 8.0})
        for r in range(codegen_model.n_reactions):
            assert codegen_model.propensity(r, state) == interp_model.propensity(r, state)


class TestDependencyGraph:
    @staticmethod
    def _reference_graph(compiled):
        """The historical O(R^2) all-pairs algorithm, as a test oracle."""
        changed_by = [
            {compiled.species[i] for i in compiled._change_indices[r]}
            for r in range(compiled.n_reactions)
        ]
        dependents = []
        for r in range(compiled.n_reactions):
            deps = []
            for j in range(compiled.n_reactions):
                if j == r or (compiled._law_species[j] & changed_by[r]):
                    deps.append(j)
            dependents.append(deps)
        return dependents

    def test_fast_graph_matches_reference(self, and_circuit, cello_0x0b):
        for circuit in (and_circuit, cello_0x0b):
            compiled = CompiledModel(circuit.model, backend=BACKEND_INTERP)
            reference = self._reference_graph(compiled)
            assert [compiled.dependents(r) for r in range(compiled.n_reactions)] == reference

    def test_kernel_dependents_match_interp(self, and_circuit):
        codegen_model = CompiledModel(and_circuit.model, backend=BACKEND_CODEGEN)
        interp_model = CompiledModel(and_circuit.model, backend=BACKEND_INTERP)
        for r in range(codegen_model.n_reactions):
            assert codegen_model.dependents(r) == interp_model.dependents(r)

    def test_fired_reaction_keeps_a_law_that_reads_nothing_it_changes(self, toy_model):
        """Production of Y reads only the input A: its ``ssa_segment`` branch
        leaves its own propensity alone, while ``DEPENDENTS`` and
        ``propensities_after`` keep the self entry the next-reaction clock needs."""
        compiled = CompiledModel(toy_model, backend=BACKEND_CODEGEN)
        source = compiled.kernel.source
        assert compiled.kernel.dependents[0] == [0, 1]
        assert "DEPENDENTS = ((0, 1,), (1,),)" in source
        after = source[source.index("def _after_0(") : source.index("def _after_1(")]
        assert "out[0] = _v" in after and "out[1] = _v" in after
        loop = source[source.index("if (_c := _p0) > _threshold:") :]
        branch = loop[: loop.index("else:")]
        assert "_p1 = _v if (_v := " in branch and "_clamp(_v, 1)" in branch
        assert "_p0 = " not in branch and "_clamp(_v, 0)" not in branch


class TestCompileModelEarlyOut:
    def test_matching_overrides_are_a_noop(self, toy_model):
        compiled = compile_model(toy_model)
        assert compile_model(compiled, {"kmax": 4.0}) is compiled
        assert compile_model(compiled, {"kmax": 4.0, "K": 10.0}) is compiled

    def test_matching_overrides_on_an_overridden_compile(self, toy_model):
        compiled = compile_model(toy_model, {"kmax": 8.0})
        assert compile_model(compiled, {"kmax": 8.0}) is compiled

    def test_prior_overrides_are_not_silently_retained(self, toy_model):
        # compile_model(compiled, {K: 10.0}) asks for *only* K=10 (the global
        # default); a compiled object carrying kmax=8.0 must not be reused.
        compiled = compile_model(toy_model, {"kmax": 8.0})
        recompiled = compile_model(compiled, {"K": 10.0})
        assert recompiled is not compiled
        assert recompiled.constants["kmax"] == 4.0
        assert recompiled.constants["K"] == 10.0

    def test_differing_overrides_recompile(self, toy_model):
        compiled = compile_model(toy_model)
        recompiled = compile_model(compiled, {"kmax": 8.0})
        assert recompiled is not compiled
        assert recompiled.constants["kmax"] == 8.0

    def test_unknown_override_still_rejected(self, toy_model):
        compiled = compile_model(toy_model)
        with pytest.raises(PropensityError):
            compile_model(compiled, {"nonexistent": 1.0})


class TestSerialization:
    def test_pickle_round_trip_carries_the_source(self, toy_model):
        compiled = CompiledModel(toy_model, backend=BACKEND_CODEGEN)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.kernel is not None
        assert clone.kernel.source == compiled.kernel.source
        state = compiled.state_from_dict({"A": 10.0, "Y": 20.0})
        assert np.array_equal(clone.propensities(state), compiled.propensities(state))

    def test_interp_backend_survives_pickling(self, toy_model):
        compiled = CompiledModel(toy_model, backend=BACKEND_INTERP)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.backend == BACKEND_INTERP
        assert clone.kernel is None

    def test_construction_from_source_matches_fresh_compile(self, toy_model):
        source = CompiledModel(toy_model).kernel_source
        from_source = CompiledModel(toy_model, kernel_source=source, backend=BACKEND_CODEGEN)
        fresh = CompiledModel(toy_model, backend=BACKEND_CODEGEN)
        for state in _random_states(fresh, 10):
            assert np.array_equal(from_source.propensities(state), fresh.propensities(state))
        assert [from_source.dependents(r) for r in range(from_source.n_reactions)] == [
            fresh.dependents(r) for r in range(fresh.n_reactions)
        ]


def _run_both_backends(model, t_end, seed, **kwargs):
    """One direct-method run per backend: (data, event count) for each."""
    runs = {}
    for backend in (BACKEND_CODEGEN, BACKEND_INTERP):
        simulator = DirectMethodSimulator(CompiledModel(model, backend=backend))
        trajectory = simulator.run(t_end, rng=seed, **kwargs)
        runs[backend] = (trajectory.data, simulator.last_event_count)
    return runs[BACKEND_CODEGEN], runs[BACKEND_INTERP]


def _many_reactions_model(n_genes: int) -> Model:
    """``n_genes`` independent birth–death species: ``2 * n_genes`` reactions.

    Every fourth species starts empty with no production, so some blocks of
    the selection chain hold zero propensities.
    """
    model = Model("many_reactions")
    for i in range(n_genes):
        model.add_species(f"X{i}", initial_amount=0.0 if i % 4 == 0 else float(i % 3 + 1))
        model.add_reaction(
            f"birth{i}",
            products=[(f"X{i}", 1.0)],
            kinetic_law="0.0" if i % 4 == 0 else f"{0.01 * (i % 7 + 1)!r}",
        )
        model.add_reaction(f"death{i}", reactants=[(f"X{i}", 1.0)], kinetic_law=f"0.1 * X{i}")
    return model


def _dense_model(n_genes: int) -> Model:
    """Every law reads the shared pool ``P`` and every reaction changes it,
    so each reaction's dependents are all ``2 * n_genes`` reactions."""
    model = Model("dense_pool")
    model.add_species("P", initial_amount=200.0)
    for i in range(n_genes):
        model.add_species(f"X{i}", initial_amount=float(i % 5))
        model.add_reaction(
            f"take{i}",
            reactants=[("P", 1.0)],
            products=[(f"X{i}", 1.0)],
            kinetic_law=f"{0.0005 * (i % 9 + 1)!r} * P",
        )
        model.add_reaction(
            f"give{i}",
            reactants=[(f"X{i}", 1.0)],
            products=[("P", 1.0)],
            kinetic_law=f"0.05 * X{i} * hill_rep(P, 150.0, 2.0)",
        )
    return model


class TestFusedLoopContracts:
    """Numeric contracts of the generated ``ssa_segment`` loop."""

    def test_recorder_and_factor_locals_avoid_the_draw_statements_names(self, cello_0x0b):
        """A sample-row or factor local named like a draw statement's local
        (``_k``, ``_r``, ``_i``, ``_n``, ``_w``, ...) would be clobbered per event."""
        draws = [
            *ziggurat.WORDS_OPEN,
            *ziggurat.draw_exponential("_tau", "1.0", ziggurat.block_for("1.0")),
            *ziggurat.draw_uniform("_threshold", None, ziggurat.block_for("1.0")),
            *ziggurat.WORDS_CLOSE,
        ]
        drawn = {n.id for n in ast.walk(ast.parse("\n".join(draws))) if isinstance(n, ast.Name)}
        source = CompiledModel(cello_0x0b.model, backend=BACKEND_CODEGEN).kernel.source
        segment = ast.parse(source[source.index("def ssa_segment(") :])
        assigned = {
            n.id
            for n in ast.walk(segment)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        recorder_locals = {"_times", "_rows", "_cursor", "_next"}
        factor_locals = {name for name in assigned if re.fullmatch(r"_f\d+", name)}
        assert factor_locals and recorder_locals <= assigned
        assert not (recorder_locals | factor_locals) & drawn

    def test_total_matches_numpy_sum_bit_for_bit(self):
        """The emitted total reproduces numpy's pairwise ``.sum()`` order.

        Guards against a numpy upgrade changing its pairwise blocking: the
        loop's waiting times and overshoot fall-through depend on it.
        """
        rng = np.random.default_rng(20170659)
        for n in range(1, 301):
            code = compile(pairwise_sum_source([f"v[{i}]" for i in range(n)]), "<sum>", "eval")
            for kind in range(6):
                values = 10.0 ** rng.uniform(-6.0, 6.0, n) * rng.random(n)
                if kind == 1:
                    values[rng.random(n) < 0.3] = 0.0
                elif kind == 2:
                    values[rng.random(n) < 0.3] = 5e-324 * rng.integers(1, 1000)
                elif kind == 3:
                    values[rng.integers(n)] = np.inf
                elif kind == 4:
                    values[rng.random(n) < 0.5] = -0.0
                elif kind == 5:
                    values *= rng.choice([-1.0, 1.0], n)
                emitted = eval(code, {"v": values.tolist()})  # noqa: S307 - generated sum
                expected = float(np.sum(values))
                assert struct.pack("<d", emitted) == struct.pack("<d", expected), (n, kind)

    def test_five_thousand_reactions_bit_identical_to_interp(self):
        """Selection scans 64-branch blocks; a flat 5000-branch chain would
        not even compile."""
        model = _many_reactions_model(2500)
        assert len(model.reaction_ids()) >= 5000
        codegen_run, interp_run = _run_both_backends(model, 0.4, 20170660, sample_interval=0.1)
        assert codegen_run[1] == interp_run[1] > 100
        assert np.array_equal(codegen_run[0], interp_run[0])

    def test_dense_model_above_statement_cap_bit_identical_to_interp(self):
        model = _dense_model(80)
        compiled = CompiledModel(model, backend=BACKEND_CODEGEN)
        statements = sum(len(compiled.dependents(r)) for r in range(compiled.n_reactions))
        assert statements > codegen._AFTER_STATEMENT_CAP
        assert "_AFTER" not in compiled.kernel.source
        codegen_run, interp_run = _run_both_backends(model, 60.0, 20170661)
        assert codegen_run[1] == interp_run[1] > 1000
        assert np.array_equal(codegen_run[0], interp_run[0])
