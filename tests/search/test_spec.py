"""Tests for SearchSpec: validation, budgets, cache keys and serialization."""

import json

import pytest

from repro.errors import EngineError, ReproError
from repro.search import SEARCH_SPEC_SCHEMA, SearchSpec


def make_spec(**overrides):
    fields = {
        "function": "0x8",
        "inputs": ("LacI", "TetR"),
        "library": "diverse",
        "seed": 42,
    }
    fields.update(overrides)
    return SearchSpec(**fields)


class TestValidation:
    def test_defaults_are_valid(self):
        spec = make_spec()
        assert spec.allocator == "racing"
        assert spec.n0 == 3
        assert spec.fixed_replicates == 10
        assert spec.schema == SEARCH_SPEC_SCHEMA

    def test_bad_function_rejected(self):
        with pytest.raises(ReproError):
            make_spec(function="0xZZ")

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ReproError):
            make_spec(inputs=("LacI", "LacI"))

    def test_unknown_library_rejected(self):
        with pytest.raises(EngineError):
            make_spec(library="exotic")

    def test_unknown_allocator_rejected(self):
        with pytest.raises(EngineError):
            make_spec(allocator="genetic")

    def test_unknown_simulator_rejected(self):
        with pytest.raises(ReproError):
            make_spec(simulator="quantum")

    def test_simulator_aliases_canonicalized(self):
        assert make_spec(simulator="gillespie").simulator == "ssa"

    def test_n0_must_support_a_variance_estimate(self):
        with pytest.raises(EngineError):
            make_spec(n0=1)

    def test_fixed_replicates_must_cover_n0(self):
        with pytest.raises(EngineError):
            make_spec(n0=5, fixed_replicates=3)

    def test_bool_not_accepted_as_count(self):
        with pytest.raises(EngineError):
            make_spec(top_k=True)

    def test_positive_floats_enforced(self):
        for field in ("threshold", "fov_ud", "hold_time", "sample_interval"):
            with pytest.raises(EngineError):
                make_spec(**{field: 0.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["threshold", "fov_ud", "hold_time", "sample_interval"])
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(EngineError, match=f"{field} must be positive and finite"):
            make_spec(**{field: value})
        # Python's JSON parser accepts the NaN and Infinity literals.
        body = json.dumps(dict(make_spec().to_dict(), **{field: value}))
        with pytest.raises(EngineError, match=f"{field} must be positive and finite"):
            SearchSpec.from_json(body)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_variant_overrides_rejected(self, value):
        with pytest.raises(EngineError, match="kd_GFP"):
            make_spec(variants=((("kd_GFP", value),),))

    def test_ci_level_bounds(self):
        for level in (0.0, 1.0):
            with pytest.raises(EngineError):
                make_spec(ci_level=level)

    def test_future_schema_rejected(self):
        with pytest.raises(EngineError):
            make_spec(schema=SEARCH_SPEC_SCHEMA + 1)

    def test_variants_must_not_be_empty(self):
        with pytest.raises(EngineError):
            make_spec(variants=())


class TestSpace:
    def test_n_candidates_counts_permutations_times_variants(self):
        spec = make_spec(variants=((), (("kd_YFP", 0.2),)))
        # 13 free repressors, 2 assignable gates: P(13, 2) x 2 variants.
        assert spec.n_candidates() == 13 * 12 * 2

    def test_max_candidates_truncates(self):
        spec = make_spec(max_candidates=10)
        assert spec.n_candidates() == 10
        assert len(spec.candidates()) == 10

    def test_budgets(self):
        spec = make_spec(max_candidates=10, fixed_replicates=4)
        assert spec.exhaustive_replicates() == 40
        assert spec.total_budget() == 40
        assert make_spec(max_candidates=10, budget_replicates=25).total_budget() == 25

    def test_candidates_carry_variant_overrides(self):
        spec = make_spec(variants=((), (("kd_YFP", 0.2),)), max_candidates=4)
        overrides = [c.overrides for c in spec.candidates()]
        assert overrides == [(), (("kd_YFP", 0.2),), (), (("kd_YFP", 0.2),)]


class TestCacheKey:
    def test_requires_a_seed(self):
        with pytest.raises(EngineError):
            make_spec(seed=None).cache_key()

    def test_stable_across_instances(self):
        assert make_spec().cache_key() == make_spec().cache_key()

    def test_sensitive_to_search_defining_fields(self):
        base = make_spec().cache_key()
        assert make_spec(seed=43).cache_key() != base
        assert make_spec(function="0x6").cache_key() != base
        assert make_spec(allocator="fixed").cache_key() != base
        assert make_spec(n0=4).cache_key() != base
        assert make_spec(hold_time=99.0).cache_key() != base
        assert make_spec(variants=((), (("kd_YFP", 0.2),))).cache_key() != base

    def test_insensitive_to_execution_knobs(self):
        base = make_spec().cache_key()
        assert make_spec(workers=4).cache_key() == base
        assert make_spec(batch_size=8).cache_key() == base


class TestSerialization:
    def test_json_round_trip(self):
        spec = make_spec(
            variants=((), (("kd_YFP", 0.2), ("kd_PhlF", 1.5))),
            max_candidates=50,
            budget_replicates=100,
        )
        clone = SearchSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_dict_round_trip_preserves_tuples(self):
        spec = make_spec(variants=((), (("kd_YFP", 0.2),)))
        data = json.loads(spec.to_json())
        clone = SearchSpec.from_dict(data)
        assert clone.variants == spec.variants
        assert clone.inputs == spec.inputs

    def test_unknown_field_rejected(self):
        with pytest.raises(EngineError):
            SearchSpec.from_dict({"function": "0x8", "surprise": 1})

    def test_function_required(self):
        with pytest.raises(EngineError):
            SearchSpec.from_dict({})

    def test_malformed_json_rejected(self):
        with pytest.raises(EngineError):
            SearchSpec.from_json("{not json")
