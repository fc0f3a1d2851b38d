"""Tests for SearchSpec: validation, budgets, cache keys and serialization."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.spec import MAX_STUDY_SAMPLES, MAX_STUDY_STEPS
from repro.errors import EngineError, ReproError
from repro.search import SEARCH_SPEC_SCHEMA, SearchSpec
from repro.search import spec as spec_module

#: Any value a JSON body can carry (Python's parser also yields NaN and ±inf).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

#: Request dicts: each known field absent, valid or any JSON value, plus junk keys.
SPEC_DICTS = st.builds(
    lambda known, junk: {**junk, **known},
    st.fixed_dictionaries(
        {},
        optional={
            name: st.just(value) | JSON_VALUES
            for name, value in SearchSpec(function="0x8", seed=1).to_dict().items()
        },
    ),
    st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=2),
)


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

    @pytest.mark.parametrize("value", [7, np.int64(7), 7.0])
    def test_integral_seeds_accepted(self, value):
        spec = make_spec(seed=value)
        assert spec.seed == 7 and type(spec.seed) is int

    @pytest.mark.parametrize(
        "value, message",
        [
            (1.5, "must be an integer"),
            (True, "must be an integer"),
            ("7", "must be an integer"),
            (float("inf"), "must be an integer"),
            (-1, "must be non-negative"),
        ],
    )
    def test_malformed_seeds_rejected(self, value, message):
        with pytest.raises(EngineError, match=f"SearchSpec.seed {message}"):
            make_spec(seed=value)

    @pytest.mark.parametrize("seed", ["1.5", "true"])
    def test_malformed_json_seeds_rejected(self, seed):
        """A fractional seed must not parse as (and share the cache key of)
        seed 1."""
        with pytest.raises(EngineError, match="SearchSpec.seed"):
            SearchSpec.from_json(f'{{"function": "0x8", "seed": {seed}}}')

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

    def test_budget_must_fund_the_first_round(self):
        make_spec(max_candidates=10, budget_replicates=30).check_budget()  # 10 x n0=3
        with pytest.raises(EngineError, match="cannot fund the initial round"):
            make_spec(max_candidates=10, budget_replicates=29).check_budget()
        fixed = make_spec(max_candidates=10, allocator="fixed", budget_replicates=99)
        with pytest.raises(EngineError, match="10 candidates x 10 replicates"):
            fixed.check_budget()
        make_spec(max_candidates=10).check_budget()  # the exhaustive total

    @pytest.mark.parametrize(
        "protocol, refusal",
        [
            ({"hold_time": MAX_STUDY_SAMPLES / 4 * 1.01}, "samples"),
            ({"sample_interval": 1e-6}, "samples"),
            ({"repeats": 10**400}, "samples"),
            ({"repeats": MAX_STUDY_STEPS // 4 + 1, "hold_time": 1e-6}, "input combinations"),
        ],
        ids=["hold", "interval", "huge-int", "steps"],
    )
    def test_oversized_replicate_is_refused(self, monkeypatch, protocol, refusal):
        """A search replicate is bounded as one study replicate is, counted
        from the protocol (two inputs: four combinations) before the space."""

        def no_count(spec):
            raise AssertionError("an oversized search counted its space")

        monkeypatch.setattr(SearchSpec, "n_candidates", no_count)
        with pytest.raises(EngineError, match=refusal):
            make_spec(**protocol).check_budget()

    def test_protocols_at_the_bounds_pass(self):
        make_spec(max_candidates=10, hold_time=MAX_STUDY_SAMPLES / 4 - 1).check_budget()
        make_spec(max_candidates=10, repeats=MAX_STUDY_STEPS // 4, hold_time=1e-6).check_budget()

    def test_unbounded_hold_is_refused_and_shipped_protocols_pass(self):
        with pytest.raises(EngineError, match="samples"):
            SearchSpec(function="0x0B", seed=1, hold_time=1e8).check_budget()
        # The CLI defaults, the service benchmark's search and the search
        # benchmarks' specs.
        SearchSpec(function="0x0B", seed=1).check_budget()
        make_spec(max_candidates=8, n0=2, fixed_replicates=6, top_k=2, hold_time=60.0).check_budget()
        make_spec(allocator="fixed", max_candidates=12, n0=2, fixed_replicates=2,
                  hold_time=20.0).check_budget()
        make_spec(max_candidates=60, fixed_replicates=10, top_k=5, hold_time=60.0).check_budget()

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

    def test_keying_a_large_space_enumerates_one_candidate(self, monkeypatch):
        """The key reads the space's size and first candidate, never the
        whole stream: this space holds 1,235,520 candidates."""
        yielded = []
        enumerate_assignments = spec_module.enumerate_assignments

        def counting(*args, **kwargs):
            for candidate in enumerate_assignments(*args, **kwargs):
                yielded.append(candidate)
                yield candidate

        monkeypatch.setattr(spec_module, "enumerate_assignments", counting)
        spec = SearchSpec(function="0x6E", library="diverse", seed=1, budget_replicates=10)
        assert spec.n_candidates() == 1_235_520
        assert len(spec.cache_key()) == 64
        assert len(yielded) <= 1


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


class TestParserFuzz:
    """Whatever a request body holds, parsing yields a spec or an EngineError."""

    @settings(max_examples=400, deadline=None)
    @given(data=SPEC_DICTS)
    @example(data={"function": "0x8", "threshold": "abc"})
    @example(data={"function": "0x8", "inputs": 5})
    @example(data={"function": "0x8", "variants": 5})
    @example(data={"function": "0x8", "variants": [5]})
    @example(data={"function": "0x8", "simulator": 5})
    @example(data={"function": "0x8", "seed": float("inf")})
    def test_from_dict(self, data):
        try:
            spec = SearchSpec.from_dict(data)
        except EngineError:
            return
        assert SearchSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=64) | SPEC_DICTS.map(lambda data: json.dumps(data).encode()))
    @example(body=b"\xff\xfe{")
    @example(body=b"[" * 100_000)
    @example(body=b"9" * 5000)
    def test_from_json(self, body):
        try:
            SearchSpec.from_json(body)
        except EngineError:
            pass
