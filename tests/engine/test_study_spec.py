"""StudySpec: canonicalization, serialization, and cache-key stability.

The service's content-addressed cache is only sound if the key is (a) stable
— same study described twice, in the same or another process, yields the
same digest — and (b) sensitive — any field that can change the result
changes the digest.  These tests pin both directions.
"""

import json
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.spec import STUDY_SPEC_SCHEMA, StudySpec
from repro.errors import EngineError
from repro.gates.circuits import and_gate_circuit

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
            for name, value in StudySpec(circuit="and", seed=1).to_dict().items()
        },
    ),
    st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=2),
)


@pytest.fixture
def spec():
    return StudySpec(circuit="and", n_replicates=3, seed=11, hold_time=80.0)


class TestCanonicalization:
    def test_frozen_and_hashable(self, spec):
        with pytest.raises(Exception):
            spec.n_replicates = 9
        assert spec == StudySpec(circuit="and", n_replicates=3, seed=11, hold_time=80.0)
        assert hash(spec) == hash(spec.replace())

    def test_simulator_aliases_canonicalize(self):
        a = StudySpec(circuit="and", simulator="ssa")
        b = StudySpec(circuit="and", simulator="gillespie")
        assert a.simulator == b.simulator == "ssa"
        assert a == b

    def test_overrides_sort_and_freeze(self):
        a = StudySpec(circuit="and", overrides={"b": 2.0, "a": 1.0})
        b = StudySpec(circuit="and", overrides=[("a", 1.0), ("b", 2.0)])
        assert a.overrides == b.overrides == (("a", 1.0), ("b", 2.0))
        with pytest.raises(EngineError):
            StudySpec(circuit="and", overrides=[("a", 1.0), ("a", 2.0)])

    def test_validation(self):
        with pytest.raises(EngineError):
            StudySpec(circuit="")
        with pytest.raises(EngineError):
            StudySpec(circuit="and", n_replicates=0)
        with pytest.raises(EngineError):
            StudySpec(circuit="and", hold_time=-1.0)
        with pytest.raises(EngineError):
            StudySpec(circuit="and", schema=STUDY_SPEC_SCHEMA + 1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["threshold", "fov_ud", "hold_time", "sample_interval"])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(EngineError, match=f"{field} must be positive and finite"):
            StudySpec(circuit="and", seed=1, **{field: value})
        # Python's JSON parser accepts the NaN and Infinity literals.
        body = json.dumps({"circuit": "and", "seed": 1, field: value})
        with pytest.raises(EngineError, match=f"{field} must be positive and finite"):
            StudySpec.from_json(body)

    @pytest.mark.parametrize("value", [7, np.int64(7), 7.0, np.float64(7.0)])
    def test_integral_seeds_accepted(self, value):
        spec = StudySpec(circuit="and", seed=value)
        assert spec.seed == 7 and type(spec.seed) is int
        assert StudySpec.from_json(json.dumps({"circuit": "and", "seed": float(value)})) == spec

    @pytest.mark.parametrize(
        "value, message",
        [
            (1.5, "must be an integer"),
            (True, "must be an integer"),
            (np.bool_(True), "must be an integer"),
            ("7", "must be an integer"),
            ([7], "must be an integer"),
            (float("nan"), "must be an integer"),
            (-1, "must be non-negative"),
        ],
    )
    def test_malformed_seeds_rejected(self, value, message):
        with pytest.raises(EngineError, match=f"StudySpec.seed {message}"):
            StudySpec(circuit="and", seed=value)

    @pytest.mark.parametrize("seed", ["1.5", "true", "-2"])
    def test_malformed_json_seeds_rejected(self, seed):
        with pytest.raises(EngineError, match="StudySpec.seed"):
            StudySpec.from_json(f'{{"circuit": "and", "seed": {seed}}}')

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_overrides_rejected(self, value):
        with pytest.raises(EngineError, match="kd_GFP"):
            StudySpec(circuit="and", overrides={"kd_GFP": value})

    def test_for_circuit_attaches_the_instance(self):
        circuit = and_gate_circuit()
        spec = StudySpec.for_circuit(circuit, seed=1)
        assert spec.circuit == circuit.name
        assert spec.resolve_circuit() is circuit
        assert spec.replace(workers=2).resolve_circuit() is circuit


class TestSerialization:
    def test_json_round_trip(self, spec):
        clone = StudySpec.from_json(spec.to_json())
        assert clone == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(EngineError, match="thresold"):
            StudySpec.from_dict({"circuit": "and", "thresold": 10.0})
        with pytest.raises(EngineError, match="circuit"):
            StudySpec.from_dict({"n_replicates": 3})
        with pytest.raises(EngineError, match="malformed"):
            StudySpec.from_json("{not json")

    def test_schema_2_has_no_analysis_jobs(self, spec):
        assert STUDY_SPEC_SCHEMA == 2 and spec.to_dict()["schema"] == 2
        assert "analysis_jobs" not in spec.to_dict()
        with pytest.raises(EngineError, match="analysis_jobs"):
            StudySpec.from_dict(dict(spec.to_dict(), analysis_jobs=2))

    def test_pickle_round_trip_drops_memoized_state(self, spec):
        spec.resolve_circuit()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert "_circuit" not in clone.__dict__


class TestParserFuzz:
    """Whatever a request body holds, parsing yields a spec or an EngineError."""

    @settings(max_examples=400, deadline=None)
    @given(data=SPEC_DICTS)
    @example(data={"circuit": "and", "threshold": "abc"})
    @example(data={"circuit": "and", "overrides": 5})
    @example(data={"circuit": "and", "simulator": 5})
    @example(data={"circuit": "and", "seed": -1})
    @example(data={"circuit": "and", "hold_time": 10**400})
    def test_from_dict(self, data):
        try:
            spec = StudySpec.from_dict(data)
        except EngineError:
            return
        assert StudySpec.from_json(spec.to_json()) == spec

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=64) | SPEC_DICTS.map(lambda data: json.dumps(data).encode()))
    @example(body=b"\xff\xfe{")
    @example(body=b"[" * 100_000)
    @example(body=b"9" * 5000)
    def test_from_json(self, body):
        try:
            StudySpec.from_json(body)
        except EngineError:
            pass


class TestCacheKeyStability:
    def test_same_study_built_twice_same_key(self, spec):
        again = StudySpec(circuit="and", n_replicates=3, seed=11, hold_time=80.0)
        assert spec.cache_key() == again.cache_key()

    def test_live_circuit_and_name_agree(self, spec):
        by_object = StudySpec.for_circuit(
            and_gate_circuit(), n_replicates=3, seed=11, hold_time=80.0
        )
        assert by_object.cache_key() == spec.cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 12},
            {"n_replicates": 4},
            {"threshold": 16.0},
            {"fov_ud": 0.3},
            {"hold_time": 81.0},
            {"repeats": 2},
            {"simulator": "ode"},
            {"sample_interval": 2.0},
            {"overrides": (("kd_GFP", 0.1),)},
            {"circuit": "or"},
        ],
    )
    def test_any_result_determining_field_changes_the_key(self, spec, change):
        assert spec.replace(**change).cache_key() != spec.cache_key()

    @pytest.mark.parametrize(
        "change",
        [{"workers": 8}, {"batch_size": 16}, {"workers": 8, "batch_size": 16}],
    )
    def test_execution_knobs_do_not_change_the_key(self, spec, change):
        assert spec.replace(**change).cache_key() == spec.cache_key()

    def test_key_stable_across_json_and_pickle_round_trips(self, spec):
        key = spec.cache_key()
        assert StudySpec.from_json(spec.to_json()).cache_key() == key
        assert pickle.loads(pickle.dumps(spec)).cache_key() == key

    def test_pinned_key_of_a_repeated_protocol(self):
        """A key persisted by an earlier release still names the same study."""
        key = "009626d099a5d51ea82279107f5fa67ccbc1aba31877a6825c7f11bace25286b"
        assert StudySpec(circuit="0x0B", seed=1, repeats=3).cache_key() == key

    def test_long_protocol_keys_in_linear_time(self):
        """The service keys every seeded body on its event loop: 8,000 input
        events (0x0B at repeats=1000) must not stall it.  Best of three, so
        one scheduler hiccup cannot fail it; a quadratic schedule build takes
        over a second every time."""
        spec = StudySpec(circuit="0x0B", seed=1, repeats=1000)
        spec.resolve_circuit()
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            spec.cache_key()
            timings.append(time.perf_counter() - start)
        assert min(timings) < 0.1, timings

    def test_unseeded_spec_has_no_key(self):
        with pytest.raises(EngineError, match="seed"):
            StudySpec(circuit="and").cache_key()

    def test_key_stable_across_a_worker_process(self, spec):
        """Parent- and worker-side keys agree (the cross-process contract).

        The service parent and a fabric worker must derive the same key from
        the same spec without talking to each other; a fresh interpreter is
        the strictest version of that.
        """
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import pickle, sys;"
            "spec = pickle.loads(sys.stdin.buffer.read());"
            "print(spec.cache_key())"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(spec),
            capture_output=True,
            env={"PYTHONPATH": str(src)},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == spec.cache_key()
