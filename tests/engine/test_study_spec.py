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
from pathlib import Path

import pytest

from repro.engine.spec import STUDY_SPEC_SCHEMA, StudySpec
from repro.errors import EngineError
from repro.gates.circuits import and_gate_circuit


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

    def test_pickle_round_trip_drops_memoized_state(self, spec):
        spec.resolve_circuit()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert "_circuit" not in clone.__dict__


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
        [{"workers": 8}, {"batch_size": 16}, {"analysis_jobs": 4}],
    )
    def test_execution_knobs_do_not_change_the_key(self, spec, change):
        assert spec.replace(**change).cache_key() == spec.cache_key()

    def test_key_stable_across_json_and_pickle_round_trips(self, spec):
        key = spec.cache_key()
        assert StudySpec.from_json(spec.to_json()).cache_key() == key
        assert pickle.loads(pickle.dumps(spec)).cache_key() == key

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
