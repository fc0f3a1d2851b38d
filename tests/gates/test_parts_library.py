"""Tests for the repressor parts library."""

import pytest

from repro.errors import ModelError
from repro.gates import (
    LIBRARY_NAMES,
    InputSignal,
    PartsLibrary,
    RepressorPart,
    default_library,
    diverse_library,
    resolve_library,
)


class TestParts:
    def test_repressor_kinetics_validated(self):
        with pytest.raises(ModelError):
            RepressorPart(name="Bad", promoter="pBad", strength=0.0)
        with pytest.raises(ModelError):
            RepressorPart(name="Bad", promoter="pBad", K=-1.0)

    def test_input_signal_validated(self):
        with pytest.raises(ModelError):
            InputSignal(name="X", low=40.0, high=40.0)
        with pytest.raises(ModelError):
            InputSignal(name="X", K=0.0)

    def test_duplicate_repressors_rejected(self):
        part = RepressorPart(name="X", promoter="pX")
        with pytest.raises(ModelError):
            PartsLibrary([part, part], [], [])


class TestDefaultLibrary:
    def test_contains_cello_and_figure1_repressors(self, library):
        for name in ("PhlF", "SrpR", "BM3R1", "CI", "LacI", "TetR"):
            assert name in library.repressors
        assert library.repressor("PhlF").promoter == "pPhlF"

    def test_contains_reporters_and_inputs(self, library):
        assert "GFP" in library.reporters
        assert "YFP" in library.reporters
        assert "LacI" in library.inputs
        assert "AraC" in library.inputs

    def test_enough_repressors_for_seven_gate_circuits(self, library):
        # The paper's largest circuits have 7 gates; 3 inputs + 1 reporter are
        # excluded from allocation, so at least 11 free repressors are needed.
        assert len(library.repressors) - 4 >= 7

    def test_custom_kinetics(self):
        library = default_library(strength=8.0, K=20.0, n=3.0, degradation=0.2, input_high=60.0)
        part = library.repressor("PhlF")
        assert part.strength == 8.0
        assert part.K == 20.0
        assert library.input_signal("LacI").high == 60.0

    def test_undeclared_input_gets_defaults(self, library):
        signal = library.input_signal("SomethingNew")
        assert signal.high > signal.low


class TestSelection:
    """select_repressor: first fit in insertion order, with no state."""

    def test_selection_is_pure(self, library):
        first = library.select_repressor()
        again = library.select_repressor()
        assert first.name == again.name

    def test_selection_skips_unavailable(self, library):
        names = list(library.repressors)
        part = library.select_repressor(unavailable=names[:3])
        assert part.name == names[3]

    def test_selection_exhaustion_raises(self, library):
        with pytest.raises(ModelError):
            library.select_repressor(unavailable=list(library.repressors))


class TestWithKinetics:
    def test_overrides_all_parts(self, library):
        modified = library.with_kinetics(K=25.0, n=1.5)
        assert all(p.K == 25.0 for p in modified.repressors.values())
        assert all(p.n == 1.5 for p in modified.repressors.values())
        assert all(s.K == 25.0 for s in modified.inputs.values())

    def test_unspecified_values_unchanged(self, library):
        modified = library.with_kinetics(degradation=0.5)
        original = library.repressor("PhlF")
        assert modified.repressor("PhlF").strength == original.strength
        assert modified.repressor("PhlF").degradation == 0.5


class TestNamedLibraries:
    def test_diverse_library_has_heterogeneous_kinetics(self):
        """The diverse library exists to make candidates distinguishable:
        parts must not all share one response curve."""
        library = diverse_library()
        assert set(library.repressors) == set(default_library().repressors)
        kinetics = {(p.strength, p.K, p.n) for p in library.repressors.values()}
        assert len(kinetics) > 1

    def test_resolve_library_by_name(self):
        assert set(LIBRARY_NAMES) >= {"default", "diverse"}
        for name in LIBRARY_NAMES:
            library = resolve_library(name)
            assert library.repressors
        assert resolve_library("diverse").repressor("PhlF") == diverse_library().repressor(
            "PhlF",
        )

    def test_resolve_library_unknown_name(self):
        with pytest.raises(ModelError):
            resolve_library("exotic")

    def test_resolve_library_is_case_insensitive(self):
        assert set(resolve_library("DIVERSE").repressors) == set(
            diverse_library().repressors,
        )
