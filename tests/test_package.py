"""Package-level tests: public API surface, lazy imports, version, error hierarchy."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import errors

#: The directory this test process imports ``repro`` from (``src`` in a checkout).
SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter on ``SOURCE``; the JSON it prints last."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SOURCE},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _loaded_after(code: str) -> set:
    """The modules a new interpreter holds after running ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    return set(_fresh_interpreter(code + report))


class TestPublicApi:
    def test_version_matches_metadata(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_headline_workflow_symbols_exported(self):
        for name in (
            "and_gate_circuit",
            "cello_circuit",
            "run_logic_experiment",
            "LogicAnalyzer",
            "TruthTable",
            "simulate_ssa",
            "estimate_threshold",
            "format_analysis_report",
        ):
            assert name in repro.__all__

    def test_subpackage_all_lists_resolve(self):
        import repro.analysis
        import repro.core
        import repro.engine
        import repro.gates
        import repro.logic
        import repro.sbml
        import repro.sbol
        import repro.stochastic
        import repro.vlab

        for module in (
            repro.core,
            repro.engine,
            repro.gates,
            repro.logic,
            repro.sbml,
            repro.sbol,
            repro.stochastic,
            repro.vlab,
            repro.analysis,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"

    def test_all_matches_readme_public_surface(self):
        """The README's "Public surface" block IS repro.__all__, exactly.

        A name exported but undocumented (or documented but not exported)
        fails here, so the README cannot drift from the package.
        """
        import re
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        match = re.search(r"## Public surface.*?```text\n(.*?)```", text, re.DOTALL)
        assert match, "README.md must keep a '## Public surface' section with a text block"
        documented = set(match.group(1).split())
        exported = set(repro.__all__)
        assert documented == exported, (
            f"README but not exported: {sorted(documented - exported)}; "
            f"exported but not in README: {sorted(exported - documented)}"
        )

    def test_service_entry_points_exported(self):
        import repro.engine

        for name in ("StudySpec", "run_replicate_study", "serve", "AnalysisService"):
            assert name in repro.__all__
        for name in ("StudySpec", "STUDY_SPEC_SCHEMA"):
            assert name in repro.engine.__all__


class TestImportSets:
    """Each entry point loads only the modules its work runs."""

    def test_a_study_loads_no_transport_service_search_or_xml_writer(self):
        loaded = _loaded_after(
            "import repro\n"
            "repro.run_replicate_study(\n"
            "    repro.StudySpec(circuit='and', n_replicates=1, hold_time=20, seed=1)\n"
            ")"
        )
        unwanted = {
            "asyncio",
            "http.server",
            "http.client",
            "urllib.request",
            "xml.sax",
            "repro.service",
            "repro.search",
            "repro.engine.distributed",
            "repro.engine.supervisor",
            "repro.sbml.writer",
            "repro.sbol.serialize",
        }
        assert sorted(loaded & unwanted) == []

    def test_worker_entry_point_loads_only_engine_stochastic_and_sbml(self):
        loaded = _loaded_after("import repro.cli, repro.engine.worker")
        unwanted = {
            "repro.analysis",
            "repro.vlab",
            "repro.gates",
            "repro.sbol",
            "repro.search",
            "repro.service",
            "asyncio",
        }
        assert sorted(loaded & unwanted) == []

    def test_star_import_and_dir_list_every_exported_name(self):
        missing = _fresh_interpreter(
            "import json, repro\n"
            "not_in_dir = sorted(set(repro.__all__) - set(dir(repro)))\n"
            "from repro import *\n"
            "unbound = sorted(set(repro.__all__) - set(globals()))\n"
            "print(json.dumps([not_in_dir, unbound]))"
        )
        assert missing == [[], []]


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError)

    def test_specific_errors_carry_context(self):
        duplicate = errors.DuplicateIdError("species", "GFP")
        assert duplicate.kind == "species"
        assert "GFP" in str(duplicate)

        unknown = errors.UnknownIdError("reaction", "r1")
        assert unknown.identifier == "r1"

        negative = errors.NegativeStateError("X", -2.0, 12.5)
        assert negative.species == "X"
        assert "12.5" in str(negative)

        validation = errors.ValidationError(["a problem", "another"])
        assert len(validation.messages) == 2
        assert "another" in str(validation)

        parse = errors.MathParseError("1 +", 3, "unexpected end")
        assert parse.position == 3

    def test_catching_the_base_class_is_sufficient(self):
        from repro.sbml import Model

        with pytest.raises(errors.ReproError):
            Model("1bad")
        with pytest.raises(errors.ReproError):
            repro.TruthTable(["A"], [0, 1, 1])
