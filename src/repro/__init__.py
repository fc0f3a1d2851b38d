"""repro — Logic analysis and verification of n-input genetic logic circuits.

A from-scratch Python reproduction of Baig & Madsen, DATE 2017: stochastic
simulation of genetic logic circuits (SBML models, SSA engines, a virtual
laboratory) plus the paper's logic analysis and verification algorithm
(analog→digital conversion, per-combination case and variation analysis, the
two data filters, Boolean expression construction and the percentage-fitness
metric).

Typical use::

    from repro import and_gate_circuit, run_logic_experiment, LogicAnalyzer

    circuit = and_gate_circuit()                       # the paper's Figure 1
    data = run_logic_experiment(circuit, rng=1)        # virtual laboratory
    result = LogicAnalyzer(threshold=15).analyze(data, expected=circuit.expected_table)
    print(result.summary())

Names are re-exported lazily: ``import repro`` loads no subpackage, and
reading a name imports the one that defines it, so a process loads only the
modules it uses.  A subpackage is an attribute once imported
(``import repro.engine``).
"""

from ._lazy import lazy_exports
from .errors import ReproError
from .version import __version__

__all__ = [
    "__version__",
    "ReproError",
    # models
    "Model",
    "read_sbml_string",
    "read_sbml_file",
    "write_sbml_string",
    "write_sbml_file",
    "SBOLDocument",
    "ConversionParameters",
    "sbol_to_sbml",
    # simulation
    "Trajectory",
    "InputSchedule",
    "simulate_ssa",
    "simulate_next_reaction",
    "simulate_tau_leap",
    "simulate_ode",
    # gates and circuits
    "Netlist",
    "GeneticCircuit",
    "default_library",
    "diverse_library",
    "build_circuit",
    "PartAssignment",
    "enumerate_assignments",
    "synthesize",
    "synthesize_from_hex",
    "synthesize_from_expression",
    "not_gate_circuit",
    "and_gate_circuit",
    "or_gate_circuit",
    "nand_gate_circuit",
    "nor_gate_circuit",
    "myers_suite",
    "cello_circuit",
    "cello_suite",
    "standard_suite",
    "CELLO_CIRCUIT_NAMES",
    # virtual laboratory
    "LogicExperiment",
    "SimulationDataLog",
    "run_logic_experiment",
    "exhaustive_protocol",
    "gray_code_protocol",
    "estimate_threshold",
    "estimate_propagation_delay",
    # logic toolkit
    "TruthTable",
    "parse_expr",
    "minimize",
    "identify_gate",
    "compare_tables",
    # the algorithm
    "LogicAnalyzer",
    "LogicAnalysisResult",
    "FilterConfig",
    "analyze_logic",
    "percentage_fitness",
    "format_case_table",
    "format_analysis_report",
    "format_suite_table",
    # ensemble engine
    "StudySpec",
    "SimulationJob",
    "EnsembleResult",
    "EnsembleStats",
    "EnsembleStream",
    "SerialExecutor",
    "ProcessPoolEnsembleExecutor",
    "DistributedEnsembleExecutor",
    "CompiledModelCache",
    "get_executor",
    "run_job",
    "run_ensemble",
    "iter_ensemble",
    "replicate_jobs",
    # higher-level studies
    "threshold_sweep",
    "ThresholdSweepEntry",
    "assess_robustness",
    "RobustnessReport",
    "run_replicate_study",
    "ReplicateStudy",
    "CandidateScore",
    "measure_analysis_runtime",
    "RuntimeMeasurement",
    # design-space search
    "SearchSpec",
    "SearchFrontier",
    "run_design_search",
    # HTTP analysis service
    "AnalysisService",
    "ResultCache",
    "ServiceServer",
    "serve",
    # I/O
    "write_datalog_csv",
    "read_datalog_csv",
    "result_to_dict",
    "save_result_json",
]

#: The subpackage that defines each re-exported name.  Reading ``repro.X``
#: imports it the first time, so ``import repro`` loads only what is used.
_EXPORTS = {
    "CandidateScore": "analysis",
    "ReplicateStudy": "analysis",
    "RobustnessReport": "analysis",
    "RuntimeMeasurement": "analysis",
    "ThresholdSweepEntry": "analysis",
    "assess_robustness": "analysis",
    "measure_analysis_runtime": "analysis",
    "run_replicate_study": "analysis",
    "threshold_sweep": "analysis",
    "FilterConfig": "core",
    "LogicAnalysisResult": "core",
    "LogicAnalyzer": "core",
    "analyze_logic": "core",
    "format_analysis_report": "core",
    "format_case_table": "core",
    "format_suite_table": "core",
    "percentage_fitness": "core",
    "CompiledModelCache": "engine",
    "DistributedEnsembleExecutor": "engine",
    "EnsembleResult": "engine",
    "EnsembleStats": "engine",
    "EnsembleStream": "engine",
    "ProcessPoolEnsembleExecutor": "engine",
    "SerialExecutor": "engine",
    "SimulationJob": "engine",
    "StudySpec": "engine",
    "get_executor": "engine",
    "iter_ensemble": "engine",
    "replicate_jobs": "engine",
    "run_ensemble": "engine",
    "run_job": "engine",
    "CELLO_CIRCUIT_NAMES": "gates",
    "GeneticCircuit": "gates",
    "Netlist": "gates",
    "PartAssignment": "gates",
    "and_gate_circuit": "gates",
    "build_circuit": "gates",
    "cello_circuit": "gates",
    "cello_suite": "gates",
    "default_library": "gates",
    "diverse_library": "gates",
    "enumerate_assignments": "gates",
    "myers_suite": "gates",
    "nand_gate_circuit": "gates",
    "nor_gate_circuit": "gates",
    "not_gate_circuit": "gates",
    "or_gate_circuit": "gates",
    "standard_suite": "gates",
    "synthesize": "gates",
    "synthesize_from_expression": "gates",
    "synthesize_from_hex": "gates",
    "read_datalog_csv": "io",
    "result_to_dict": "io",
    "save_result_json": "io",
    "write_datalog_csv": "io",
    "TruthTable": "logic",
    "compare_tables": "logic",
    "identify_gate": "logic",
    "minimize": "logic",
    "parse_expr": "logic",
    "Model": "sbml",
    "read_sbml_file": "sbml",
    "read_sbml_string": "sbml",
    "write_sbml_file": "sbml",
    "write_sbml_string": "sbml",
    "ConversionParameters": "sbol",
    "SBOLDocument": "sbol",
    "sbol_to_sbml": "sbol",
    "SearchFrontier": "search",
    "SearchSpec": "search",
    "run_design_search": "search",
    "AnalysisService": "service",
    "ResultCache": "service",
    "ServiceServer": "service",
    "serve": "service",
    "InputSchedule": "stochastic",
    "Trajectory": "stochastic",
    "simulate_next_reaction": "stochastic",
    "simulate_ode": "stochastic",
    "simulate_ssa": "stochastic",
    "simulate_tau_leap": "stochastic",
    "LogicExperiment": "vlab",
    "SimulationDataLog": "vlab",
    "estimate_propagation_delay": "vlab",
    "estimate_threshold": "vlab",
    "exhaustive_protocol": "vlab",
    "gray_code_protocol": "vlab",
    "run_logic_experiment": "vlab",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
