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
"""

from .analysis import (
    CandidateScore,
    ReplicateStudy,
    RobustnessReport,
    RuntimeMeasurement,
    ThresholdSweepEntry,
    assess_robustness,
    measure_analysis_runtime,
    run_replicate_study,
    threshold_sweep,
)
from .core import (
    FilterConfig,
    LogicAnalysisResult,
    LogicAnalyzer,
    analyze_logic,
    format_analysis_report,
    format_case_table,
    format_suite_table,
    percentage_fitness,
)
from .engine import (
    CompiledModelCache,
    DistributedEnsembleExecutor,
    EnsembleResult,
    EnsembleStats,
    EnsembleStream,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    SimulationJob,
    StudySpec,
    get_executor,
    iter_ensemble,
    replicate_jobs,
    run_ensemble,
    run_job,
)
from .errors import ReproError
from .gates import (
    CELLO_CIRCUIT_NAMES,
    GeneticCircuit,
    Netlist,
    PartAssignment,
    and_gate_circuit,
    build_circuit,
    cello_circuit,
    cello_suite,
    default_library,
    diverse_library,
    enumerate_assignments,
    myers_suite,
    nand_gate_circuit,
    nor_gate_circuit,
    not_gate_circuit,
    or_gate_circuit,
    standard_suite,
    synthesize,
    synthesize_from_expression,
    synthesize_from_hex,
)
from .io import read_datalog_csv, result_to_dict, save_result_json, write_datalog_csv
from .logic import TruthTable, compare_tables, identify_gate, minimize, parse_expr
from .sbml import Model, read_sbml_file, read_sbml_string, write_sbml_file, write_sbml_string
from .sbol import ConversionParameters, SBOLDocument, sbol_to_sbml
from .search import SearchFrontier, SearchSpec, run_design_search
from .service import AnalysisService, ResultCache, ServiceServer, serve
from .stochastic import (
    InputSchedule,
    Trajectory,
    simulate_next_reaction,
    simulate_ode,
    simulate_ssa,
    simulate_tau_leap,
)
from .version import __version__
from .vlab import (
    LogicExperiment,
    SimulationDataLog,
    estimate_propagation_delay,
    estimate_threshold,
    exhaustive_protocol,
    gray_code_protocol,
    run_logic_experiment,
)

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
