"""Command-line interface (``genlogic``).

Four sub-commands cover the paper's workflow end to end:

``genlogic list``
    Show the built-in circuit suite (the 15 circuits of the evaluation).
``genlogic simulate CIRCUIT --out data.csv``
    Run a virtual-laboratory experiment on a built-in circuit (or an SBML
    file) and log the traces to CSV.
``genlogic analyze data.csv --threshold 15``
    Run the logic analysis and verification algorithm on a logged CSV.
``genlogic verify CIRCUIT``
    Simulate, analyse and verify a built-in circuit in one go.
``genlogic synth 0x0B``
    Synthesize a NOT/NOR netlist for a truth table given as a hex name or an
    expression and print its structure.
``genlogic search 0x0B --budget-replicates 500``
    Design-space search: enumerate every part assignment of the function
    (repressor permutations × ``--variant`` kinetic override sets), allocate
    replicates adaptively (racing/successive halving) and print the ranked
    frontier.  Accepts the same execution flags as ``verify``
    (``--workers`` / ``--dispatch`` / ``--batch``) with bit-identical
    frontiers on every backend, and ``--spec FILE.json`` with a canonical
    :class:`~repro.search.SearchSpec` body.
``genlogic worker --connect host:port`` / ``--listen host:port``
    Serve as one node of a distributed ensemble fabric (see below).
``genlogic serve --port 8080 --workers 4``
    Run the HTTP analysis service (``POST /v1/studies`` with a StudySpec
    body; see :mod:`repro.service`) over one warm worker pool — or over the
    distributed fabric with ``--dispatch``.  Loopback binds only, until the
    fabric's HMAC handshake lands.

Multi-run execution: ``simulate``, ``verify`` and ``runtime`` accept
``--replicates N`` (independent seeded runs; measurement repeats for
``runtime``) and ``--workers N`` (worker processes).  Simulation batches go
through :mod:`repro.engine`, so their results are bit-identical regardless
of ``--workers``; ``runtime`` measures wall time, which is inherently
workers-sensitive.  Replicate CSVs are written as each run completes (the
engine's streamed path), and a live ``done/total`` progress line is shown on
interactive terminals — ``--progress`` / ``--no-progress`` override the TTY
autodetection (CI logs stay clean by default).  ``simulate`` and ``verify``
also accept ``--batch B``: replicates are dispatched in batches of up to B
per worker call (one dispatch, one model compile and one compact binary
result frame per batch) — bit-identical to ``--batch 1``, just less dispatch
overhead per replicate.

Distributed execution: the same three sub-commands accept
``--dispatch host:port,...`` — a comma-separated list of machines running
``genlogic worker --listen host:port`` — and shard the batch across them via
:class:`repro.engine.DistributedEnsembleExecutor`, with results bit-identical
to ``--workers`` (and to serial) for the same seed.  A worker started with
``--connect`` instead dials a listening coordinator (the
``DistributedEnsembleExecutor(listen=...)`` shape used by services and
tests).  ``--dispatch`` and ``--workers`` are mutually exclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Optional, Sequence

from .analysis.replicates import run_replicate_study
from .analysis.runtime import measure_analysis_runtime
from .engine.distributed import DistributedEnsembleExecutor, parse_dispatch_spec
from .engine.spec import StudySpec
from .core.analyzer import LogicAnalyzer
from .core.report import format_analysis_report
from .errors import ReproError
from .gates.cello import CELLO_CIRCUIT_NAMES, cello_circuit
from .gates.circuits import resolve_circuit, standard_suite
from .gates.synthesis import synthesize_from_expression, synthesize_from_hex
from .io.csvlog import read_datalog_csv, write_datalog_csv
from .io.results import save_result_json
from .sbml.reader import read_sbml_file
from .search import SearchSpec, run_design_search
from .vlab.experiment import LogicExperiment
from .version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genlogic",
        description="Logic analysis and verification of n-input genetic logic circuits",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list the built-in circuit suite")
    list_parser.add_argument(
        "--cello-only",
        action="store_true",
        help="only list the ten Cello circuits",
    )

    simulate = subparsers.add_parser("simulate", help="run a virtual-lab experiment")
    simulate.add_argument("circuit", help="built-in circuit name or path to an SBML file")
    simulate.add_argument("--out", required=True, help="CSV file to write the data log to")
    simulate.add_argument("--inputs", nargs="*", help="input species (SBML models only)")
    simulate.add_argument("--output", help="output species (SBML models only)")
    simulate.add_argument("--hold-time", type=float, default=250.0)
    simulate.add_argument("--repeats", type=int, default=1)
    simulate.add_argument("--input-high", type=float, default=None)
    simulate.add_argument("--simulator", default="ssa")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="independent seeded runs; replicate R is written to OUT with a -rR suffix",
    )
    _add_workers_flag(simulate, "worker processes for the replicate batch")
    _add_dispatch_flag(simulate)
    _add_batch_flag(simulate)
    _add_progress_flag(simulate)

    analyze = subparsers.add_parser("analyze", help="analyze a logged CSV")
    analyze.add_argument("datalog", help="CSV produced by 'genlogic simulate'")
    analyze.add_argument("--threshold", type=float, default=15.0)
    analyze.add_argument("--fov", type=float, default=0.25, help="acceptable fraction of variation")
    analyze.add_argument("--expected", help="expected behaviour (expression or hex name)")
    analyze.add_argument("--output-species", help="analyse an intermediate species instead")
    analyze.add_argument("--json", help="also write the result as JSON to this path")

    verify = subparsers.add_parser("verify", help="simulate + analyze + verify a built-in circuit")
    verify.add_argument(
        "circuit",
        nargs="?",
        default=None,
        help="built-in circuit name or hex name (omit when using --spec)",
    )
    verify.add_argument(
        "--spec",
        default=None,
        metavar="FILE.json",
        help=(
            "run the StudySpec in this JSON file (the canonical request form; "
            "study-defining flags may not be combined with it)"
        ),
    )
    verify.add_argument("--threshold", type=float, default=None)
    verify.add_argument("--fov", type=float, default=None)
    verify.add_argument("--hold-time", type=float, default=None)
    verify.add_argument("--repeats", type=int, default=None)
    verify.add_argument("--simulator", default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--json", help="also write the result as JSON to this path")
    verify.add_argument(
        "--replicates",
        type=int,
        default=None,
        help="run a replicate study instead of a single verification",
    )
    _add_workers_flag(verify, "worker processes for the replicate batch")
    _add_dispatch_flag(verify)
    _add_batch_flag(verify)
    _add_progress_flag(verify)

    synth = subparsers.add_parser("synth", help="synthesize a NOT/NOR netlist")
    synth.add_argument("spec", help="hex truth-table name (0x0B) or Boolean expression")
    synth.add_argument("--inputs", nargs="*", help="input names (default LacI TetR AraC)")

    search = subparsers.add_parser(
        "search",
        help="design-space search: rank every part assignment of a function",
    )
    search.add_argument(
        "function",
        nargs="?",
        default=None,
        help="hex truth-table name, e.g. 0x0B (omit when using --spec)",
    )
    search.add_argument(
        "--spec",
        default=None,
        metavar="FILE.json",
        help=(
            "run the SearchSpec in this JSON file (the canonical request form; "
            "search-defining flags may not be combined with it)"
        ),
    )
    search.add_argument("--inputs", nargs="*", help="input proteins (default LacI TetR AraC)")
    search.add_argument("--library", default=None, help="parts library name (default: diverse)")
    search.add_argument("--output-protein", default=None)
    search.add_argument(
        "--variant",
        action="append",
        default=None,
        metavar="NAME=VALUE[,NAME=VALUE...]",
        help=(
            "add one kinetic variant (a set of parameter overrides applied at "
            "simulation time) to the candidate grid; repeatable — the "
            "no-override baseline variant is always part of the grid"
        ),
    )
    search.add_argument("--allocator", choices=["racing", "fixed"], default=None)
    search.add_argument(
        "--budget-replicates",
        type=int,
        default=None,
        help="hard cap on total replicates across the search",
    )
    search.add_argument(
        "--fixed-replicates",
        type=int,
        default=None,
        help="replicates per candidate (fixed allocator) / per-candidate cap (racing)",
    )
    search.add_argument("--n0", type=int, default=None, help="initial replicates per candidate")
    search.add_argument(
        "--refine-step",
        type=int,
        default=None,
        help="replicates added per racing round to each still-ambiguous candidate",
    )
    search.add_argument("--top-k", type=int, default=None, help="frontier size to separate")
    search.add_argument("--max-candidates", type=int, default=None)
    search.add_argument("--hold-time", type=float, default=None)
    search.add_argument("--threshold", type=float, default=None)
    search.add_argument("--simulator", default=None)
    search.add_argument("--seed", type=int, default=None)
    search.add_argument("--json", help="write the frontier payload as JSON to this path")
    _add_workers_flag(search, "worker processes for the replicate rounds")
    _add_dispatch_flag(search)
    _add_batch_flag(search)
    _add_progress_flag(search)

    runtime = subparsers.add_parser("runtime", help="measure analyzer throughput")
    runtime.add_argument("--sizes", nargs="*", type=int, default=[10_000, 100_000, 1_000_000])
    runtime.add_argument("--inputs", type=int, default=3)
    runtime.add_argument("--seed", type=int, default=0)
    runtime.add_argument(
        "--replicates",
        type=int,
        default=3,
        help="measurement repeats per size (the minimum wall time is reported)",
    )
    _add_workers_flag(runtime, "worker processes measuring different sizes concurrently")
    _add_dispatch_flag(runtime)
    _add_progress_flag(runtime)

    worker = subparsers.add_parser(
        "worker",
        help="serve as one node of a distributed ensemble fabric",
    )
    worker_mode = worker.add_mutually_exclusive_group(required=True)
    worker_mode.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="dial a listening coordinator and serve that one session",
    )
    worker_mode.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="bind and serve coordinator sessions (the --dispatch shape)",
    )
    worker.add_argument(
        "--capacity",
        type=int,
        default=1,
        help=(
            "jobs the coordinator may pipeline to this worker at once; they "
            "execute sequentially — >1 hides dispatch latency, it is not "
            "worker-side parallelism (run one worker per core for that)"
        ),
    )
    worker.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="with --listen: exit after serving this many coordinator sessions",
    )
    _add_key_flag(worker)

    supervisor = subparsers.add_parser(
        "supervisor",
        help="keep a target number of local genlogic worker processes running",
    )
    supervisor.add_argument(
        "target",
        type=int,
        help="number of worker processes to keep alive",
    )
    supervisor_mode = supervisor.add_mutually_exclusive_group(required=True)
    supervisor_mode.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="supervised workers dial this listening coordinator",
    )
    supervisor_mode.add_argument(
        "--listen-base",
        metavar="HOST:PORT",
        help=(
            "supervised worker i listens on PORT+i (feed the printed list to a "
            "coordinator's --dispatch)"
        ),
    )
    supervisor.add_argument(
        "--capacity",
        type=int,
        default=1,
        help="pipelining depth advertised by each supervised worker",
    )
    supervisor.add_argument(
        "--status-port",
        type=int,
        default=None,
        help="also serve GET /status (JSON health) on this loopback port",
    )
    supervisor.add_argument(
        "--stable-after",
        type=float,
        default=5.0,
        help="seconds of uptime after which a worker's restart backoff resets",
    )
    _add_key_flag(supervisor)

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP analysis service (StudySpec in, cached results out)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help=(
            "bind address; non-loopback binds require a fabric key "
            "(--key-file or GENLOGIC_FABRIC_KEY)"
        ),
    )
    serve.add_argument("--port", type=int, default=8080, help="listen port (0 = ephemeral)")
    _add_workers_flag(serve, "local worker processes for the shared pool")
    _add_dispatch_flag(serve)
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="concurrently executing studies before submissions get 429",
    )
    serve.add_argument(
        "--max-replicates",
        type=int,
        default=64,
        help="per-request replicate budget (larger specs get 413)",
    )
    serve.add_argument(
        "--max-search-replicates",
        type=int,
        default=5000,
        help="per-request total replicate budget for POST /v1/search (413 beyond)",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="byte budget of the content-addressed result cache (0 disables)",
    )
    serve.add_argument(
        "--supervise",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run studies on a supervised fabric of N auto-restarting local "
            "worker processes (excludes --dispatch)"
        ),
    )

    return parser


def _add_workers_flag(subparser: argparse.ArgumentParser, help_text: str) -> None:
    subparser.add_argument("--workers", type=int, default=1, help=help_text)


def _add_dispatch_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--dispatch",
        metavar="HOST:PORT,...",
        default=None,
        help=(
            "shard the batch across 'genlogic worker --listen' processes at "
            "these addresses (bit-identical results; excludes --workers)"
        ),
    )
    _add_key_flag(subparser)


def _add_key_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--key-file",
        metavar="PATH",
        default=None,
        help=(
            "file holding the shared fabric secret for the authenticated "
            "HMAC handshake (default: the GENLOGIC_FABRIC_KEY environment "
            "variable; neither = unauthenticated trusted-network mode)"
        ),
    )


def _add_batch_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="B",
        help=(
            "replicates per worker dispatch: run batches of up to B "
            "replicates per call (bit-identical to --batch 1, lower dispatch "
            "and result-transport overhead)"
        ),
    )


def _add_progress_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the live progress line on/off (default: on when stderr is a TTY)",
    )


def _progress_hook(args: argparse.Namespace, unit: str = "runs"):
    """A live ``done/total`` progress line on stderr, or ``None`` when disabled.

    Enabled only on interactive terminals unless forced by ``--progress`` /
    ``--no-progress``, so redirected output and CI logs never see control
    characters.  The line is erased once the batch finishes, keeping the
    final report clean.
    """
    enabled = getattr(args, "progress", None)
    stream = sys.stderr
    if enabled is None:
        enabled = bool(getattr(stream, "isatty", lambda: False)())
    if not enabled:
        return None

    def hook(done: int, total: int, payload) -> None:
        line = f"{done}/{total} {unit}"
        if done >= total:
            stream.write("\r" + " " * len(line) + "\r")
        else:
            stream.write("\r" + line)
        stream.flush()

    return hook


def _command_list(args: argparse.Namespace) -> int:
    circuits = (
        [cello_circuit(name) for name in CELLO_CIRCUIT_NAMES]
        if args.cello_only
        else standard_suite()
    )
    for circuit in circuits:
        print(circuit.summary())
    return 0


def _replicate_out_path(out: str, replicate: int) -> str:
    """``data.csv`` -> ``data-r3.csv`` for replicate 3."""
    stem, extension = os.path.splitext(out)
    return f"{stem}-r{replicate}{extension}"


def _command_simulate(args: argparse.Namespace) -> int:
    if args.replicates < 1:
        raise ReproError("--replicates must be at least 1")
    _validate_workers(args)
    if args.circuit.endswith(".xml") or args.circuit.endswith(".sbml"):
        model = read_sbml_file(args.circuit)
        if not args.inputs or not args.output:
            raise ReproError("--inputs and --output are required when simulating an SBML file")
        experiment = LogicExperiment(
            model=model,
            input_species=list(args.inputs),
            output_species=args.output,
            input_high=args.input_high if args.input_high is not None else 40.0,
            simulator=args.simulator,
        )
    else:
        circuit = resolve_circuit(args.circuit)
        experiment = LogicExperiment.for_circuit(
            circuit,
            simulator=args.simulator,
            input_high=args.input_high,
        )
    if args.replicates == 1:
        _warn_if_workers_unused(args)
        # Single run: the seed feeds the simulator directly (the historical
        # behaviour, so seeded CSVs stay reproducible across versions).
        log = experiment.run(hold_time=args.hold_time, repeats=args.repeats, rng=args.seed)
        write_datalog_csv(log, args.out)
        print(f"wrote {log.n_samples} samples for {log.circuit_name or args.circuit} to {args.out}")
        return 0
    # Streamed execution: each replicate's CSV is written the moment its run
    # completes and the trajectory is dropped, so memory stays bounded no
    # matter how many replicates were requested.
    with _dispatch_executor(args) as executor:
        stream = experiment.iter_replicates(
            args.replicates,
            hold_time=args.hold_time,
            repeats=args.repeats,
            seed=args.seed,
            workers=args.workers,
            executor=executor,
            progress=_progress_hook(args),
            batch_size=getattr(args, "batch", 1),
        )
        with stream:
            for index, log in stream:
                path = _replicate_out_path(args.out, index)
                write_datalog_csv(log, path)
                print(
                    f"wrote {log.n_samples} samples for "
                    f"{log.circuit_name or args.circuit} to {path}"
                )
    print(stream.stats.summary())
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    log = read_datalog_csv(args.datalog)
    analyzer = LogicAnalyzer(threshold=args.threshold, fov_ud=args.fov)
    result = analyzer.analyze(log, expected=args.expected, output_species=args.output_species)
    print(format_analysis_report(result))
    if args.json:
        save_result_json(result, args.json)
        print(f"result JSON written to {args.json}")
    return 0


def _validate_workers(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    if getattr(args, "dispatch", None) is not None and args.workers > 1:
        raise ReproError("--dispatch and --workers are mutually exclusive")
    if getattr(args, "batch", 1) < 1:
        raise ReproError("--batch must be at least 1")


@contextmanager
def _dispatch_executor(args: argparse.Namespace):
    """The distributed executor for ``--dispatch host:port,...`` (or ``None``).

    The CLI owns the executor's lifecycle: commands run their batches inside
    this context and the executor is closed on exit (disconnecting from the
    workers, which keep listening for the next coordinator).  Without
    ``--dispatch`` the context yields ``None`` and the command falls back to
    its ``--workers`` behaviour.
    """
    spec = getattr(args, "dispatch", None)
    if spec is None:
        yield None
        return
    executor = DistributedEnsembleExecutor(
        connect=parse_dispatch_spec(spec),
        key_file=getattr(args, "key_file", None),
    )
    try:
        yield executor
    finally:
        executor.close()


def _warn_if_workers_unused(args: argparse.Namespace) -> None:
    if args.workers > 1 or getattr(args, "dispatch", None) is not None:
        print(
            "note: --workers only parallelises replicate batches "
            "(--dispatch likewise); a single run (--replicates 1) executes serially",
            file=sys.stderr,
        )


def _load_spec_file(path: str) -> StudySpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return StudySpec.from_json(handle.read())
    except OSError as error:
        raise ReproError(f"cannot read spec file {path!r}: {error}") from None


def _print_replicate_study(study, args: argparse.Namespace) -> int:
    print(study.summary())
    agreement = study.combination_agreement()
    worst = study.worst_combination()
    print(f"worst combination: {worst} ({agreement[worst] * 100:.0f}% agreement)")
    print(study.stats.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(study.to_payload(), handle, indent=2)
        print(f"study JSON written to {args.json}")
    return 0 if study.recovery_rate == 1.0 else 1


def _command_verify(args: argparse.Namespace) -> int:
    _validate_workers(args)
    if args.spec is not None:
        # The canonical request form: the spec IS the study; study-defining
        # flags may not silently disagree with it.
        conflicting = [
            flag
            for flag, value in (
                ("CIRCUIT", args.circuit),
                ("--threshold", args.threshold),
                ("--fov", args.fov),
                ("--hold-time", args.hold_time),
                ("--repeats", args.repeats),
                ("--simulator", args.simulator),
                ("--seed", args.seed),
                ("--replicates", args.replicates),
            )
            if value is not None
        ]
        if conflicting:
            raise ReproError(
                f"--spec may not be combined with {conflicting}; "
                "edit the spec file instead",
            )
        spec = _load_spec_file(args.spec)
        knobs = {}
        if args.workers != spec.workers and args.workers != 1:
            knobs["workers"] = args.workers
        if getattr(args, "batch", 1) != 1:
            knobs["batch_size"] = args.batch
        if knobs:
            spec = spec.replace(**knobs)
        with _dispatch_executor(args) as executor:
            study = run_replicate_study(spec, executor=executor, progress=_progress_hook(args))
        return _print_replicate_study(study, args)
    if args.circuit is None:
        raise ReproError("verify needs a circuit name or --spec FILE.json")
    circuit = resolve_circuit(args.circuit)
    replicates = args.replicates if args.replicates is not None else 1
    threshold = args.threshold if args.threshold is not None else 15.0
    fov = args.fov if args.fov is not None else 0.25
    hold_time = args.hold_time if args.hold_time is not None else 250.0
    repeats = args.repeats if args.repeats is not None else 1
    simulator = args.simulator if args.simulator is not None else "ssa"
    if replicates < 1:
        raise ReproError("--replicates must be at least 1")
    if replicates == 1:
        _warn_if_workers_unused(args)
    if replicates > 1:
        with _dispatch_executor(args) as executor:
            study = run_replicate_study(
                circuit,
                n_replicates=replicates,
                threshold=threshold,
                fov_ud=fov,
                hold_time=hold_time,
                repeats=repeats,
                simulator=simulator,
                rng=args.seed,
                workers=args.workers,
                executor=executor,
                progress=_progress_hook(args),
                batch_size=getattr(args, "batch", 1),
            )
        return _print_replicate_study(study, args)
    experiment = LogicExperiment.for_circuit(circuit, simulator=simulator)
    log = experiment.run(hold_time=hold_time, repeats=repeats, rng=args.seed)
    analyzer = LogicAnalyzer(threshold=threshold, fov_ud=fov)
    result = analyzer.analyze(log, expected=circuit.expected_table)
    print(format_analysis_report(result))
    if args.json:
        save_result_json(result, args.json)
        print(f"result JSON written to {args.json}")
    return 0 if result.comparison and result.comparison.matches else 1


def _parse_variant(text: str):
    """``"kmax=2.0,K0=5"`` → ``(("kmax", 2.0), ("K0", 5.0))``."""
    pairs = []
    for item in text.split(","):
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ReproError(
                f"malformed --variant entry {item!r}: expected NAME=VALUE[,NAME=VALUE...]",
            )
        try:
            pairs.append((name, float(value)))
        except ValueError:
            raise ReproError(
                f"malformed --variant value in {item!r}: {value!r} is not a number",
            ) from None
    return tuple(pairs)


def _load_search_spec_file(path: str) -> SearchSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return SearchSpec.from_json(handle.read())
    except OSError as error:
        raise ReproError(f"cannot read spec file {path!r}: {error}") from None


def _command_search(args: argparse.Namespace) -> int:
    _validate_workers(args)
    if args.spec is not None:
        conflicting = [
            flag
            for flag, value in (
                ("FUNCTION", args.function),
                ("--inputs", args.inputs),
                ("--library", args.library),
                ("--output-protein", args.output_protein),
                ("--variant", args.variant),
                ("--allocator", args.allocator),
                ("--budget-replicates", args.budget_replicates),
                ("--fixed-replicates", args.fixed_replicates),
                ("--n0", args.n0),
                ("--refine-step", args.refine_step),
                ("--top-k", args.top_k),
                ("--max-candidates", args.max_candidates),
                ("--hold-time", args.hold_time),
                ("--threshold", args.threshold),
                ("--simulator", args.simulator),
                ("--seed", args.seed),
            )
            if value is not None
        ]
        if conflicting:
            raise ReproError(
                f"--spec may not be combined with {conflicting}; "
                "edit the spec file instead",
            )
        spec = _load_search_spec_file(args.spec)
        knobs = {}
        if args.workers != spec.workers and args.workers != 1:
            knobs["workers"] = args.workers
        if getattr(args, "batch", 1) != 1:
            knobs["batch_size"] = args.batch
        if knobs:
            spec = spec.replace(**knobs)
    else:
        if args.function is None:
            raise ReproError("search needs a hex function name or --spec FILE.json")
        fields = {
            name: value
            for name, value in (
                ("inputs", tuple(args.inputs) if args.inputs else None),
                ("library", args.library),
                ("output_protein", args.output_protein),
                ("allocator", args.allocator),
                ("budget_replicates", args.budget_replicates),
                ("fixed_replicates", args.fixed_replicates),
                ("n0", args.n0),
                ("refine_step", args.refine_step),
                ("top_k", args.top_k),
                ("max_candidates", args.max_candidates),
                ("hold_time", args.hold_time),
                ("threshold", args.threshold),
                ("simulator", args.simulator),
                ("seed", args.seed),
            )
            if value is not None
        }
        if args.variant:
            # The baseline (no-override) variant always anchors the grid.
            fields["variants"] = ((),) + tuple(_parse_variant(v) for v in args.variant)
        fields["workers"] = args.workers
        if getattr(args, "batch", 1) != 1:
            fields["batch_size"] = args.batch
        spec = SearchSpec(function=args.function, **fields)
    with _dispatch_executor(args) as executor:
        frontier = run_design_search(
            spec,
            executor=executor,
            progress=_progress_hook(args, unit="replicates"),
        )
    print(frontier.summary())
    stats = frontier.engine_stats or {}
    if stats.get("executor") is not None:
        print(
            f"{frontier.total_replicates} replicates via {stats['executor']} "
            f"(workers={stats['workers']}) in {stats['wall_seconds']:.2f} s "
            f"({stats['replicates_per_second']:.2f} replicates/s)"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(frontier.to_payload(), handle, indent=2)
        print(f"frontier JSON written to {args.json}")
    return 0


def _command_synth(args: argparse.Namespace) -> int:
    inputs = args.inputs or ["LacI", "TetR", "AraC"]
    if args.spec.lower().startswith("0x"):
        netlist = synthesize_from_hex(args.spec, inputs=inputs)
    else:
        netlist = synthesize_from_expression(args.spec, inputs=None if not args.inputs else inputs)
    print(netlist.describe())
    print(f"expected behaviour: {netlist.truth_table().to_hex()}")
    return 0


def _command_runtime(args: argparse.Namespace) -> int:
    _validate_workers(args)
    with _dispatch_executor(args) as executor:
        measurements = measure_analysis_runtime(
            args.sizes,
            n_inputs=args.inputs,
            rng=args.seed,
            repeats=args.replicates,
            workers=args.workers,
            executor=executor,
            progress=_progress_hook(args, unit="sizes"),
        )
    for measurement in measurements:
        print(measurement.summary())
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from .engine.worker import run_worker

    if args.capacity < 1:
        raise ReproError("--capacity must be at least 1")
    if args.max_sessions is not None and args.connect:
        raise ReproError("--max-sessions only applies to --listen workers")
    try:
        run_worker(
            connect=args.connect,
            listen=args.listen,
            capacity=args.capacity,
            max_sessions=args.max_sessions,
            key_file=args.key_file,
        )
    except OSError as error:
        # Refused/unreachable coordinator, port in use, ...: CLI-style error,
        # not a traceback.
        raise ReproError(f"worker transport error: {error}") from error
    return 0


def _command_supervisor(args: argparse.Namespace) -> int:
    from .engine.supervisor import WorkerSupervisor

    if args.target < 0:
        raise ReproError("supervisor target must be non-negative")
    if args.capacity < 1:
        raise ReproError("--capacity must be at least 1")
    supervisor = WorkerSupervisor(
        args.target,
        connect=args.connect,
        listen_base=args.listen_base,
        capacity=args.capacity,
        key_file=args.key_file,
        stable_after=args.stable_after,
    )
    with supervisor:
        if args.listen_base is not None:
            print("supervised workers listening at: " + ",".join(supervisor.addresses), flush=True)
        if args.status_port is not None:
            host, port = supervisor.serve_status(port=args.status_port)
            print(f"supervisor status on http://{host}:{port}/status", flush=True)
        print(
            f"supervising {args.target} genlogic worker processes (Ctrl-C to stop)",
            flush=True,
        )
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import ipaddress
    import socket

    from .engine.auth import resolve_key
    from .service import AnalysisService, serve as service_serve

    _validate_workers(args)
    secret = resolve_key(key_file=args.key_file)
    # The service speaks plaintext HTTP and trusts its clients, exactly like
    # an unkeyed worker fabric (see the trust model in
    # repro/engine/distributed.py).  A configured fabric key is the
    # operator's explicit opt-in to leaving loopback: it authenticates the
    # worker fabric underneath, and says they have read the security notes
    # (front the HTTP side with an authenticating reverse proxy).
    try:
        loopback = ipaddress.ip_address(args.host).is_loopback
    except ValueError:
        try:
            loopback = ipaddress.ip_address(socket.gethostbyname(args.host)).is_loopback
        except OSError:
            loopback = False
    if not loopback and secret is None:
        raise ReproError(
            f"refusing to bind {args.host!r}: genlogic serve is loopback-only "
            "without a fabric key (--key-file or GENLOGIC_FABRIC_KEY); see "
            "the trust model in repro/engine/distributed.py and front the "
            "HTTP side with an authenticating reverse proxy",
        )
    if args.max_inflight < 1:
        raise ReproError("--max-inflight must be at least 1")
    if args.max_replicates < 1:
        raise ReproError("--max-replicates must be at least 1")
    if args.max_search_replicates < 1:
        raise ReproError("--max-search-replicates must be at least 1")
    if args.cache_bytes < 0:
        raise ReproError("--cache-bytes must be non-negative")
    if args.supervise is not None and args.dispatch is not None:
        raise ReproError("--supervise and --dispatch are mutually exclusive")
    if args.supervise is not None and args.supervise < 1:
        raise ReproError("--supervise needs at least one worker")

    executor = None
    supervisor = None
    if args.dispatch is not None:
        executor = DistributedEnsembleExecutor(
            connect=parse_dispatch_spec(args.dispatch),
            key=secret,
        )
    elif args.supervise is not None:
        from .engine.supervisor import WorkerSupervisor

        # The executor listens on an ephemeral loopback port; the supervisor
        # polls bound_address (None until the first study opens the fabric)
        # and keeps N auto-restarting workers dialed into it.
        executor = DistributedEnsembleExecutor(
            listen="127.0.0.1:0",
            min_workers=args.supervise,
            key=secret,
        )
        supervisor = WorkerSupervisor(
            args.supervise,
            connect=lambda: (
                "{}:{}".format(*executor.bound_address) if executor.bound_address else None
            ),
            key=secret,
        )
        supervisor.attach_executor(executor)
        supervisor.start()
    service = AnalysisService(
        workers=args.workers,
        executor=executor,
        supervisor=supervisor,
        max_inflight=args.max_inflight,
        max_replicates=args.max_replicates,
        max_search_replicates=args.max_search_replicates,
        cache_bytes=args.cache_bytes,
    )

    def _ready(address) -> None:
        host, port = address
        print(f"genlogic service listening on http://{host}:{port}", flush=True)

    try:
        service_serve(host=args.host, port=args.port, service=service, ready=_ready)
    finally:
        if supervisor is not None:
            supervisor.stop()
        if executor is not None:
            executor.close()
    return 0


_COMMANDS = {
    "list": _command_list,
    "simulate": _command_simulate,
    "analyze": _command_analyze,
    "verify": _command_verify,
    "synth": _command_synth,
    "search": _command_search,
    "runtime": _command_runtime,
    "worker": _command_worker,
    "supervisor": _command_supervisor,
    "serve": _command_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``genlogic`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
