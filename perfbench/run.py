"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

``--trace 0`` runs set-up and one untraced timed window, then repeats the
set-up in a fresh process for ``setup_s``, and prints every end-to-end
metric.  ``--trace 1`` runs the same untraced window, then the
same units again with spans recorded at each layer boundary, and prints
every per-layer metric, a self-time table per layer and a trace dump path.
Both modes check the program's outputs and print a digest of every result
field.  The last line of standard output is the JSON result.

``--seconds`` sizes the fixed unit sequence (counts set for 30 s, scaled
linearly), so two runs of one seed do identical work; the run takes longer
on a slower machine instead of doing less.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUTPUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Every module imported from here on (the benchmark's and the program's) is
# compiled from source: bytecode is looked up in a directory that is never
# created and never written.  Whatever ``__pycache__`` the checkout holds
# (from a test run, or stale after an edit), every run then does the same
# import work.  Fabric workers inherit both settings through the
# environment, so they compile everything from source, numpy included.
NO_BYTECODE = os.path.join(OUTPUT_DIR, "no-bytecode")
sys.dont_write_bytecode = True
sys.pycache_prefix = NO_BYTECODE
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
os.environ["PYTHONPYCACHEPREFIX"] = NO_BYTECODE

import calib  # noqa: E402
import tracing  # noqa: E402

#: Fresh processes that repeat the set-up; ``setup_s`` is the median of
#: this run's own set-up and theirs.
SETUP_PROBES = 1

#: name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "hit_p50_ms": "ms",
    "miss_p50_ms": "ms",
    "search_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Request classes with a p50 latency among the end-to-end metrics.
CLASSES = ("hit", "miss", "search")

#: name -> unit of every per-layer metric (printed with ``--trace 1``).
PER_LAYER = {
    "stochastic.ssa_events": "count",
    "stochastic.ssa_s": "s",
    "stochastic.events_per_s": "1/s",
    "stochastic.batch_rows": "count",
    "stochastic.batch_s": "s",
    "stochastic.batch_events_per_s": "1/s",
    "stochastic.compiles": "count",
    "stochastic.compile_ms": "ms",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "engine.dispatches": "count",
    "engine.wait_s": "s",
    "engine.codec_ms": "ms",
    "engine.frame_bytes_per_replicate": "B",
    "engine.requeues": "count",
    "engine.links_dropped": "count",
    "gates.builds": "count",
    "gates.build_ms": "ms",
    "sbol.convert_ms": "ms",
    "vlab.datalog_ms": "ms",
    "core.analyses": "count",
    "core.analyze_ms": "ms",
    "analysis.payload_ms": "ms",
    "search.candidates": "count",
    "search.replicates": "count",
    "search.rounds": "count",
    "search.replicates_fraction": "ratio",
    "service.cache_key_ms": "ms",
    "service.parse_ms": "ms",
    "service.server_ms": "ms",
    "service.http_ms": "ms",
    "service.cache_hits": "count",
    "service.rejected": "count",
    "service.hit_tail_ms": "ms",
    "service.hit_tail_pct": "%",
    "service.hit_samples": "count",
    "service.miss_tail_ms": "ms",
    "service.miss_tail_pct": "%",
    "service.miss_samples": "count",
    "requests_per_s": "1/s",
    "child_peak_rss_mb": "MiB",
    "bench.cal_ms": "ms",
    "bench.worker_cal_ms": "ms",
    "bench.worker_slices": "count",
    "bench.raw_setup_s": "s",
    "bench.raw_replicates_per_s": "1/s",
    "bench.raw_requests_per_s": "1/s",
    "bench.raw_miss_p50_ms": "ms",
    "bench.raw_hit_p50_ms": "ms",
    "bench.raw_search_p50_ms": "ms",
    "bench.trace_overhead": "ratio",
    "bench.root_self_share": "ratio",
}


def elapsed() -> float:
    """Seconds since this script started running (interpreter start-up excluded)."""
    return time.perf_counter() - _T0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(values):
    """``(value, percentile)``: the highest percentile with >= 10 samples beyond it.

    With 10 or fewer samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0
    if n <= 10:
        return max(values), 100
    pct = int(100 * (n - 10) // n)
    return float(np.percentile(values, pct)), pct


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker process, if the run started one.

    Attaching to a pool worker's result segment starts multiprocessing's
    resource tracker; it would otherwise outlive this process briefly.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def git_commit() -> str:
    """The checkout's commit from ``git rev-parse``, or ``unknown`` outside a git checkout.

    Git looks no further up than the checkout and reads no user or system
    configuration.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        completed = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                                   capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def end_to_end(outcome, setup):
    """``(calibrated, raw)`` end-to-end values; ``setup`` is ``(calibrated, raw)`` seconds.

    Every workload must print every class's p50.  verify-suite and pool-b32
    send only studies (misses): a class they never send takes their study
    p50, so there ``hit_p50_ms`` and ``search_p50_ms`` repeat ``miss_p50_ms``.
    """

    def p50_ms(kind, calibrated):
        samples = outcome.samples(kind, calibrated) or outcome.samples("miss", calibrated)
        return median(samples) * 1000.0

    def rates(calibrated):
        busy = sum(outcome.samples(None, calibrated))
        return outcome.replicates / busy, len(outcome.units) / busy

    raw = {"setup_s": setup[1]}
    raw["replicates_per_s"], raw["requests_per_s"] = rates(False)
    calibrated = {"setup_s": setup[0]}
    calibrated["replicates_per_s"], calibrated["requests_per_s"] = rates(True)
    for kind in CLASSES:
        raw[f"{kind}_p50_ms"] = p50_ms(kind, False)
        calibrated[f"{kind}_p50_ms"] = p50_ms(kind, True)
    calibrated["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return calibrated, raw


def probe_setups(args):
    """Set-up seconds of fresh processes that only set up, one per probe.

    Each probe runs this script with ``--setup-only`` and the same workload
    and seed, and times its set-up from its own start, as this run does.  It
    starts without ``PYTHONPYCACHEPREFIX``, so, like this run, it loads
    numpy's installed bytecode and compiles everything after it from source;
    nothing warm carries over from this process.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                   text=True, timeout=150)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe exited {completed.returncode}:\n"
                               f"{completed.stderr[-2000:]}")
        samples.append(json.loads(completed.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure(workload, trace, calibrator_class, outcome_class):
    """Run the timed window(s) and output checks; ``(plain, traced, tracer, counters)``.

    ``traced``, ``tracer`` and ``counters`` are ``None``/empty unless ``trace``.
    """
    # A process's first calibration slice pays the kernel's first-call costs
    # (up to twice a warm slice in a fresh pool worker); it is run and
    # discarded here, so that no unit is calibrated by a cold burst.
    calibrator_class(workload.executor).slice(1)
    plain = outcome_class(calibrator_class(workload.executor))
    workload.window(plain)
    if not trace:
        workload.check_reference(plain)
        return plain, None, None, {}
    tracer = tracing.install(tracing.Tracer())
    try:
        workload.reset()
        traced = outcome_class(calibrator_class(workload.executor), tracer)
        workload.window(traced)
        with tracer.span("bench.reference"):
            workload.check_reference(traced)
        with tracer.span("bench.replay"):
            workload.replay()
    finally:
        tracer.uninstall()
    if traced.digest != plain.digest:
        traced.fail("the traced window's results differ from the untraced window's")
    return plain, traced, tracer, workload.counters()


def per_layer(tracer, plain, traced, setup, counters, child_rss_mb):
    """Every per-layer metric, from the traced run's spans and the untraced window."""
    spans = tracer.attributed()
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return sum(span.duration for span in by_name.get(name, ()))

    def mean_ms(*names):
        chosen = [span.duration for name in names for span in by_name.get(name, ())]
        return mean(chosen) * 1000.0

    def attr_sum(name, key):
        return sum(span.attrs.get(key, 0) for span in by_name.get(name, ()))

    calibrated, raw = end_to_end(plain, setup)
    metrics = {}
    ssa_s = total("stochastic.ssa")
    ssa_events = attr_sum("stochastic.ssa", "events")
    batch_s = total("stochastic.batch")
    batch_rows = attr_sum("stochastic.batch", "rows")
    metrics["stochastic.ssa_events"] = ssa_events
    metrics["stochastic.ssa_s"] = ssa_s
    metrics["stochastic.events_per_s"] = ssa_events / ssa_s if ssa_s else 0.0
    metrics["stochastic.batch_rows"] = batch_rows
    metrics["stochastic.batch_s"] = batch_s
    # Lockstep batches report no event count; the replayed batches run the
    # same seeds as the scalar reference runs, so their count is the base.
    metrics["stochastic.batch_events_per_s"] = ssa_events / batch_s if batch_s else 0.0
    metrics["stochastic.compiles"] = len(by_name.get("stochastic.compile", ()))
    metrics["stochastic.compile_ms"] = mean_ms("stochastic.compile")
    lookups = by_name.get("engine.cache_lookup", ())
    metrics["engine.cache_hits"] = sum(1 for span in lookups if span.attrs.get("hit"))
    metrics["engine.cache_misses"] = sum(1 for span in lookups if not span.attrs.get("hit"))
    metrics["engine.dispatches"] = len(by_name.get("engine.dispatch", ()))
    metrics["engine.wait_s"] = total("engine.wait")
    metrics["engine.codec_ms"] = mean_ms("engine.encode") + mean_ms("engine.decode")
    encoded_rows = attr_sum("engine.encode", "rows")
    metrics["engine.frame_bytes_per_replicate"] = (
        attr_sum("engine.encode", "bytes") / encoded_rows if encoded_rows else 0.0
    )
    metrics["engine.requeues"] = counters.get("engine.requeues", 0)
    metrics["engine.links_dropped"] = counters.get("engine.links_dropped", 0)
    metrics["gates.builds"] = len(by_name.get("gates.build", ()))
    metrics["gates.build_ms"] = mean_ms("gates.build")
    metrics["sbol.convert_ms"] = mean_ms("sbol.convert")
    metrics["vlab.datalog_ms"] = mean_ms("vlab.datalog")
    metrics["core.analyses"] = len(by_name.get("core.analyze", ()))
    metrics["core.analyze_ms"] = mean_ms("core.analyze")
    metrics["analysis.payload_ms"] = mean_ms("analysis.payload")
    spent = attr_sum("search.run", "replicates")
    exhaustive = attr_sum("search.run", "exhaustive")
    metrics["search.candidates"] = attr_sum("search.run", "candidates")
    metrics["search.replicates"] = spent
    metrics["search.rounds"] = attr_sum("search.run", "rounds")
    metrics["search.replicates_fraction"] = spent / exhaustive if exhaustive else 0.0
    metrics["service.cache_key_ms"] = mean_ms("service.cache_key")
    metrics["service.parse_ms"] = mean_ms("service.parse")
    # Server-side handling and HTTP/transport share of each hit request.
    servers = {span.parent: span for span in by_name.get("service.server", ())}
    hit_server, hit_http = [], []
    for request in by_name.get("bench.request", ()):
        server = servers.get(request.span_id)
        if server is not None and request.attrs.get("kind") == "hit":
            hit_server.append(server.duration * 1000.0)
            hit_http.append((request.duration - server.duration) * 1000.0)
    metrics["service.server_ms"] = median(hit_server)
    metrics["service.http_ms"] = median(hit_http)
    metrics["service.cache_hits"] = counters.get("service.cache_hits", 0)
    metrics["service.rejected"] = counters.get("service.rejected", 0)
    # Only service-fabric has hit requests; its miss class is then HTTP misses.
    service = bool(plain.samples("hit"))
    for kind in ("hit", "miss"):
        values = [seconds * 1000.0 for seconds in plain.samples(kind)] if service else []
        value, pct = tail(values)
        metrics[f"service.{kind}_tail_ms"] = value
        metrics[f"service.{kind}_tail_pct"] = pct
        metrics[f"service.{kind}_samples"] = len(values)
    metrics["requests_per_s"] = calibrated["requests_per_s"]
    metrics["child_peak_rss_mb"] = child_rss_mb
    metrics["bench.cal_ms"] = median(plain.calibrator.parent) * 1000.0
    metrics["bench.worker_cal_ms"] = median(plain.calibrator.worker) * 1000.0
    metrics["bench.worker_slices"] = len(plain.calibrator.worker)
    for name in ("setup_s", "replicates_per_s", "requests_per_s", "miss_p50_ms", "hit_p50_ms", "search_p50_ms"):
        metrics[f"bench.raw_{name}"] = raw[name]
    metrics["bench.trace_overhead"] = sum(traced.samples()) / sum(plain.samples()) - 1.0
    window = tracer.attributed(("bench.unit", "bench.request"))
    roots = [span for span in window if span.parent is None]
    selfs = tracing.self_times(window)
    wall = sum(span.duration for span in roots)
    metrics["bench.root_self_share"] = sum(selfs[span.span_id] for span in roots) / wall if wall else 0.0
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one cold set-up, print it as JSON and exit "
             "(the --trace 0 run starts its set-up probes this way)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no program source at {SOURCE}/repro; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    from repro.stochastic.codegen import default_backend
    from workloads import WORKLOADS, Calibrator, Outcome

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = elapsed()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        # Set-up is timed from this script's start to the first timed unit:
        # imports, executor and worker start, warm-up units.
        workload.setup()
        setups = [elapsed()]
        if not args.setup_only:
            plain, traced, tracer, counters = measure(workload, args.trace, Calibrator, Outcome)
    finally:
        workload.close()
    if args.setup_only:
        stop_resource_tracker()
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    # Only pool and fabric workers are this process's children so far;
    # without one the counter holds nothing of the program's.
    child_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if plain.calibrator.worker else 0.0
    )
    stop_resource_tracker()
    if not args.trace:
        setups += probe_setups(args)
    # Set-up runs no calibration burst of its own (one before it would warm
    # numpy paths that set-up has to pay for, and a short one after it is
    # noisier than the set-up itself): it is calibrated by the run factor of
    # the window that follows this run's set-up and precedes the probe's.
    factor = plain.calibrator.factor()
    setup = (median(setups) / factor, median(setups))
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": default_backend(),
        "calibration_reference_ms": calib.REFERENCE_SLICE_S * 1000.0,
        "calibration_slice_iterations": calib.SLICE_ITERATIONS,
        "run_factor": factor,
        "parent_pid": os.getpid(),
        "worker_pids": sorted(plain.calibrator.worker_pids),
        "commit": git_commit(),
        "import_s": import_s,
        "setup_samples_s": setups,
        "elapsed_s": elapsed(),
        "slices_parent_ms": [round(x * 1000, 2) for x in plain.calibrator.parent],
        "slices_worker_ms": [round(x * 1000, 2) for x in plain.calibrator.worker],
        "units": [(kind, round(seconds, 4), bursts) for kind, seconds, bursts, _ in plain.units],
        "bursts_ms": [round(x * 1000, 2) for x in plain.calibrator.bursts],
    }
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(f"digest {args.workload} untraced: {plain.digest}")
    outcomes = [plain]
    if traced is not None:
        print(f"digest {args.workload} traced:   {traced.digest}")
        outcomes.append(traced)
    for outcome in outcomes:
        for why in outcome.failures[:20]:
            print(f"FAILED: {why}")

    if args.trace:
        values = per_layer(tracer, plain, traced, setup, counters, child_rss_mb)
        metric_units = PER_LAYER
        window = tracer.attributed(("bench.unit", "bench.request"))
        print(tracing.format_layer_table(f"{args.workload}, traced window", tracing.layer_table(window)))
        checks = tracer.attributed(("bench.reference", "bench.replay"))
        if any(span.parent is not None for span in checks):
            print(tracing.format_layer_table(f"{args.workload}, reference + replay",
                                             tracing.layer_table(checks)))
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        path = os.path.join(OUTPUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracing.dump(tracer.attributed(), path, environment)
        print(f"trace dump: {os.path.relpath(path, ROOT)}")
    else:
        values, _ = end_to_end(plain, setup)
        metric_units = END_TO_END
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
