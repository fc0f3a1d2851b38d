"""The benchmark's three workloads, driven through the public API and HTTP service.

Every workload is a closed loop with one caller: the next unit starts only
after the previous one returned.  Each runs a fixed sequence of units derived
from the workload seed, so two runs of one seed do identical work, and each
uses at most one worker process (the machine has two vCPUs).

* ``verify-suite`` — the paper's Section III table: one replicate study per
  circuit (5 textbook + 10 Cello), cycled in table order, on the default
  serial executor at batch 1.
* ``pool-b32`` — Figure-1 AND-gate studies of 64 replicates in lockstep
  batches of 32, all on one persistent one-worker process pool.
* ``service-fabric`` — an in-process HTTP service over an authenticated
  one-worker loopback fabric, fed a fixed cycle of 1 miss, 8 hits and 1
  design-space search by one client.

Between units, while nothing is in flight, the workload runs a calibration
slice (:mod:`calib`) in this process and, where there is a worker, in the
worker through the executor's public ``map``.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import http.client
import json
import statistics
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import calib
import repro
from repro.gates.cello import CELLO_CIRCUIT_NAMES

#: Section III table order: the five textbook gates, then the ten Cello circuits.
SUITE = ("not", "and", "or", "nand", "nor") + tuple(CELLO_CIRCUIT_NAMES)

#: Paper settings shared by every study (threshold 15, FOV_UD 0.25).
PAPER = {"threshold": 15.0, "fov_ud": 0.25}

#: StudySpec fields that choose how a study runs, never what it computes.
EXECUTION_KNOBS = ("workers", "batch_size", "analysis_jobs")


def derive_seed(seed: int, *path) -> int:
    """A 32-bit study/search seed derived from the workload seed and a path."""
    words = [int(seed) % (1 << 64)] + [
        part if isinstance(part, int) else int.from_bytes(str(part).encode(), "little") % (1 << 64)
        for part in path
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def canonical(result: Dict[str, Any], knobs: bool = True) -> str:
    """A payload's result fields as canonical JSON (its ``engine`` timing block removed).

    ``knobs=False`` also drops the spec's execution knobs, which may differ
    between two runs of one study without changing its result.
    """
    fields = {k: v for k, v in result.items() if k != "engine"}
    if not knobs and "spec" in fields:
        fields["spec"] = {k: v for k, v in fields["spec"].items() if k not in EXECUTION_KNOBS}
    return json.dumps(fields, sort_keys=True)


class Calibrator:
    """Runs calibration bursts between units and keeps every slice time.

    A burst is one or more back-to-back slices in this process and, when the
    workload has a worker, as many again in the worker through the
    executor's public ``map``.  Its value is the mean over its slices of the
    parent/worker mean.
    """

    def __init__(self, executor=None):
        self.executor = executor
        self.parent: List[float] = []
        self.worker: List[float] = []
        self.bursts: List[float] = []
        self.worker_pids = set()

    def slice(self, slices: int = 1) -> None:
        samples = calib.calibration_burst(slices)[0]
        self.parent.extend(samples)
        if self.executor is not None:
            [(worker, pid)] = self.executor.map(calib.calibration_burst, [slices])
            self.worker.extend(worker)
            self.worker_pids.add(pid)
            samples = [(p + w) / 2.0 for p, w in zip(samples, worker)]
        self.bursts.append(sum(samples) / len(samples))

    def factor(self) -> float:
        """The run factor: median burst time over the reference slice time."""
        return statistics.median(self.bursts) / calib.REFERENCE_SLICE_S

    def around(self, index: int) -> float:
        """The factor for a unit run between bursts ``index - 1`` and ``index``."""
        near = self.bursts[max(0, index - 1):index + 1]
        return sum(near) / len(near) / calib.REFERENCE_SLICE_S


class Outcome:
    """What one timed window did: operations, failures, latencies, digest.

    Every unit's latency is kept with its class (``hit``, ``miss``,
    ``search``), an optional group and the number of calibration bursts run
    before it.  ``tracer`` is set only for the traced window; units then
    open a root span (``bench.unit`` / ``bench.request``) that the program's
    spans nest in.
    """

    def __init__(self, calibrator: Calibrator, tracer=None):
        self.calibrator = calibrator
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.replicates = 0
        self.units: List[Tuple[str, float, int, Optional[int]]] = []
        self._digest = hashlib.sha256()
        self.first_result: Optional[Dict[str, Any]] = None

    def record(self, kind: str, seconds: float, result: Dict[str, Any], ok: bool,
               why: str = "", group: Optional[int] = None) -> None:
        self.attempted += 1
        self.units.append((kind, seconds, len(self.calibrator.bursts), group))
        self._digest.update(canonical(result).encode("utf-8"))
        if self.first_result is None:
            self.first_result = result
        if not ok:
            self.fail(why)

    def samples(self, kind: Optional[str] = None, calibrated: bool = True) -> List[float]:
        """Latencies (s) of one class, or of every unit when ``kind`` is None.

        Calibrated latencies are divided by the factor measured around each
        unit.  Units recorded with a group yield one mean per group.
        """
        groups: Dict[Any, List[float]] = {}
        for index, (unit_kind, seconds, bursts, group) in enumerate(self.units):
            if kind is not None and unit_kind != kind:
                continue
            value = seconds / self.calibrator.around(bursts) if calibrated else seconds
            groups.setdefault(index if group is None or kind is None else group, []).append(value)
        return [sum(values) / len(values) for values in groups.values()]

    def root(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, request=self.tracer.next_request())

    def fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


class Workload:
    """Base class: set-up, a fixed unit sequence, checks, teardown."""

    name = ""
    #: Executor the worker-side calibration slice goes through (None: no worker).
    executor = None

    def __init__(self, seed: int, seconds: float):
        self.seed = int(seed)
        self.seconds = float(seconds)

    def setup(self) -> None:
        """Start executors/servers and run warm-up units."""

    def window(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def check_reference(self, outcome: Outcome) -> None:
        """Output checks that need a reference computed outside the window."""

    def replay(self) -> None:
        """Trace-mode replays of worker-side calls in this process."""

    def reset(self) -> None:
        """Forget cached results, so a second window repeats the first one's work."""

    def counters(self) -> Dict[str, float]:
        """Per-layer counters read from the program's public stats."""
        return {}

    def close(self) -> None:
        """Stop what :meth:`setup` started and wait for its processes."""

    def units(self, per_30s: int) -> int:
        """The fixed unit count: ``per_30s`` at ``--seconds 30``, scaled linearly.

        The counts at 30 s are a budget, not a fill: one table pass (~13-20 s),
        three pool studies (~20-26 s) and eight request cycles (~40 s, the
        most samples where latencies spread most), so each run stays near a
        minute including set-up and its probe.
        """
        return max(1, int(round(per_30s * self.seconds / 30.0)))


class VerifySuite(Workload):
    """The 15-circuit Section III table, one serial replicate study per unit."""

    name = "verify-suite"
    #: Table passes at ``--seconds 30`` (one pass is ~13-20 s on a 2-vCPU Xeon VM).
    PASSES = 1

    def setup(self) -> None:
        for index, circuit in enumerate(("and", "0x04")):
            repro.run_replicate_study(self._spec(circuit, derive_seed(self.seed, "warmup", index)))

    def _spec(self, circuit: str, seed: int):
        return repro.StudySpec(circuit=circuit, n_replicates=2, seed=seed, hold_time=200.0, **PAPER)

    def window(self, outcome: Outcome) -> None:
        for pass_index in range(self.units(self.PASSES)):
            for index, circuit in enumerate(SUITE):
                outcome.calibrator.slice(2)
                spec = self._spec(circuit, derive_seed(self.seed, "study", pass_index, index))
                start = time.perf_counter()
                with outcome.root("bench.unit"):
                    study = repro.run_replicate_study(spec)
                    payload = study.to_payload()
                elapsed = time.perf_counter() - start
                outcome.replicates += spec.n_replicates
                # A study's latency depends on its circuit, so the miss class
                # is the mean study latency of one whole pass.
                outcome.record(
                    "miss", elapsed, payload, study.recovery_rate == 1.0,
                    f"{circuit} (seed {spec.seed}) recovered {payload['recovered_tables']}, "
                    f"expected {payload['expected']}",
                    group=pass_index,
                )
        outcome.calibrator.slice(2)


class PoolB32(Workload):
    """AND-gate fan-out: 64 replicates in lockstep batches of 32 on one pool worker."""

    name = "pool-b32"
    #: Studies at ``--seconds 30`` (one is ~6.5-8 s on a 2-vCPU Xeon VM).
    UNITS = 3
    #: Slices per calibration burst: the few gaps between long units need
    #: more slices each to average out the slices' own noise.
    BURST = 6

    def _spec(self, seed: int, **changes):
        fields = dict(circuit="and", n_replicates=64, seed=seed,
                      hold_time=100.0, batch_size=32, **PAPER)
        fields.update(changes)
        return repro.StudySpec(**fields)

    def setup(self) -> None:
        self.executor = repro.ProcessPoolEnsembleExecutor(1).open()
        warm = self._spec(derive_seed(self.seed, "warmup"), n_replicates=16, hold_time=30.0)
        repro.run_replicate_study(warm, executor=self.executor)

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def unit_spec(self, index: int):
        return self._spec(derive_seed(self.seed, "unit", index))

    def window(self, outcome: Outcome) -> None:
        outcome.calibrator.slice(self.BURST)
        for index in range(self.units(self.UNITS)):
            spec = self.unit_spec(index)
            start = time.perf_counter()
            with outcome.root("bench.unit"):
                payload = repro.run_replicate_study(spec, executor=self.executor).to_payload()
            elapsed = time.perf_counter() - start
            outcome.replicates += spec.n_replicates
            outcome.record("miss", elapsed, payload, True)
            outcome.calibrator.slice(self.BURST)

    def check_reference(self, outcome: Outcome) -> None:
        """The first unit equals a serial batch-1 run of the same spec."""
        reference = repro.run_replicate_study(self.unit_spec(0).replace(batch_size=1)).to_payload()
        if canonical(reference, knobs=False) != canonical(outcome.first_result or {}, knobs=False):
            outcome.fail("pool-b32 unit 0 differs from its serial batch-1 reference")

    def replay(self) -> None:
        """Replay unit 0's lockstep batches and their binary frames in this process."""
        from repro.engine.core import batch_job_groups
        from repro.stochastic.batch import simulate_ssa_batch
        from repro.stochastic.trajectory import decode_trajectories, encode_trajectories

        spec = self.unit_spec(0)
        jobs = repro.replicate_jobs(spec.template_job(), spec.n_replicates, seed=spec.seed)
        compiled = repro.CompiledModelCache().get(jobs[0].model)
        for group in batch_job_groups(jobs, spec.batch_size):
            first = jobs[group[0]]
            seeds = [jobs[index].seed for index in group]
            batch = simulate_ssa_batch(compiled, first.t_end, seeds, **first.simulate_kwargs())
            decode_trajectories(encode_trajectories(batch))


class ServiceFabric(Workload):
    """HTTP service over an authenticated one-worker loopback fabric."""

    name = "service-fabric"
    #: Request cycles at ``--seconds 30`` (one is ~5 s on a 2-vCPU Xeon VM).
    CYCLES = 8
    HITS_PER_CYCLE = 8

    server: Optional["_ServerThread"] = None

    def miss_spec(self, index: int) -> Dict[str, Any]:
        return repro.StudySpec(
            circuit="0x0B", n_replicates=2, hold_time=200.0,
            seed=derive_seed(self.seed, "miss", index), **PAPER,
        ).to_dict()

    def search_spec(self, index: int, **changes) -> Dict[str, Any]:
        fields = dict(
            function="0x8", library="diverse", max_candidates=8, allocator="racing",
            n0=2, refine_step=2, fixed_replicates=6, top_k=2, hold_time=60.0,
            seed=derive_seed(self.seed, "search", index), **PAPER,
        )
        fields.update(changes)
        return repro.SearchSpec(**fields).to_dict()

    def setup(self) -> None:
        key = f"perfbench-{derive_seed(self.seed, 'fabric-key')}"
        self.executor = repro.DistributedEnsembleExecutor.loopback(1, key=key).open()
        self.reset()
        # A miss, a hit and a small search, so each class's first-call costs
        # land in set-up rather than in the first timed request.
        warm = dict(self.miss_spec(0), seed=derive_seed(self.seed, "warmup"), n_replicates=1)
        search = self.search_spec(0, seed=derive_seed(self.seed, "warmup-search"),
                                  max_candidates=2, fixed_replicates=2, top_k=1, hold_time=30.0)
        for path, body in (("/v1/studies", warm), ("/v1/studies", warm), ("/v1/search", search)):
            status, response, _ = self.server.post(path, body)
            if status != 200 or response.get("status") != "done":
                raise RuntimeError(f"warm-up POST {path} answered {status}: {response}")

    def reset(self) -> None:
        """A fresh service (empty result cache) and HTTP server over the fabric."""
        if self.server is not None:
            self.server.close()
        self.service = repro.AnalysisService(executor=self.executor)
        self.server = _ServerThread(self.service)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def counters(self) -> Dict[str, float]:
        health = self.executor.health()
        stats = self.service.stats()
        return {
            "engine.requeues": health["tasks_requeued"],
            "engine.links_dropped": health["links_dropped"],
            "service.rejected": stats["studies"]["rejected"],
            "service.cache_hits": stats["cache"]["hits"],
        }

    def window(self, outcome: Outcome) -> None:
        cycles = self.units(self.CYCLES)
        picker = np.random.default_rng(derive_seed(self.seed, "hits"))
        misses: List[Dict[str, Any]] = []
        outcome.calibrator.slice(2)
        for cycle in range(cycles):
            requests = [("miss", "/v1/studies", self.miss_spec(cycle), None)]
            for _ in range(self.HITS_PER_CYCLE):
                earlier = int(picker.integers(0, cycle + 1))
                requests.append(("hit", "/v1/studies", self.miss_spec(earlier), earlier))
            requests.append(("search", "/v1/search", self.search_spec(cycle), None))
            for kind, path, body, earlier in requests:
                status, response, elapsed = self.server.post(path, body, kind, outcome.tracer)
                result = response.get("result") or {}
                ok = status == 200 and response.get("status") == "done"
                why = f"{kind} {path} answered {status} {response.get('status')}"
                if kind == "miss":
                    misses.append(result)
                if ok and kind == "miss":
                    outcome.replicates += body["n_replicates"]
                elif ok and kind == "search":
                    outcome.replicates += result["total_replicates"]
                elif ok and kind == "hit":
                    ok = response.get("cached") is True and canonical(result) == canonical(misses[earlier])
                    why = f"hit on miss {earlier} differs from the miss that filled its cache entry"
                outcome.record(kind, elapsed, result, ok, why)
                if kind != "hit":
                    outcome.calibrator.slice(2)

    def check_reference(self, outcome: Outcome) -> None:
        """The first miss equals a direct in-process study of the same spec."""
        direct = repro.run_replicate_study(repro.StudySpec.from_dict(self.miss_spec(0))).to_payload()
        if canonical(direct) != canonical(outcome.first_result or {}):
            outcome.fail("service-fabric miss 0 differs from a direct in-process study")


class _ServerThread:
    """A :class:`repro.ServiceServer` on its own event-loop thread, plus a client."""

    def __init__(self, service):
        self.service = service
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="perfbench-http", daemon=True)
        self._thread.start()
        if not self._ready.wait(60.0) or self._error is not None:
            raise RuntimeError(f"service did not start: {self._error!r}")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - reported by the starting thread
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = repro.ServiceServer(self.service, host="127.0.0.1", port=0)
        await server.start()
        self.address = server.address
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()

    def post(self, path: str, body: Dict[str, Any], kind: str = "", tracer=None):
        """POST ``body`` with ``?wait=1``; return ``(status, json, seconds)``."""
        data = json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        if tracer is None:
            status, response = self._send(path, data)
        else:
            with tracer.span("bench.request", request=tracer.next_request()) as span:
                span.attrs["kind"] = kind
                tracer.fallback = (span.span_id, span.request)
                try:
                    status, response = self._send(path, data)
                finally:
                    tracer.fallback = None
        return status, response, time.perf_counter() - start

    def _send(self, path: str, data: bytes):
        connection = http.client.HTTPConnection(*self.address, timeout=120)
        try:
            connection.request(
                "POST", f"{path}?wait=1", body=data,
                headers={"Content-Type": "application/json"},
            )
            reply = connection.getresponse()
            return reply.status, json.loads(reply.read())
        finally:
            connection.close()

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60.0)


WORKLOADS = {cls.name: cls for cls in (VerifySuite, PoolB32, ServiceFabric)}
