"""Tests for the socket-based distributed backend (engine/distributed.py + worker.py).

The conformance suite (test_backend_contract.py) proves the distributed
backend honours the generic executor contract; this module covers what is
specific to the socket transport: the wire framing, address parsing, both
fabric-assembly modes, fault tolerance (worker loss requeue, workerless
timeout, worker survival of poison tasks), study-level end-to-end execution
(the acceptance criterion: ``run_replicate_study`` on a real ≥2-worker
fabric with no study-code changes), and the ``genlogic worker`` CLI.
"""

import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.analysis import run_replicate_study
from repro.engine import (
    DistributedEnsembleExecutor,
    RemoteWorkerError,
    WorkerConnectionError,
    replicate_jobs,
    run_ensemble,
)
from repro.engine.distributed import (
    parse_address,
    parse_dispatch_spec,
    recv_message,
    send_message,
    spawn_worker_process,
)
from repro.engine.jobs import SimulationJob
from repro.engine.worker import run_worker
from repro.errors import EngineError
from repro.stochastic.events import InputSchedule


@pytest.fixture(autouse=True)
def _isolate_parent_worker_caches():
    """Restore the parent-process worker-side caches after every test.

    Some tests here run ``run_worker`` on a thread *inside* the pytest
    process, which warms this process's module-level worker caches
    (``_WORKER_CACHE`` etc.).  Fork-started pools inherit parent memory, so
    without this isolation a later test's "fresh" pool would start warm and
    its cold-compile assertions would fail.
    """
    import repro.engine.cache as cache_module

    names = ("_WORKER_CACHE", "_WORKER_MODELS", "_WORKER_KERNELS", "_WORKER_BLOBS_SEEN")
    saved = {name: dict(getattr(cache_module, name)) for name in names}
    yield
    for name, value in saved.items():
        current = getattr(cache_module, name)
        current.clear()
        current.update(value)


@pytest.fixture(scope="module")
def fabric():
    """One real loopback fabric (2 spawned worker processes) for the module."""
    with DistributedEnsembleExecutor.loopback(2) as executor:
        yield executor


@pytest.fixture()
def ssa_job(and_circuit):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 40.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=80.0, simulator="ssa", schedule=schedule)


class TestFraming:
    def test_messages_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = {"type": "result", "id": 7, "ok": True, "value": [1.0, 2.0]}
            send_message(left, payload)
            send_message(left, {"type": "shutdown"})
            assert recv_message(right) == payload
            assert recv_message(right) == {"type": "shutdown"}
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_error(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionError):
                recv_message(right)
        finally:
            right.close()


class TestAddressParsing:
    def test_parse_address(self):
        assert parse_address("example.org:7777") == ("example.org", 7777)
        assert parse_address(":7777") == ("0.0.0.0", 7777)

    @pytest.mark.parametrize("bad", ["nohost", "host:notaport", "", "host:"])
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(EngineError):
            parse_address(bad)

    def test_parse_dispatch_spec(self):
        assert parse_dispatch_spec("a:1, b:2,") == ["a:1", "b:2"]
        with pytest.raises(EngineError):
            parse_dispatch_spec(" , ")
        with pytest.raises(EngineError):
            parse_dispatch_spec("host")


class TestConstruction:
    def test_needs_exactly_one_assembly_mode(self):
        with pytest.raises(EngineError):
            DistributedEnsembleExecutor()
        with pytest.raises(EngineError):
            DistributedEnsembleExecutor(connect=["a:1"], listen="b:2")

    def test_listen_mode_times_out_without_workers(self):
        executor = DistributedEnsembleExecutor(
            listen="127.0.0.1:0", min_workers=1, connect_timeout=0.5
        )
        with pytest.raises(WorkerConnectionError):
            executor.open()
        assert not executor.is_open

    def test_dial_mode_times_out_against_a_dead_address(self):
        executor = DistributedEnsembleExecutor(connect=["127.0.0.1:1"], connect_timeout=0.5)
        with pytest.raises(WorkerConnectionError):
            executor.open()
        assert not executor.is_open


def _sleep_briefly(seconds):
    time.sleep(seconds)
    return seconds


def _kill_this_worker(payload):
    import os

    os._exit(17)


class TestFabricExecution:
    def test_study_runs_end_to_end_with_no_study_code_changes(self, fabric, and_circuit):
        """The acceptance criterion: run_replicate_study on a ≥2-worker TCP
        fabric via executor=, bit-identical to the serial study."""
        serial = run_replicate_study(and_circuit, n_replicates=4, hold_time=80.0, rng=21)
        distributed = run_replicate_study(
            and_circuit, n_replicates=4, hold_time=80.0, rng=21, executor=fabric
        )
        assert distributed.fitness_values == serial.fitness_values
        assert distributed.recovery_rate == serial.recovery_rate
        assert distributed.stats.executor == "distributed"
        assert fabric.is_open  # lifecycle stays with the caller

    def test_worker_caches_stay_warm_across_batches(self, fabric, ssa_job):
        first = run_ensemble(replicate_jobs(ssa_job, 4, seed=5), executor=fabric)
        second = run_ensemble(replicate_jobs(ssa_job, 4, seed=6), executor=fabric)
        assert first.stats.cache_hits + first.stats.cache_misses == 4
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == 4

    def test_worker_loss_requeues_in_flight_tasks(self):
        """SIGKILL one of two workers mid-batch: its in-flight tasks are
        requeued and the survivor completes the whole batch."""
        with DistributedEnsembleExecutor.loopback(2) as executor:
            executor.open()
            victim = executor._processes[0]

            def _kill_soon():
                time.sleep(0.25)
                victim.send_signal(signal.SIGKILL)

            threading.Thread(target=_kill_soon, daemon=True).start()
            results = executor.map(_sleep_briefly, [0.1] * 16)
        assert results == [0.1] * 16

    def test_poison_task_fails_batch_not_forever(self):
        """A task that kills every worker it lands on must fail the batch
        once the fabric is workerless past the regrow timeout — not hang."""
        with DistributedEnsembleExecutor.loopback(1) as executor:
            executor.regrow_timeout = 1.5
            with pytest.raises((WorkerConnectionError, RemoteWorkerError)):
                executor.map(_kill_this_worker, [None, None])

    def test_close_mid_batch_settles_every_outstanding_future(self):
        """close() during an active batch must cancel/fail in-flight and
        queued futures — a caller blocked on one must not hang forever."""
        import concurrent.futures

        with DistributedEnsembleExecutor.loopback(1) as executor:
            executor.open()
            slow = executor.submit(_sleep_briefly, 8.0)  # dispatched to the worker
            queued = executor.submit(_sleep_briefly, 8.0)  # waits for a slot
            time.sleep(0.3)
            executor.close()
            for future in (slow, queued):
                with pytest.raises((concurrent.futures.CancelledError, WorkerConnectionError)):
                    future.result(timeout=5.0)

    def test_task_errors_do_not_kill_the_worker(self, fabric):
        with pytest.raises(FileNotFoundError):
            import os

            fabric.map(os.path.getsize, ["/definitely/not/a/file"])
        # Same fabric, same workers: still fully operational.
        assert fabric.map(_sleep_briefly, [0.0, 0.0]) == [0.0, 0.0]

    def test_late_worker_joins_a_listening_fabric(self):
        """A worker that dials in after open() grows the fabric's capacity —
        the reconnect path a replacement worker uses."""
        executor = DistributedEnsembleExecutor(
            listen="127.0.0.1:0", min_workers=1, connect_timeout=60.0
        )
        processes = []
        try:
            host, port = _open_with_first_worker(executor, processes)
            assert executor.capacity == 1
            processes.append(spawn_worker_process(f"{host}:{port}"))
            deadline = time.monotonic() + 30.0
            while executor.capacity < 2:
                assert time.monotonic() < deadline, "second worker never joined"
                time.sleep(0.05)
            assert executor.map(_sleep_briefly, [0.0] * 4) == [0.0] * 4
        finally:
            executor.close()
            for process in processes:
                if process.poll() is None:
                    process.terminate()
                process.wait(timeout=10.0)


def _open_with_first_worker(executor, processes):
    """Open a listen-mode fabric, dialing its first worker once bound."""
    opened = threading.Event()
    error = []

    def _opener():
        try:
            executor.open()
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            error.append(exc)
        finally:
            opened.set()

    thread = threading.Thread(target=_opener, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while executor.bound_address is None:
        assert time.monotonic() < deadline, "listener never bound"
        time.sleep(0.02)
    host, port = executor.bound_address
    processes.append(spawn_worker_process(f"{host}:{port}"))
    assert opened.wait(timeout=30.0)
    assert not error, error
    return host, port


class TestWorkerEntryPoint:
    def test_run_worker_needs_exactly_one_mode(self):
        with pytest.raises(EngineError):
            run_worker()
        with pytest.raises(EngineError):
            run_worker(connect="a:1", listen="b:2")

    def test_listen_worker_serves_sequential_coordinators(self):
        """One --listen worker serves two coordinator sessions back to back
        (the --dispatch shape), keeping its caches across sessions."""
        ready = threading.Event()
        bound = {}

        def _on_ready(address):
            bound["address"] = address
            ready.set()

        worker = threading.Thread(
            target=run_worker,
            kwargs={"listen": "127.0.0.1:0", "max_sessions": 2, "on_ready": _on_ready},
            daemon=True,
        )
        worker.start()
        assert ready.wait(timeout=10.0)
        host, port = bound["address"]
        address = f"{host}:{port}"
        for _ in range(2):
            with DistributedEnsembleExecutor(connect=[address]) as executor:
                assert executor.map(_sleep_briefly, [0.0, 0.0]) == [0.0, 0.0]
        worker.join(timeout=10.0)
        assert not worker.is_alive()


class TestDispatchCli:
    def test_verify_dispatch_matches_serial_run(self, tmp_path, capsys):
        """genlogic verify --dispatch against a listening worker produces
        the same study a serial run does."""
        from repro.cli import main

        ready = threading.Event()
        bound = {}

        def _on_ready(address):
            bound["address"] = address
            ready.set()

        worker = threading.Thread(
            target=run_worker,
            kwargs={"listen": "127.0.0.1:0", "max_sessions": 1, "on_ready": _on_ready},
            daemon=True,
        )
        worker.start()
        assert ready.wait(timeout=10.0)
        host, port = bound["address"]
        argv = [
            "verify",
            "and",
            "--replicates",
            "3",
            "--hold-time",
            "80",
            "--seed",
            "9",
            "--no-progress",
        ]
        code = main([*argv, "--dispatch", f"{host}:{port}"])
        dispatched = capsys.readouterr().out
        baseline_code = main(argv)
        baseline = capsys.readouterr().out
        assert code == baseline_code
        # Same recovery/fitness lines; only the engine summary line differs.
        assert dispatched.splitlines()[0] == baseline.splitlines()[0]
        assert "distributed" in dispatched
        worker.join(timeout=10.0)

    def test_dispatch_excludes_workers(self, capsys):
        from repro.cli import main

        code = main(
            ["verify", "and", "--replicates", "2", "--workers", "2", "--dispatch", "h:1"],
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_worker_subcommand_validates_flags(self, capsys):
        from repro.cli import main

        assert main(["worker", "--connect", "h:1", "--max-sessions", "2"]) == 2
        capsys.readouterr()
        assert main(["worker", "--connect", "h:1", "--capacity", "0"]) == 2


class TestBitIdentityAcrossFabricShapes:
    def test_dial_out_fabric_matches_serial(self, ssa_job):
        """The --dispatch shape (coordinator dials listening workers) is
        bit-identical to serial too."""
        ready = threading.Event()
        bound = {}

        def _on_ready(address):
            bound["address"] = address
            ready.set()

        worker = threading.Thread(
            target=run_worker,
            kwargs={"listen": "127.0.0.1:0", "max_sessions": 1, "on_ready": _on_ready},
            daemon=True,
        )
        worker.start()
        assert ready.wait(timeout=10.0)
        host, port = bound["address"]
        serial = run_ensemble(replicate_jobs(ssa_job, 3, seed=13))
        with DistributedEnsembleExecutor(connect=[f"{host}:{port}"]) as executor:
            dialed = run_ensemble(replicate_jobs(ssa_job, 3, seed=13), executor=executor)
        for index in range(3):
            assert np.array_equal(dialed.trajectory(index).data, serial.trajectory(index).data)
        worker.join(timeout=10.0)
