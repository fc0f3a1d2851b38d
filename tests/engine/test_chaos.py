"""Fault-injection suite for the distributed fabric (chaos.py harness).

Every test here puts a :class:`chaos.ChaosProxy` between a dialing
coordinator and a real in-thread ``genlogic worker`` and injects one wire
fault, asserting the coordinator degrades *gracefully*: rejected
connections raise :class:`ProtocolError` without unpickling a byte the
peer sent, truncated or blackholed workers are retired and their in-flight
tasks requeued on survivors (bit-identical results, no double delivery),
delayed frames are just slow, and a fabric with no workers left fails
loudly with :class:`WorkerConnectionError` only after ``regrow_timeout`` —
it never hangs.
"""

import pickle
import queue
import threading
import time

import numpy as np
import pytest

from chaos import ChaosProxy, Fault
from repro.engine import (
    DistributedEnsembleExecutor,
    WorkerConnectionError,
    replicate_jobs,
    run_ensemble,
)
from repro.engine.auth import ProtocolError
from repro.engine.jobs import SimulationJob
from repro.engine.worker import run_worker, serve_connection
from repro.stochastic.events import InputSchedule


pytestmark = pytest.mark.usefixtures("_isolate_parent_worker_caches")


@pytest.fixture()
def no_unpickling(monkeypatch):
    """Fail the test if anything is unpickled; returns the recorded calls."""
    calls = []

    def _forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("pickle.loads reached on a rejected-connection path")

    monkeypatch.setattr(pickle, "loads", _forbidden)
    monkeypatch.setattr(pickle, "load", _forbidden)
    return calls


@pytest.fixture()
def ssa_job(and_circuit):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 40.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=80.0, simulator="ssa", schedule=schedule)


def _double(n):
    return 2 * n


def _slow_double(n):
    time.sleep(0.05)
    return 2 * n


class _WorkerThread:
    """A real ``genlogic worker --listen`` running on a thread in this process."""

    def __init__(self, *, max_sessions=1, key=None):
        self._ready = threading.Event()
        self._bound = {}

        def _on_ready(address):
            self._bound["address"] = address
            self._ready.set()

        self.thread = threading.Thread(
            target=run_worker,
            kwargs={
                "listen": "127.0.0.1:0",
                "max_sessions": max_sessions,
                "on_ready": _on_ready,
                "key": key,
            },
            daemon=True,
        )
        self.thread.start()
        assert self._ready.wait(timeout=10.0), "worker never bound its listen socket"

    @property
    def address(self):
        return "{}:{}".format(*self._bound["address"])

    def join(self, timeout=10.0):
        self.thread.join(timeout=timeout)


class TestProxyPassthrough:
    def test_faultless_proxy_is_invisible_to_the_fabric(self):
        worker = _WorkerThread()
        with ChaosProxy(worker.address) as proxy:
            with DistributedEnsembleExecutor(connect=[proxy.endpoint]) as executor:
                assert executor.map(_double, [0, 1, 2, 3]) == [0, 2, 4, 6]
                health = executor.health()
                assert health["links_dropped"] == 0
                assert health["tasks_requeued"] == 0
            assert proxy.connections == 1
            assert proxy.faults_fired == 0
        worker.join()


class TestHandshakeFaults:
    def test_corrupt_hello_length_prefix_rejected_before_unpickling(self, no_unpickling):
        """A forged 4 GiB length prefix on the worker's hello frame must be
        refused before the coordinator allocates or unpickles anything."""
        worker = _WorkerThread()
        # Frame 0 after the handshake is the hello; offset 0 is its prefix.
        fault = Fault(action="corrupt", frame=0, offset=0)
        with ChaosProxy(worker.address, upstream_to_client=fault) as proxy:
            executor = DistributedEnsembleExecutor(connect=[proxy.endpoint], connect_timeout=10.0)
            try:
                with pytest.raises(ProtocolError, match="refusing to\n?\\s*allocate"):
                    executor.open()
            finally:
                executor.close()
            assert proxy.faults_fired == 1
        assert no_unpickling == []
        worker.join()

    @pytest.mark.parametrize("offset", [2, 20, 36])
    def test_connection_dropped_mid_preamble_rejected(self, offset, no_unpickling, monkeypatch):
        """Losing the peer at any byte of the raw preamble is a clean
        ProtocolError, not a hang and not an unpickling attempt."""
        outcomes = queue.Queue()

        def _recorded_session(sock, **kwargs):
            try:
                executed = serve_connection(sock, **kwargs)
            except Exception as error:
                outcomes.put(error)
                raise
            outcomes.put(executed)
            return executed

        monkeypatch.setattr("repro.engine.worker.serve_connection", _recorded_session)
        worker = _WorkerThread()
        fault = Fault(action="cut", at_bytes=offset)
        with ChaosProxy(worker.address, upstream_to_client=fault) as proxy:
            executor = DistributedEnsembleExecutor(connect=[proxy.endpoint], connect_timeout=10.0)
            try:
                with pytest.raises(ProtocolError, match="mid-handshake"):
                    executor.open()
            finally:
                executor.close()
        assert no_unpickling == []
        # Where the cut lands races the proxy's two pump threads.  If the
        # coordinator's preamble reached the worker, its handshake passed and
        # the cut ended its one session.  If not, its handshake failed, which
        # spends no session, and it is back to accepting: spend that session.
        if isinstance(outcomes.get(timeout=10.0), Exception):
            monkeypatch.undo()
            with DistributedEnsembleExecutor(connect=[worker.address]) as executor:
                assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        worker.join()
        assert not worker.thread.is_alive()

    def test_rejected_probe_does_not_burn_a_session_slot(self):
        """A hostile probe turned away at the handshake must not consume the
        worker's --max-sessions budget: the rightful coordinator still gets
        served afterwards."""
        worker = _WorkerThread(max_sessions=1, key=b"chaos-secret")
        with pytest.raises(ProtocolError):
            with DistributedEnsembleExecutor(
                connect=[worker.address], connect_timeout=10.0, key="wrong-secret"
            ) as executor:
                executor.open()
        with DistributedEnsembleExecutor(
            connect=[worker.address], key="chaos-secret"
        ) as executor:
            assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        worker.join()

    @pytest.mark.parametrize("offset", [45, 69])
    def test_keyed_handshake_dropped_at_digest_and_verdict_stages(
        self, offset, no_unpickling, monkeypatch
    ):
        """On an authenticated fabric, cutting mid-digest (offset 45) or
        before the verdict byte (offset 69) rejects cleanly too."""
        worker = _WorkerThread(key=b"chaos-secret")
        fault = Fault(action="cut", at_bytes=offset)
        with ChaosProxy(worker.address, upstream_to_client=fault) as proxy:
            executor = DistributedEnsembleExecutor(
                connect=[proxy.endpoint], connect_timeout=10.0, key="chaos-secret"
            )
            try:
                with pytest.raises(ProtocolError, match="mid-handshake"):
                    executor.open()
            finally:
                executor.close()
        assert no_unpickling == []
        # The failed handshake left the worker's one session unspent, so it is
        # still listening: spend it (results unpickle again) and it exits.
        monkeypatch.undo()
        with DistributedEnsembleExecutor(connect=[worker.address], key="chaos-secret") as executor:
            assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        worker.join()
        assert not worker.thread.is_alive()


class TestDataPathFaults:
    def test_truncated_result_frame_requeues_to_survivor(self):
        """A worker whose result frame is cut mid-body is retired; its task
        reruns on the survivor and every result is delivered exactly once."""
        survivor = _WorkerThread()
        victim = _WorkerThread()
        # w2c frame 0 is the hello; frame 1 is the victim's first result,
        # cut 6 bytes in (4-byte prefix + 2 body bytes).
        fault = Fault(action="cut", frame=1, offset=6)
        with ChaosProxy(victim.address, upstream_to_client=fault) as proxy:
            with DistributedEnsembleExecutor(
                connect=[survivor.address, proxy.endpoint],
                # Pings would shift the w2c frame numbering; keep them out.
                heartbeat_interval=30.0,
                heartbeat_timeout=120.0,
            ) as executor:
                assert executor.map(_slow_double, list(range(8))) == [2 * n for n in range(8)]
                health = executor.health()
                assert health["links_dropped"] == 1
                assert health["tasks_requeued"] >= 1
                # Exactly one result frame per task reached the coordinator.
                assert health["tasks_completed"] == 8
            assert proxy.faults_fired == 1
        survivor.join()
        victim.join()

    def test_delayed_result_frame_is_slow_but_not_dead(self):
        """A delay below the heartbeat timeout must not retire the worker."""
        worker = _WorkerThread()
        fault = Fault(action="delay", frame=1, offset=0, delay=0.8)
        with ChaosProxy(worker.address, upstream_to_client=fault) as proxy:
            with DistributedEnsembleExecutor(
                connect=[proxy.endpoint],
                heartbeat_interval=1.0,
                heartbeat_timeout=5.0,
            ) as executor:
                started = time.monotonic()
                assert executor.map(_double, [21]) == [42]
                assert time.monotonic() - started >= 0.75
                assert executor.health()["links_dropped"] == 0
        worker.join()

    def test_blackholed_worker_detected_by_heartbeat_bit_identical_results(self, ssa_job):
        """The acceptance criterion: a hung (blackholed) worker is detected
        within the heartbeat timeout, its tasks complete on the survivor,
        and the study is bit-identical to a serial run."""
        serial = run_ensemble(replicate_jobs(ssa_job, 6, seed=21))
        survivor = _WorkerThread()
        victim = _WorkerThread()
        with ChaosProxy(victim.address) as proxy:
            with DistributedEnsembleExecutor(
                connect=[survivor.address, proxy.endpoint],
                heartbeat_interval=0.2,
                heartbeat_timeout=0.8,
            ) as executor:
                executor.open()
                proxy.blackhole()  # the victim hangs: alive socket, nothing moves
                started = time.monotonic()
                distributed = run_ensemble(replicate_jobs(ssa_job, 6, seed=21), executor=executor)
                elapsed = time.monotonic() - started
                health = executor.health()
            # Detection is heartbeat-driven (sub-second here), not a TCP
            # timeout minutes away; the whole study finishes promptly.
            assert elapsed < 20.0
            assert health["links_dropped"] == 1
            assert health["tasks_requeued"] >= 1
            assert len(health["workers"]) == 1
        for index in range(6):
            assert np.array_equal(
                distributed.trajectory(index).data, serial.trajectory(index).data
            )
        survivor.join()


class TestWorkerlessFabric:
    def test_fails_after_regrow_timeout_never_hangs(self):
        """With every worker gone and none coming back, a queued batch fails
        with WorkerConnectionError once regrow_timeout expires — the
        coordinator re-dials with backoff in between, and never hangs."""
        worker = _WorkerThread(max_sessions=1)
        with ChaosProxy(worker.address) as proxy:
            with DistributedEnsembleExecutor(
                connect=[proxy.endpoint],
                connect_timeout=10.0,
                regrow_timeout=1.0,
            ) as executor:
                executor.open()
                proxy.cut_all()  # the one worker is gone for good (max_sessions=1)
                worker.join()
                started = time.monotonic()
                with pytest.raises(WorkerConnectionError, match="no workers joined"):
                    executor.map(_double, [1, 2, 3])
                elapsed = time.monotonic() - started
            assert 0.9 <= elapsed < 8.0
