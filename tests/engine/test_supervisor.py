"""Tests for the local worker supervisor (engine/supervisor.py).

Covers the process-management contract: a loopback fabric's supervised
workers (``DistributedEnsembleExecutor.loopback``, including an
authenticated one) join and execute work, a killed worker is restarted and
rejoins, ``close()`` reaps every worker, and the status surfaces (dict +
HTTP endpoint) report what an operator needs.  The fault-injection suite
(test_chaos.py) covers how the *coordinator* behaves while all this churn
happens.
"""

import json
import os
import signal
import time
import urllib.request

import pytest

from repro.engine import DistributedEnsembleExecutor, WorkerSupervisor
from repro.errors import EngineError


def _echo(payload):
    return payload


def _sleep_briefly(seconds):
    time.sleep(seconds)
    return seconds


def _exited(pid):
    """Whether ``pid`` is gone: exited and reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestConstruction:
    def test_needs_exactly_one_wiring(self):
        with pytest.raises(EngineError):
            WorkerSupervisor(1)
        with pytest.raises(EngineError):
            WorkerSupervisor(1, connect="a:1", listen_base="b:2")

    def test_negative_target_rejected(self):
        with pytest.raises(EngineError):
            WorkerSupervisor(-1, connect="a:1")

    def test_addresses_only_in_listen_mode(self):
        supervisor = WorkerSupervisor(2, connect="a:1")
        with pytest.raises(EngineError):
            supervisor.addresses

    def test_listen_mode_addresses_are_consecutive_ports(self):
        supervisor = WorkerSupervisor(3, listen_base="127.0.0.1:9100")
        assert supervisor.addresses == ["127.0.0.1:9100", "127.0.0.1:9101", "127.0.0.1:9102"]


class TestSupervisedFabric:
    def test_supervised_workers_join_and_execute(self):
        with DistributedEnsembleExecutor.loopback(2) as executor:
            futures = [executor.submit(_echo, n) for n in range(8)]
            assert sorted(f.result(timeout=60.0) for f in futures) == list(range(8))
            status = executor.supervisor.status()
            assert status["alive"] == 2
            assert status["mode"] == "connect"

    def test_killed_worker_is_restarted_and_rejoins(self):
        with DistributedEnsembleExecutor.loopback(1) as executor:
            assert executor.submit(_echo, "warm").result(timeout=60.0) == "warm"
            supervisor = executor.supervisor
            victim_pid = supervisor.status()["workers"][0]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                status = supervisor.status()
                if status["restarts_total"] >= 1 and status["alive"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("supervisor never restarted the killed worker")
            # The replacement re-joins the fabric and serves work.
            assert executor.submit(_echo, "again").result(timeout=60.0) == "again"

    def test_authenticated_supervised_fabric_executes(self):
        with DistributedEnsembleExecutor.loopback(1, key="sup-secret") as executor:
            assert executor.authenticated
            assert executor.submit(_echo, 11).result(timeout=60.0) == 11
            assert executor.supervisor.status()["authenticated"] is True

    def test_close_reaps_every_worker(self):
        """close() with every worker busy returns promptly, stops the
        supervisor (no restart as the sessions end) and reaps each worker."""
        executor = DistributedEnsembleExecutor.loopback(2).open()
        pids = [worker["pid"] for worker in executor.supervisor.status()["workers"]]
        assert len(pids) == 2 and None not in pids
        busy = [executor.submit(_sleep_briefly, 8.0) for _ in range(4)]
        time.sleep(0.3)
        started = time.monotonic()
        executor.close()
        assert time.monotonic() - started < 2.0
        assert all(future.done() for future in busy)
        assert [pid for pid in pids if not _exited(pid)] == []
        assert executor.supervisor.status()["workers"] == []


class TestStatusSurfaces:
    def test_status_shape_and_executor_health(self):
        with DistributedEnsembleExecutor.loopback(1) as executor:
            assert executor.submit(_echo, 3).result(timeout=60.0) == 3
            status = executor.supervisor.status()
            assert set(status) >= {"target", "mode", "alive", "restarts_total", "workers"}
            assert "fabric" not in status
            worker = status["workers"][0]
            assert worker["alive"] is True and worker["pid"] is not None
            health = executor.health()
            assert health["queue_depth"] == 0
            assert health["tasks_completed"] >= 1
            assert health["workers"][0]["tasks_per_second"] >= 0.0

    def test_http_status_endpoint_serves_the_snapshot(self):
        supervisor = WorkerSupervisor(0, connect="127.0.0.1:1")
        with supervisor:
            host, port = supervisor.serve_status()
            with urllib.request.urlopen(f"http://{host}:{port}/status", timeout=10.0) as reply:
                assert reply.status == 200
                document = json.loads(reply.read())
            assert document["target"] == 0
            assert document["workers"] == []
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=10.0)
            with pytest.raises(EngineError):
                supervisor.serve_status()
