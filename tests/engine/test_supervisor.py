"""Tests for the local worker supervisor (engine/supervisor.py).

Covers the process-management contract: a loopback fabric's supervised
workers (``DistributedEnsembleExecutor.loopback``, including an
authenticated one) join and execute work, a killed worker is restarted and
rejoins, ``close()`` reaps every worker, and the status surfaces (dict +
HTTP endpoint) report what an operator needs.  ``TestForkedWorkers`` covers
what a worker forked from the coordinator must not inherit: descriptors,
signal handling that belongs to the parent.  The fault-injection suite
(test_chaos.py) covers how the *coordinator* behaves while all this churn
happens.
"""

import json
import os
import signal
import socket
import time
import urllib.request

import pytest

from repro.engine import DistributedEnsembleExecutor, StudySpec, WorkerSupervisor, replicate_jobs
from repro.engine.core import batch_job_groups, batch_job_payloads, simulate_batch_payload
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


def _socket_inode_port(pid, inode):
    """The local port of ``pid``'s TCP socket with ``inode`` (from /proc)."""
    with open(f"/proc/{pid}/net/tcp") as handle:
        for line in handle.read().splitlines()[1:]:
            fields = line.split()
            if fields[9] == inode:
                return int(fields[1].rsplit(":", 1)[1], 16)
    return None


class TestForkedWorkers:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd")
    def test_worker_holds_only_stdio_and_its_own_connection(self):
        """The coordinator's listening socket, its links and whatever else
        this process has open are closed in a forked worker."""
        with DistributedEnsembleExecutor.loopback(1) as executor:
            assert executor.submit(_echo, 1).result(timeout=60.0) == 1
            pid = executor.supervisor.status()["workers"][0]["pid"]
            targets = {int(fd): os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
            inherited = {fd: target for fd, target in targets.items() if fd > 2}
            assert len(inherited) == 1, targets
            (target,) = inherited.values()
            assert target.startswith("socket:["), targets
            peer_port = int(executor.health()["workers"][0]["peer"].rsplit(":", 1)[1])
            assert _socket_inode_port(pid, target[len("socket:["):-1]) == peer_port

    @pytest.mark.usefixtures("_isolate_parent_worker_caches")
    def test_worker_starts_with_an_empty_compiled_model_cache(self):
        """A model this process already holds in its worker-side cache is
        still a miss on a forked worker: the child starts a cache of its own."""
        jobs = replicate_jobs(StudySpec(circuit="and", seed=3).template_job(), 2, seed=3)
        (payload,) = batch_job_payloads(jobs, batch_job_groups(jobs, 2))
        assert [simulate_batch_payload(payload)[1] for _ in range(2)] == [False, True]
        with DistributedEnsembleExecutor.loopback(1) as executor:
            hits = [executor.submit(simulate_batch_payload, payload).result(timeout=60.0)[1] for _ in range(2)]
        assert hits == [False, True]

    def test_every_slot_is_alive_when_start_returns(self):
        """start() forks each slot's worker before returning (and before its
        monitor thread exists), and stop() reaps them."""
        with socket.create_server(("127.0.0.1", 0)) as listener:  # workers wait in its backlog
            host, port = listener.getsockname()[:2]
            supervisor = WorkerSupervisor(2, connect=f"{host}:{port}")
            try:
                supervisor.start()
                status = supervisor.status()
                assert status["alive"] == status["target"] == 2
                pids = [worker["pid"] for worker in status["workers"]]
            finally:
                supervisor.stop()
        assert len(set(pids)) == 2 and os.getpid() not in pids
        assert [pid for pid in pids if not _exited(pid)] == []

    def test_serve_supervise_survives_sigterm_to_its_worker(self, serve_process):
        """SIGTERM ends the worker, never the server it was forked from: the
        supervisor restarts it and the next study runs.  The second victim
        was forked after the server installed its SIGTERM handler."""
        server = serve_process("--supervise", "1")
        spec = {"circuit": "and", "n_replicates": 2, "hold_time": 60.0}
        status, answer = server.run_study(dict(spec, seed=1))
        assert status == 200 and answer["status"] == "done", answer
        for round_ in (1, 2):
            _, stats = server.request("GET", "/v1/stats")
            victim = stats["supervisor"]["workers"][0]["pid"]
            os.kill(victim, signal.SIGTERM)
            deadline = time.monotonic() + 30.0
            while True:
                assert server.process.poll() is None, "the server exited"
                _, stats = server.request("GET", "/v1/stats")
                worker = stats["supervisor"]["workers"][0]
                if worker["alive"] and worker["pid"] != victim:
                    break
                assert time.monotonic() < deadline, "the worker was never restarted"
                time.sleep(0.05)
            assert stats["supervisor"]["restarts_total"] == round_
            status, answer = server.run_study(dict(spec, seed=1 + round_))
            assert status == 200 and answer["status"] == "done", answer
        assert server.process.poll() is None
