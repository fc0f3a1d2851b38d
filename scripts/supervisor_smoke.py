"""CI smoke for the worker supervisor: kill a worker, the fabric heals.

Starts a :class:`WorkerSupervisor` owning two keyed listening worker
processes forked from this one, SIGKILLs one, asserts the supervisor
restarts it, and then runs a real ``genlogic verify --dispatch`` batch
across both workers — proving the healed, authenticated fabric serves work
end to end.

Run from the repo root with ``PYTHONPATH=src python scripts/supervisor_smoke.py``.
"""

import os
import signal
import socket
import tempfile
import time

from repro.cli import main as cli_main
from repro.engine import WorkerSupervisor
from repro.engine.backoff import BackoffPolicy

KEY = "chaos-smoke-key"


def free_port_pair():
    """A base port where base and base+1 are both currently bindable."""
    for _ in range(20):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
        try:
            with socket.socket() as neighbour:
                neighbour.bind(("127.0.0.1", base + 1))
        except OSError:
            continue
        return base
    raise AssertionError("could not find two consecutive free ports")


def wait_until(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out after {timeout}s waiting for {what}")


def main():
    base = free_port_pair()
    with tempfile.NamedTemporaryFile("w", suffix=".key", delete=False) as handle:
        handle.write(KEY + "\n")
        key_path = handle.name
    supervisor = WorkerSupervisor(
        2,
        listen_base=f"127.0.0.1:{base}",
        key=KEY,
        policy=BackoffPolicy(initial=0.1, multiplier=2.0, maximum=1.0, jitter=0.5),
        stable_after=2.0,
        poll_interval=0.1,
    )
    try:
        with supervisor:
            supervisor.wait_for_alive(2)
            victim_pid = supervisor.status()["workers"][0]["pid"]
            os.kill(victim_pid, signal.SIGKILL)

            def healed():
                status = supervisor.status()
                return status["restarts_total"] >= 1 and status["alive"] == 2

            wait_until(healed, 30.0, "the killed worker to be restarted")

            # The healed fabric must serve a real batched dispatch, with the
            # shared key authenticating every connection.
            code = cli_main(
                [
                    "verify",
                    "and",
                    "--replicates",
                    "8",
                    "--batch",
                    "4",
                    "--hold-time",
                    "80",
                    "--seed",
                    "7",
                    "--no-progress",
                    "--dispatch",
                    f"127.0.0.1:{base},127.0.0.1:{base + 1}",
                    "--key-file",
                    key_path,
                ]
            )
            assert code == 0, f"verify --dispatch exited {code} on the healed fabric"
            status = supervisor.status()
            print(
                f"supervisor smoke OK: restarts_total={status['restarts_total']}, "
                f"alive={status['alive']}, authenticated={status['authenticated']}"
            )
    finally:
        os.unlink(key_path)


if __name__ == "__main__":
    main()
