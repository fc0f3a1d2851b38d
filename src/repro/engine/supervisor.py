"""Local worker supervisor: the only code that starts and reaps local workers.

:class:`WorkerSupervisor` keeps a fixed number of local worker processes
running on this machine — forking them at start, restarting the ones that
crash, and terminating and reaping every one on :meth:`stop` — so a fabric
survives worker deaths without an operator in the loop.  It is the process
half of the fabric: the coordinator's heartbeat monitor
(:mod:`repro.engine.distributed`) detects a dead or hung worker and requeues
its tasks within seconds, and the supervisor puts a replacement process on
the fabric shortly after.  :func:`spawn_worker_process` is the one place a
local worker process is started: it forks this process, so a worker starts
with everything already imported here instead of importing numpy and the
engine again, and runs the same :func:`~repro.engine.worker.run_worker` as a
``genlogic worker`` on another machine.

Restart policy: each worker slot owns a :class:`~repro.engine.backoff.Backoff`
over the shared capped-exponential-plus-jitter policy — the same one the
coordinator's re-dial loop uses — so a worker that keeps dying is restarted
at a decaying rate rather than in a hot loop (no restart storms), and a slot
that then stays up ``stable_after`` seconds earns its small initial delay
back.  Jitter keeps N crashed slots from restarting in lockstep.

Two wirings, mirroring the executor's two assembly modes:

* **connect mode** (``connect="host:port"``): supervised workers dial a
  listening coordinator.  :meth:`DistributedEnsembleExecutor.loopback
  <repro.engine.distributed.DistributedEnsembleExecutor.loopback>` (and so
  ``genlogic serve --supervise N``) starts one on the port it has bound, and
  stops it on ``close()``.
* **listen mode** (``listen_base="host:port"``): slot *i* listens on
  ``port + i`` and the supervisor's :attr:`addresses` feed a coordinator's
  ``--dispatch`` list — the shape behind the CI supervisor smoke.

Health: :meth:`status` returns a JSON-able snapshot (per-slot pid, uptime,
restart counts); :meth:`serve_status` optionally exposes it over a tiny
stdlib HTTP endpoint (``genlogic supervisor --status-port``), and
``genlogic serve`` shows the same snapshot as the ``supervisor`` block of
``/v1/stats``.

The fabric secret (``key=`` / ``GENLOGIC_FABRIC_KEY``) is handed to every
forked worker as an argument, so a supervised fleet joins an authenticated
coordinator without per-worker configuration.  No other per-worker setting
exists: every worker runs one dispatch and holds the next one, which waits
on its socket (see :mod:`repro.engine.distributed`).

Forking and threads: :meth:`WorkerSupervisor.start` forks its first workers
before its monitor thread starts, so a caller with no other Python thread
(perfbench, a script) forks a single-threaded interpreter.  Restarts, and
``genlogic serve``, fork while other threads run; that is safe because the
child touches no lock created before the fork (see
:func:`spawn_worker_process`).  On Python 3.12+ every such fork raises a
``DeprecationWarning`` ("This process is multi-threaded, use of fork() may
lead to deadlocks in the child"), since numpy's OpenBLAS threads make any
process that has imported numpy multi-threaded; the process pool's forked
workers warn the same way.  The warning is not suppressed.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import TYPE_CHECKING, Any, Dict, List, NoReturn, Optional, Tuple

from ..errors import EngineError
from .auth import KEY_ENV, resolve_key
from .backoff import Backoff, BackoffPolicy
from .core import reset_worker_signals
from .distributed import parse_address

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = ["WorkerSupervisor", "WorkerProcess", "RESTART_BACKOFF", "spawn_worker_process"]

#: Restart schedule for crashed workers: same family as the coordinator's
#: re-dial policy, but with a higher cap — starting a process is costlier
#: than re-dialing a socket, and a crash-looping worker should settle at a
#: gentle steady rate.
RESTART_BACKOFF = BackoffPolicy(initial=0.1, multiplier=2.0, maximum=10.0, jitter=0.5)


class _Slot:
    """One supervised worker position: its process and restart bookkeeping."""

    __slots__ = (
        "index",
        "listen_address",
        "process",
        "backoff",
        "spawns",
        "started_at",
        "next_start_at",
        "stabilized",
        "last_exit_code",
    )

    def __init__(self, index: int, listen_address: Optional[str], policy: BackoffPolicy):
        self.index = index
        self.listen_address = listen_address
        self.process: Optional[WorkerProcess] = None
        self.backoff = Backoff(policy)
        self.spawns = 0
        self.started_at: Optional[float] = None
        self.next_start_at = 0.0
        self.stabilized = False
        self.last_exit_code: Optional[int] = None

    @property
    def restarts(self) -> int:
        """Spawns beyond the first — how many times this slot's worker died."""
        return max(0, self.spawns - 1)


class WorkerSupervisor:
    """Keep ``target`` local worker processes on a fabric.

    A context manager: ``with WorkerSupervisor(2, connect=addr):`` starts the
    monitor thread and stops it (terminating and reaping every supervised
    worker) on exit.  All methods are thread-safe.
    """

    def __init__(
        self,
        target: int,
        *,
        connect: Optional[str] = None,
        listen_base: Optional[str] = None,
        key: Optional[Any] = None,
        key_file: Optional[str] = None,
        policy: Optional[BackoffPolicy] = None,
        stable_after: float = 5.0,
        poll_interval: float = 0.2,
    ):
        if (connect is None) == (listen_base is None):
            raise EngineError(
                "WorkerSupervisor needs exactly one of connect= (workers dial a "
                "coordinator) or listen_base= (workers listen on consecutive ports)",
            )
        if int(target) < 0:
            raise EngineError("supervisor target must be non-negative")
        self._connect = connect
        if connect is not None:
            parse_address(connect)
        self._listen_base: Optional[Tuple[str, int]] = None
        if listen_base is not None:
            self._listen_base = parse_address(listen_base)
        self._key = resolve_key(key, key_file)
        self._policy = policy if policy is not None else RESTART_BACKOFF
        self.stable_after = float(stable_after)
        self.poll_interval = float(poll_interval)
        self._lock = threading.Lock()
        self._slots: List[_Slot] = []
        self._target = int(target)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._status_server: Optional[ThreadingHTTPServer] = None
        self.started_at: Optional[float] = None

    # -- wiring --------------------------------------------------------------------
    @property
    def addresses(self) -> List[str]:
        """The listen-mode worker addresses (for a coordinator's ``--dispatch``)."""
        if self._listen_base is None:
            raise EngineError("addresses only exist in listen_base mode")
        host, port = self._listen_base
        return [f"{host}:{port + index}" for index in range(self._target)]

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> "WorkerSupervisor":
        """Fork the first workers, then start the monitor thread (idempotent).

        Every slot has a live process when this returns; the forks happen
        before the monitor thread exists (see the module docstring).
        """
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self.started_at = time.monotonic()
            listen = self.addresses if self._listen_base is not None else [None] * self._target
            self._slots = [
                _Slot(index, address, self._policy) for index, address in enumerate(listen)
            ]
            thread = self._thread = threading.Thread(
                target=self._run,
                name="genlogic-supervisor",
                daemon=True,
            )
        self._tick()
        thread.start()
        return self

    def stop(self) -> None:
        """Stop monitoring and terminate every supervised worker.  Idempotent."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)
        self._thread = None
        server, self._status_server = self._status_server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        with self._lock:
            slots, self._slots = self._slots, []
        _terminate([slot.process for slot in slots if slot.process is not None])

    def __enter__(self) -> "WorkerSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the monitor loop ----------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self._tick()

    def _tick(self) -> None:
        """One supervision round: reap, schedule restarts, spawn."""
        now = time.monotonic()
        to_spawn: List[_Slot] = []
        with self._lock:
            for slot in self._slots:
                if slot.process is not None:
                    if slot.process.poll() is None:
                        # A worker that stayed up long enough earns its short
                        # initial restart delay back.
                        if (
                            not slot.stabilized
                            and slot.started_at is not None
                            and now - slot.started_at >= self.stable_after
                        ):
                            slot.backoff.reset()
                            slot.stabilized = True
                        continue
                    slot.last_exit_code = slot.process.returncode
                    slot.process = None
                    slot.started_at = None
                    slot.stabilized = False
                    slot.next_start_at = now + slot.backoff.next_delay()
                if now >= slot.next_start_at:
                    to_spawn.append(slot)
        for slot in to_spawn:
            self._spawn(slot)

    def _spawn(self, slot: _Slot) -> None:
        """Start one worker for ``slot`` (outside the lock)."""
        try:
            process = spawn_worker_process(self._connect, listen=slot.listen_address, key=self._key)
        except OSError:
            # fork failure (process or memory limits): back off like a crash
            # instead of retrying every tick.
            with self._lock:
                slot.next_start_at = time.monotonic() + slot.backoff.next_delay()
            return
        with self._lock:
            if self._stop.is_set():
                # Lost a race with stop(): this worker has no slot.
                _terminate([process])
                return
            slot.process = process
            slot.spawns += 1
            slot.started_at = time.monotonic()
            slot.stabilized = False

    # -- health --------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """A JSON-able snapshot: target, per-slot liveness, restart counters."""
        now = time.monotonic()
        with self._lock:
            workers = []
            for slot in self._slots:
                alive = slot.process is not None and slot.process.poll() is None
                workers.append(
                    {
                        "slot": slot.index,
                        "pid": slot.process.pid if alive else None,
                        "alive": alive,
                        "listen_address": slot.listen_address,
                        "restarts": slot.restarts,
                        "uptime_seconds": (
                            round(now - slot.started_at, 3)
                            if alive and slot.started_at is not None
                            else 0.0
                        ),
                        "last_exit_code": slot.last_exit_code,
                    },
                )
            return {
                "target": self._target,
                "mode": "listen" if self._listen_base is not None else "connect",
                "alive": sum(1 for worker in workers if worker["alive"]),
                "restarts_total": sum(worker["restarts"] for worker in workers),
                "authenticated": self._key is not None,
                "workers": workers,
                "uptime_seconds": (
                    round(now - self.started_at, 3) if self.started_at is not None else 0.0
                ),
            }

    def wait_for_alive(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers are alive (tests and smoke scripts)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.status()["alive"] >= count:
                return
            time.sleep(0.05)
        raise EngineError(f"supervisor did not reach {count} live workers in {timeout:.0f} s")

    def serve_status(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Expose :meth:`status` as JSON on ``GET /status`` (stdlib HTTP).

        Returns the bound ``(host, port)``; port 0 picks an ephemeral one.
        The endpoint is an operational read-only peephole (health checks,
        the CI smoke), not the service API — ``/v1/stats`` is that.
        """
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        if self._status_server is not None:
            raise EngineError("the status endpoint is already serving")
        supervisor = self

        class _StatusHandler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler spelling
                if self.path.split("?", 1)[0] not in ("/status", "/"):
                    self.send_error(404)
                    return
                body = json.dumps(supervisor.status(), indent=2).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # quiet by default
                pass

        server = ThreadingHTTPServer((host, port), _StatusHandler)
        server.daemon_threads = True
        self._status_server = server
        thread = threading.Thread(
            target=server.serve_forever,
            name="genlogic-supervisor-status",
            daemon=True,
        )
        thread.start()
        return server.server_address[:2]


class WorkerProcess:
    """A forked worker process, driven like a :class:`subprocess.Popen`.

    ``pid``, ``returncode``, ``poll()``, ``wait(timeout)`` (raising
    :class:`subprocess.TimeoutExpired`), ``terminate()`` and ``kill()`` mean
    what they mean on ``Popen``, and the child is reaped through
    :func:`os.waitpid`.  All methods are thread-safe.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode: Optional[int] = None
        self._reap_lock = threading.Lock()

    def poll(self) -> Optional[int]:
        """The exit code (``-N`` for signal N) once the child has exited, else ``None``."""
        with self._reap_lock:
            if self.returncode is None:
                try:
                    pid, status = os.waitpid(self.pid, os.WNOHANG)
                except ChildProcessError:  # reaped elsewhere: its status is lost
                    pid, status = self.pid, 0
                if pid == self.pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        """Wait for the child to exit and reap it; returns its exit code."""
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.001
        while self.poll() is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"worker process {self.pid}", timeout)
            time.sleep(delay)
            delay = min(2 * delay, 0.05)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        """Send ``signum`` unless the child has been reaped (its pid may be reused)."""
        with self._reap_lock:
            if self.returncode is None:
                os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def spawn_worker_process(
    connect: Optional[str] = None,
    *,
    listen: Optional[str] = None,
    key: Optional[bytes] = None,
) -> WorkerProcess:
    """Fork a local worker (dial-out or listening) from this process.

    The child starts as a copy of this process, with its ``sys.path`` and
    every module it has imported (numpy, the engine, test modules), so it
    can run whatever this process can and pays no interpreter start-up.  It
    never returns into its caller: :func:`_run_forked_worker` resets what it
    inherited, runs :func:`~repro.engine.worker.run_worker` with ``key`` as
    an argument and leaves through :func:`os._exit`.  Machines without a
    coordinator to fork from start the same ``run_worker`` as ``genlogic
    worker`` and must have the dispatched functions importable themselves.
    """
    if (connect is None) == (listen is None):
        raise EngineError("spawn_worker_process needs exactly one of connect= or listen=")
    pid = os.fork()
    if pid == 0:
        _run_forked_worker(connect, listen, key)
    return WorkerProcess(pid)


def _run_forked_worker(connect: Optional[str], listen: Optional[str], key: Optional[bytes]) -> NoReturn:
    """The forked child: reset what it inherited, serve, and exit.

    The parent may have had other threads at the fork, holding locks whose
    owners do not exist here, so the child touches no lock created before
    the fork: it makes its own stdio objects (line-buffered, so nothing is
    left to flush at ``os._exit``) and compiled-model cache.
    """
    code = 1
    try:
        reset_worker_signals()
        # The coordinator's sockets, its event loop's descriptors, a test
        # runner's capture files: none of them is the worker's.
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        # The parent's objects are never collected here, so no finalizer of
        # one (a socket closing a descriptor number since reused) runs.
        gc.freeze()
        for name, fd in (("stdout", 1), ("stderr", 2)):
            try:
                setattr(sys, name, open(fd, "w", buffering=1, errors="backslashreplace", closefd=False))
            except OSError:  # not open in the parent either
                setattr(sys, name, None)
        from . import cache

        cache._WORKER_CACHE = cache.CompiledModelCache()
        from .worker import run_worker

        if key is None:
            # Unkeyed like the supervisor that forked it, whatever the
            # environment says now.
            os.environ.pop(KEY_ENV, None)
        run_worker(connect, listen, key=key)
        code = 0
    except (EngineError, OSError) as error:
        print(f"genlogic worker: {error}", file=sys.stderr)
        code = 2
    except BaseException:  # Ctrl-C included: report it, exit, never unwind
        traceback.print_exc()
    finally:
        os._exit(code)


def _terminate(processes: List[WorkerProcess]) -> None:
    """Terminate (then kill) worker processes, reaping every one."""
    for process in processes:
        if process.poll() is None:
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
    for process in processes:
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            process.kill()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
