"""Socket-based multi-host transport for the ensemble engine.

:class:`DistributedEnsembleExecutor` runs ensemble batches on worker
*processes that may live on other machines*, speaking a length-prefixed
pickle protocol over TCP to ``genlogic worker`` processes.  It is a thin
adapter over the engine's shared submission core — the same
:class:`~repro.engine.core.BaseEnsembleExecutor` surface, the same windowed
submission loop, the same declarative payload envelope (model blob keyed on a
content fingerprint, generated propensity-kernel artifact per ``(model,
overrides)`` pair) and therefore the same worker-side fingerprint seen-set
and warm-cache discipline as the process pool — so every study that accepts
``executor=`` shards across machines with no study-code changes, and results
are bit-identical to the serial executor because seeds are fanned out before
dispatch.

Two ways to assemble a fabric (the wire protocol is identical once a
connection is up; the worker always speaks first with a ``hello`` frame):

* **coordinator listens** (``listen="host:port"``): workers dial in with
  ``genlogic worker --connect host:port``.  New workers may join mid-batch —
  capacity grows and the submission window widens on the next scheduling
  round — which is also how a lost worker's replacement re-enters the fabric.
* **coordinator dials** (``connect=["host:port", ...]``): workers were
  started with ``genlogic worker --listen host:port`` and the executor
  connects out to each — the shape behind the CLI's ``--dispatch`` flag.

Fault tolerance: every dispatched task is tracked per connection; when a
worker is lost (socket error, process death) its in-flight tasks are requeued
at the front of the dispatch queue and rerun on surviving or newly joined
workers — safe because payloads are deterministic pure functions of their
pre-fanned-out seeds.  A task that keeps killing workers fails after
``MAX_TASK_ATTEMPTS`` dispatches instead of cycling forever, and a
coordinator left with no workers and no way to get one fails the batch with
:class:`WorkerConnectionError` rather than hanging.

Wire format: each frame is a 4-byte big-endian length followed by a pickled
message dict — see :func:`send_message` / :func:`recv_message`, shared
verbatim by :mod:`repro.engine.worker`.  Batches (``batch_size=B``) ride
the same frames: a B-replicate result crosses the socket as one compact
binary trajectory frame (raw little-endian float64 blocks plus a species
table encoded once per batch, :func:`repro.stochastic.encode_trajectories`)
inside the result message, instead of B pickled ``Trajectory`` objects.

Liveness: the coordinator pings every link on a configurable
``heartbeat_interval`` and retires any worker not heard from within
``heartbeat_timeout`` — so a *hung* worker (process alive, socket open,
nothing moving) is detected in seconds, its in-flight tasks requeued on
survivors, without waiting for TCP keepalive to give up.  All retry loops
(dialing, re-dialing a lost fabric, the supervisor's restarts) share the
capped exponential backoff policy in :mod:`repro.engine.backoff`.

.. warning:: **Trust model.**  The protocol is pickle over TCP: whoever
   completes a connection gets its frames unpickled — code execution — on
   the worker *and* the coordinator side alike.  Protocol 2 therefore gates
   every connection behind the mutual HMAC-SHA256 challenge–response in
   :mod:`repro.engine.auth`: with a shared secret configured (env
   ``GENLOGIC_FABRIC_KEY``, ``--key-file``, or ``key=`` in code) an
   unauthenticated or wrong-key peer is rejected *before any byte it sent
   is unpickled*, and ``genlogic serve`` may bind a non-loopback address.
   Without a key the fabric runs in the explicit trusted-network mode:
   same preamble, no proof — keep it on loopback, a private interface, or
   an authenticated tunnel (SSH/WireGuard/VPN).  The handshake
   authenticates but does not encrypt; confidential traffic still needs
   the tunnel.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import EngineError
from .auth import (
    KEY_ENV,
    ROLE_COORDINATOR,
    ROLE_WORKER,
    ProtocolError,
    handshake,
    resolve_key,
)
from .backoff import Backoff, BackoffPolicy
from .core import BaseEnsembleExecutor, BatchCacheStats

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_CAP_ENV",
    "RemoteWorkerError",
    "WorkerConnectionError",
    "DistributedEnsembleExecutor",
    "parse_address",
    "parse_dispatch_spec",
    "send_message",
    "recv_message",
    "spawn_worker_process",
]

#: Bumped on incompatible wire changes.  2 = the authenticated preamble
#: handshake (:mod:`repro.engine.auth`) runs before any pickled frame, and
#: ping/pong heartbeat frames exist.  v1 and v2 endpoints reject each other
#: cleanly at the preamble — upgrade coordinators and workers together.
PROTOCOL_VERSION = 2

#: Frames carry a 4-byte unsigned length; anything larger is a protocol error.
_MAX_FRAME_BYTES = (1 << 32) - 1

#: Default per-frame receive cap.  A corrupt length prefix can claim up to
#: 4 GiB; refusing anything above this *before allocating* turns a flipped
#: bit into a clean :class:`ProtocolError` instead of an allocation bomb.
#: Raise via ``max_frame_bytes=`` or the env var below for enormous models.
DEFAULT_MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Environment override for the receive cap (bytes), honoured by both ends.
FRAME_CAP_ENV = "GENLOGIC_MAX_FRAME_BYTES"

#: A task is dispatched at most this many times (first try + requeues after
#: worker loss) before its future fails instead of hunting for a next victim.
MAX_TASK_ATTEMPTS = 3

#: Coordinator → worker ping cadence (seconds); the dead-worker timeout
#: defaults to four missed intervals.
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Re-dial schedule after losing dial-mode workers: capped low so a fabric
#: inside its ``regrow_timeout`` window probes briskly, jittered so a fleet
#: of coordinators does not stampede a restarting worker.
REDIAL_BACKOFF = BackoffPolicy(initial=0.05, multiplier=2.0, maximum=1.0, jitter=0.5)


def frame_cap(max_bytes: Optional[int] = None) -> int:
    """The effective receive cap: explicit value, else env, else the default."""
    if max_bytes is not None:
        return min(int(max_bytes), _MAX_FRAME_BYTES)
    env_value = os.environ.get(FRAME_CAP_ENV)
    if env_value:
        try:
            return min(int(env_value), _MAX_FRAME_BYTES)
        except ValueError:
            raise EngineError(f"{FRAME_CAP_ENV}={env_value!r} is not an integer") from None
    return DEFAULT_MAX_FRAME_BYTES


class RemoteWorkerError(EngineError):
    """A shipped task raised on the worker; carries the remote traceback text."""


class WorkerConnectionError(EngineError):
    """The coordinator lost (or never had) the workers a batch needs."""


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (host defaults to all interfaces)."""
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise EngineError(f"worker address {address!r} is not of the form host:port")
    return host or "0.0.0.0", int(port)


def parse_dispatch_spec(spec: str) -> List[str]:
    """Split a CLI ``--dispatch host:port,host:port`` spec, validating each."""
    addresses = [entry.strip() for entry in spec.split(",") if entry.strip()]
    if not addresses:
        raise EngineError("--dispatch needs at least one host:port worker address")
    for address in addresses:
        parse_address(address)
    return addresses


# -- framing (shared with repro.engine.worker) --------------------------------------


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed pickled frame."""
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > _MAX_FRAME_BYTES:
        raise EngineError(f"protocol frame of {len(data)} bytes exceeds the 4 GiB limit")
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket, *, max_bytes: Optional[int] = None) -> Dict[str, Any]:
    """Read one length-prefixed pickled frame (raises ConnectionError on EOF).

    The length prefix is validated against :func:`frame_cap` *before* any
    allocation, and an undecodable body raises :class:`ProtocolError` rather
    than a raw unpickling crash — a corrupted or hostile frame retires the
    connection cleanly instead of taking the process down with it.
    """
    header = sock.recv(4)
    if not header:
        raise ConnectionError("peer closed the connection")
    if len(header) < 4:
        header += _recv_exact(sock, 4 - len(header))
    (length,) = struct.unpack(">I", header)
    cap = frame_cap(max_bytes)
    if length > cap:
        raise ProtocolError(
            f"frame length prefix claims {length} bytes, above the {cap}-byte "
            f"cap (corrupt prefix, or raise {FRAME_CAP_ENV}); refusing to "
            "allocate",
        )
    body = _recv_exact(sock, length)
    try:
        message = pickle.loads(body)
    except Exception as error:
        raise ProtocolError(f"undecodable protocol frame ({error!r})") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol frame decoded to {type(message).__name__}, expected a message dict",
        )
    return message


# -- coordinator-side task bookkeeping ----------------------------------------------


class _Task:
    """One submitted call: its future plus dispatch bookkeeping."""

    __slots__ = ("task_id", "fn", "payload", "future", "attempts")

    def __init__(self, task_id: int, fn: Callable[[Any], Any], payload: Any):
        self.task_id = task_id
        self.fn = fn
        self.payload = payload
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.attempts = 0


class _WorkerLink:
    """One connected worker: socket, capacity, in-flight tasks, health counters."""

    def __init__(self, link_id: int, sock: socket.socket, capacity: int, peer: str):
        self.link_id = link_id
        self.sock = sock
        self.capacity = max(1, int(capacity))
        self.peer = peer
        self.in_flight: Dict[int, _Task] = {}
        self.send_lock = threading.Lock()
        self.alive = True
        now = time.monotonic()
        self.connected_at = now
        #: Last time ANY frame arrived from this worker (results count as
        #: liveness just as much as pongs — a busy worker is not a dead one).
        self.last_heard = now
        self.dispatched = 0
        self.completed = 0
        self.requeued = 0

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.in_flight)

    def health(self) -> Dict[str, Any]:
        now = time.monotonic()
        uptime = max(now - self.connected_at, 1e-9)
        return {
            "peer": self.peer,
            "capacity": self.capacity,
            "in_flight": len(self.in_flight),
            "dispatched": self.dispatched,
            "completed": self.completed,
            "requeued": self.requeued,
            "uptime_seconds": round(now - self.connected_at, 3),
            "tasks_per_second": round(self.completed / uptime, 4),
            "seconds_since_heard": round(now - self.last_heard, 3),
        }


class DistributedEnsembleExecutor(BaseEnsembleExecutor):
    """Run ensemble jobs on ``genlogic worker`` processes over TCP.

    Exactly one of ``connect`` (dial out to listening workers) or ``listen``
    (bind and accept dialing workers; block in :meth:`open` until
    ``min_workers`` have joined) must be given.  The executor then behaves
    like any other engine executor: a context manager with a persistent
    transport, ``iter_jobs`` / ``run_jobs`` / ``map`` inherited from the
    shared core, per-batch :class:`BatchCacheStats`, and submission-order
    result delivery bit-identical to the serial executor for the same seeds.
    Worker processes keep their fingerprint-keyed model and kernel caches
    across batches exactly like pool workers, so a closed-and-reopened batch
    on the same fabric starts warm.

    ``close()`` cancels queued work, asks each worker to shut down (dial-in
    workers exit; ``--listen`` workers go back to accepting the next
    coordinator) and releases the sockets; like the pool executor, the next
    use transparently re-opens the fabric.
    """

    name = "distributed"

    def __init__(
        self,
        connect: Optional[Sequence[str]] = None,
        *,
        listen: Optional[str] = None,
        min_workers: Optional[int] = None,
        connect_timeout: float = 30.0,
        regrow_timeout: Optional[float] = None,
        key: Optional[Any] = None,
        key_file: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: Optional[float] = None,
        max_frame_bytes: Optional[int] = None,
    ):
        if (connect is None) == (listen is None):
            raise EngineError(
                "DistributedEnsembleExecutor needs exactly one of connect=[...] "
                "(dial listening workers) or listen='host:port' (accept dialing "
                "workers)",
            )
        self._addresses = [str(address) for address in connect] if connect else []
        for address in self._addresses:
            parse_address(address)
        self._listen_address = listen
        if listen is not None:
            parse_address(listen)
        self._min_workers = (
            int(min_workers) if min_workers is not None else max(1, len(self._addresses))
        )
        if self._min_workers < 1:
            raise EngineError("a distributed executor needs at least one worker")
        self.connect_timeout = float(connect_timeout)
        #: How long a workerless fabric may wait for a replacement to join
        #: before failing the queued batch (defaults to ``connect_timeout``).
        self.regrow_timeout = (
            float(regrow_timeout) if regrow_timeout is not None else self.connect_timeout
        )
        #: Shared fabric secret (``None`` = explicit trusted-network mode).
        self._key = resolve_key(key, key_file)
        self.heartbeat_interval = float(heartbeat_interval)
        if self.heartbeat_interval <= 0:
            raise EngineError("heartbeat_interval must be positive")
        #: A worker silent this long is declared dead and its tasks requeued.
        self.heartbeat_timeout = (
            float(heartbeat_timeout)
            if heartbeat_timeout is not None
            else 4.0 * self.heartbeat_interval
        )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise EngineError("heartbeat_timeout must exceed heartbeat_interval")
        self.max_frame_bytes = frame_cap(max_frame_bytes)
        self._requeues_total = 0
        self._links_dropped = 0
        self._tasks_completed = 0
        self.last_cache_hits = 0
        self.last_cache_misses = 0
        self._lifecycle_lock = threading.Lock()
        self._state = threading.Condition()
        self._open = False
        self._queue: Deque[_Task] = deque()
        self._links: List[_WorkerLink] = []
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._task_ids = itertools.count()
        self._link_ids = itertools.count()
        #: The address actually bound in listen mode (real port for ":0").
        self.bound_address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def workers(self) -> int:
        """Workers connected right now (``min_workers`` while none are).

        Live, not the configured floor: a listening fabric that eight workers
        joined reports eight in :class:`EnsembleStats`, and loses them again
        as they leave.
        """
        with self._state:
            live = len(self._links)
        return live or self._min_workers

    @property
    def capacity(self) -> int:
        """Live parallel slots across every connected worker.

        Never reports zero: while the fabric is (re)assembling, the nominal
        worker count keeps the submission window open so tasks queue instead
        of stalling submission.
        """
        with self._state:
            live = sum(link.capacity for link in self._links if link.alive)
        return live or max(1, self._min_workers)

    @property
    def authenticated(self) -> bool:
        """Whether connections run the keyed HMAC handshake."""
        return self._key is not None

    def health(self) -> Dict[str, Any]:
        """A point-in-time fabric health snapshot (plain JSON-able types).

        The supervisor's status endpoint and the service's ``/v1/stats``
        surface this as their backpressure signal: per-worker throughput and
        staleness, queue depth, and cumulative requeue/drop counters.
        """
        with self._state:
            workers = [link.health() for link in self._links if link.alive]
            queue_depth = len(self._queue)
        return {
            "protocol_version": PROTOCOL_VERSION,
            "authenticated": self.authenticated,
            "open": self._open,
            "workers": workers,
            "queue_depth": queue_depth,
            "tasks_completed": self._tasks_completed,
            "tasks_requeued": self._requeues_total,
            "links_dropped": self._links_dropped,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
        }

    def open(self) -> "DistributedEnsembleExecutor":
        """Assemble the worker fabric now (otherwise on first use).

        Dial mode connects to every configured address; listen mode binds,
        starts accepting, and blocks until ``min_workers`` workers have said
        hello (``WorkerConnectionError`` after ``connect_timeout`` seconds).
        """
        with self._lifecycle_lock:
            if self._open:
                return self
            self._queue.clear()
            self._links = []
            self._open = True
            try:
                self._assemble()
                self._start_thread(self._dispatch_loop, "genlogic-dispatch")
                self._start_thread(self._heartbeat_loop, "genlogic-heartbeat")
                self._await_assembled()
            except Exception:
                self._teardown()
                raise
        return self

    def _assemble(self) -> None:
        """Start acquiring workers (subclass hook; runs before the dispatcher)."""
        if self._listen_address is not None:
            self._start_listening()
        else:
            for address in self._addresses:
                self._dial(address)

    def _await_assembled(self) -> None:
        """Block until the fabric is usable (runs after the dispatcher starts)."""
        if self._listen_address is not None:
            self._await_min_workers()

    def close(self) -> None:
        """Tear the fabric down.  Idempotent; next use re-opens it."""
        with self._lifecycle_lock:
            self._teardown()

    def _teardown(self) -> None:
        with self._state:
            self._open = False
            queued, self._queue = list(self._queue), deque()
            links, self._links = list(self._links), []
            in_flight: List[_Task] = []
            for link in links:
                # Mark dead under the lock so reader threads' _drop_link
                # becomes a no-op and cannot requeue into the dead queue.
                link.alive = False
                in_flight.extend(link.in_flight.values())
                link.in_flight.clear()
            self._state.notify_all()
        for task in queued + in_flight:
            # Every outstanding future must settle: a caller blocked in
            # wait_any on a task we will never hear back about would
            # otherwise hang forever.
            if not task.future.cancel() and not task.future.done():
                task.future.set_exception(
                    WorkerConnectionError(
                        "the distributed executor was closed with this task "
                        "still in flight",
                    ),
                )
        server, self._server = self._server, None
        if server is not None:
            _close_quietly(server)
        for link in links:
            try:
                with link.send_lock:
                    send_message(link.sock, {"type": "shutdown"})
            except OSError:
                pass
            _close_quietly(link.sock)
        threads, self._threads = self._threads, []
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)

    def __del__(self):  # pragma: no cover - GC safety net
        if getattr(self, "_open", False):
            try:
                self.close()
            except Exception:
                pass

    # -- fabric assembly -----------------------------------------------------------
    def _start_thread(self, target, name: str, *args) -> None:
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def _start_listening(self) -> None:
        host, port = parse_address(self._listen_address)
        server = socket.create_server((host, port))
        server.settimeout(0.2)
        self._server = server
        self.bound_address = server.getsockname()[:2]
        self._start_thread(self._accept_loop, "genlogic-accept", server)

    def _accept_loop(self, server: socket.socket) -> None:
        while self._open:
            try:
                sock, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self._adopt(sock)
            except (OSError, ConnectionError, EngineError):
                _close_quietly(sock)

    def _dial(self, address: str) -> None:
        host, port = parse_address(address)
        deadline = time.monotonic() + self.connect_timeout
        backoff = Backoff(REDIAL_BACKOFF)
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=self.connect_timeout)
                break
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise WorkerConnectionError(
                        f"could not reach worker at {address} within "
                        f"{self.connect_timeout:.0f} s: {error}",
                    ) from error
                time.sleep(backoff.next_delay())
        self._adopt(sock)

    def _adopt(self, sock: socket.socket) -> None:
        """Authenticate a fresh worker socket and add it to the fabric.

        The :mod:`repro.engine.auth` handshake runs first — an
        unauthenticated, wrong-key, or protocol-1 peer is rejected here,
        before :func:`recv_message` ever unpickles a frame it sent.
        """
        sock.settimeout(self.connect_timeout)
        handshake(sock, self._key, role=ROLE_COORDINATOR, peer_role=ROLE_WORKER)
        hello = recv_message(sock, max_bytes=self.max_frame_bytes)
        if hello.get("type") != "hello":
            raise ProtocolError(f"expected a hello frame, got {hello.get('type')!r}")
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"worker speaks protocol {hello.get('version')!r}, "
                f"coordinator speaks {PROTOCOL_VERSION}",
            )
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - transport nicety only
            pass
        peer_host, peer_port = sock.getpeername()[:2]
        peer = f"{peer_host}:{peer_port}"
        link = _WorkerLink(next(self._link_ids), sock, hello.get("capacity", 1), peer)
        with self._state:
            self._links.append(link)
            self._state.notify_all()
        self._start_thread(self._reader_loop, f"genlogic-read-{link.link_id}", link)

    def _await_min_workers(self) -> None:
        deadline = time.monotonic() + self.connect_timeout
        with self._state:
            while len(self._links) < self._min_workers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerConnectionError(
                        f"only {len(self._links)} of {self._min_workers} workers "
                        f"connected within {self.connect_timeout:.0f} s",
                    )
                self._state.wait(timeout=min(remaining, 0.2))

    # -- dispatch ------------------------------------------------------------------
    def submit(self, fn, payload) -> concurrent.futures.Future:
        task = _Task(next(self._task_ids), fn, payload)
        with self._state:
            if not self._open:
                raise EngineError("this distributed executor is closed")
            self._queue.append(task)
            self._state.notify_all()
        return task.future

    # wait_any: the base's first-completion wait (reader threads resolve the
    # futures as result frames arrive).

    def _record_last_stats(self, stats: BatchCacheStats) -> None:
        self.last_cache_hits = stats.hits
        self.last_cache_misses = stats.misses

    def _dispatch_loop(self) -> None:
        """Move queued tasks onto workers with free slots (single scheduler)."""
        workerless_since: Optional[float] = None
        redial_backoff = Backoff(REDIAL_BACKOFF)
        while True:
            task: Optional[_Task] = None
            link: Optional[_WorkerLink] = None
            redial = False
            with self._state:
                while self._open:
                    if self._queue and not self._links:
                        # A workerless fabric gets ``regrow_timeout`` seconds
                        # for a replacement to join (on its own in listen
                        # mode; via re-dial in connect mode) before the
                        # queued batch fails instead of hanging forever.
                        now = time.monotonic()
                        if workerless_since is None:
                            workerless_since = now
                        if now - workerless_since > self.regrow_timeout:
                            self._fail_everything_locked(
                                WorkerConnectionError(
                                    "no workers joined within "
                                    f"{self.regrow_timeout:.0f} s of losing the "
                                    "last one; failing the queued batch",
                                ),
                            )
                            workerless_since = None
                            continue
                        if self._listen_address is None:
                            # Blocking connect + hello handshake must happen
                            # OUTSIDE the lock: submit(), capacity reads and
                            # reader threads all contend on _state.
                            redial = True
                            break
                    elif self._links:
                        workerless_since = None
                        redial_backoff.reset()
                    if self._queue:
                        link = self._pick_link()
                        if link is not None:
                            task = self._queue.popleft()
                            if task.future.cancelled():
                                task = None
                                continue
                            task.attempts += 1
                            link.in_flight[task.task_id] = task
                            break
                    self._state.wait(timeout=0.2)
                if not self._open:
                    return
            if redial:
                if self._try_regrow():
                    redial_backoff.reset()
                else:
                    # Capped exponential + jitter (shared policy with the
                    # supervisor's restarts): probe briskly right after the
                    # loss, back off while the outage lasts, never sleep past
                    # the cap so ``regrow_timeout`` expiry stays prompt.
                    time.sleep(redial_backoff.next_delay())
            elif task is not None:
                self._send_task(link, task)

    def _pick_link(self) -> Optional[_WorkerLink]:
        """The live worker with the most free slots (None when all are full)."""
        best = None
        for link in self._links:
            if link.alive and link.free_slots > 0:
                if best is None or link.free_slots > best.free_slots:
                    best = link
        return best

    def _try_regrow(self) -> bool:
        """Re-dial the configured addresses, looking for a restarted worker.

        Dial mode only (a listening fabric regrows through its acceptor);
        called by the dispatcher WITHOUT ``_state`` held, because connects
        and the hello handshake block.  Returns whether a worker was adopted.
        """
        for address in self._addresses:
            try:
                host, port = parse_address(address)
                sock = socket.create_connection((host, port), timeout=1.0)
            except OSError:
                continue
            try:
                self._adopt(sock)
                return True
            except (OSError, ConnectionError, EngineError):
                _close_quietly(sock)
        return False

    def _send_task(self, link: _WorkerLink, task: _Task) -> None:
        # The call travels as a nested pickle: the outer frame stays decodable
        # (plain types only) even when fn/payload cannot be unpickled on the
        # worker, so the worker reports a per-task failure instead of dying.
        try:
            call = pickle.dumps((task.fn, task.payload), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            with self._state:
                link.in_flight.pop(task.task_id, None)
                self._state.notify_all()
            if not task.future.cancelled():
                task.future.set_exception(error)
            return
        message = {"type": "job", "id": task.task_id, "call": call}
        try:
            with link.send_lock:
                send_message(link.sock, message)
            with self._state:
                link.dispatched += 1
        except (OSError, ConnectionError):
            self._drop_link(link, reason="send failed")
        except Exception as error:
            # The task itself is unshippable (e.g. an unpicklable payload):
            # that is the caller's error, not the worker's.
            with self._state:
                link.in_flight.pop(task.task_id, None)
                self._state.notify_all()
            if not task.future.cancelled():
                task.future.set_exception(error)

    def _heartbeat_loop(self) -> None:
        """Ping every link on the heartbeat cadence; retire the silent ones.

        Liveness is judged on ``last_heard`` (any frame counts), so a worker
        busy computing stays alive as long as its reader thread answers
        pings — only a truly wedged or blackholed peer goes stale.  Dropping
        here (not in the reader) is the point: a half-open TCP connection
        delivers no error for minutes, but it does go silent.
        """
        next_ping = time.monotonic()
        while True:
            with self._state:
                if not self._open:
                    return
                stale = [
                    link
                    for link in self._links
                    if time.monotonic() - link.last_heard > self.heartbeat_timeout
                ]
                targets = [link for link in self._links if link not in stale]
            for link in stale:
                self._drop_link(link, reason="heartbeat timeout")
            now = time.monotonic()
            if now >= next_ping:
                next_ping = now + self.heartbeat_interval
                for link in targets:
                    try:
                        with link.send_lock:
                            send_message(link.sock, {"type": "ping", "t": now})
                    except (OSError, ConnectionError):
                        self._drop_link(link, reason="ping send failed")
            # Short sleeps keep both close() responsive and stale detection
            # fine-grained even with second-scale heartbeat intervals.
            time.sleep(min(0.2, self.heartbeat_interval / 4.0))

    def _reader_loop(self, link: _WorkerLink) -> None:
        while True:
            try:
                message = recv_message(link.sock, max_bytes=self.max_frame_bytes)
            except Exception:
                # EOF, socket error, or an undecodable frame: either way this
                # link is no longer trustworthy — drop it and requeue its work.
                self._drop_link(link, reason="connection lost")
                return
            link.last_heard = time.monotonic()
            if message.get("type") != "result":
                continue  # pongs (and unknown frame types) only refresh liveness
            with self._state:
                task = link.in_flight.pop(message["id"], None)
                link.completed += 1
                self._tasks_completed += 1
                self._state.notify_all()
            if task is None or task.future.cancelled():
                continue
            if message.get("ok"):
                task.future.set_result(message["value"])
            else:
                task.future.set_exception(_remote_error(message))

    def _drop_link(self, link: _WorkerLink, *, reason: str = "connection lost") -> None:
        """Remove a dead worker and requeue its in-flight tasks (front first)."""
        with self._state:
            if not link.alive:
                return
            link.alive = False
            if link in self._links:
                self._links.remove(link)
            self._links_dropped += 1
            orphans = [link.in_flight.pop(task_id) for task_id in sorted(link.in_flight)]
            for task in reversed(orphans):
                if task.future.cancelled():
                    continue
                if not self._open:
                    # Tearing down: settle the future instead of requeueing
                    # into a queue nobody will drain.
                    task.future.cancel()
                elif task.attempts >= MAX_TASK_ATTEMPTS:
                    task.future.set_exception(
                        WorkerConnectionError(
                            f"task failed {task.attempts} workers (last: "
                            f"{link.peer}, {reason}); giving up instead of "
                            "requeueing",
                        ),
                    )
                else:
                    link.requeued += 1
                    self._requeues_total += 1
                    self._queue.appendleft(task)
            self._state.notify_all()
        _close_quietly(link.sock)

    def _fail_everything_locked(self, error: Exception) -> None:
        """Fail every queued task (called with ``_state`` held)."""
        while self._queue:
            task = self._queue.popleft()
            if not task.future.cancelled():
                task.future.set_exception(error)
        self._state.notify_all()

    # -- convenience fabrics ---------------------------------------------------------
    @classmethod
    def loopback(
        cls,
        n_workers: int = 2,
        *,
        capacity: int = 1,
        connect_timeout: float = 60.0,
        key: Optional[Any] = None,
        **kwargs: Any,
    ) -> "DistributedEnsembleExecutor":
        """A self-contained local fabric: listen on an ephemeral loopback port
        and spawn ``n_workers`` ``genlogic worker --connect`` subprocesses.

        The degenerate-but-real deployment used by the conformance tests, the
        distributed benchmark and CI's distributed-smoke job: every byte goes
        through the actual TCP protocol, only the machines are the same.
        ``key=`` threads a shared secret through to both the coordinator and
        the spawned workers (via their environment), so the authenticated
        handshake is exercised end to end.  ``close()`` additionally
        terminates the spawned worker processes.
        """
        executor = _LoopbackExecutor(
            n_workers,
            capacity=capacity,
            connect_timeout=connect_timeout,
            key=key,
            **kwargs,
        )
        return executor


class _LoopbackExecutor(DistributedEnsembleExecutor):
    """Listen-mode executor that owns its spawned local worker subprocesses."""

    def __init__(
        self,
        n_workers: int,
        *,
        capacity: int = 1,
        connect_timeout: float = 60.0,
        key: Optional[Any] = None,
        **kwargs: Any,
    ):
        super().__init__(
            listen="127.0.0.1:0",
            min_workers=n_workers,
            connect_timeout=connect_timeout,
            key=key,
            **kwargs,
        )
        self._spawn_capacity = capacity
        self._processes: List[subprocess.Popen] = []

    def _assemble(self) -> None:
        super()._assemble()
        host, port = self.bound_address
        for _ in range(self._min_workers):
            self._processes.append(
                spawn_worker_process(
                    f"{host}:{port}",
                    capacity=self._spawn_capacity,
                    key=self._key,
                ),
            )

    def _teardown(self) -> None:
        super()._teardown()
        processes, self._processes = self._processes, []
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                process.kill()
                process.wait(timeout=5.0)


def spawn_worker_process(
    connect: Optional[str] = None,
    *,
    listen: Optional[str] = None,
    capacity: int = 1,
    python: Optional[str] = None,
    key: Optional[bytes] = None,
) -> subprocess.Popen:
    """Start a local ``genlogic worker`` subprocess (dial-out or listening).

    Runs ``python -m repro.cli worker`` with the current interpreter and the
    parent's full ``sys.path`` exported as ``PYTHONPATH`` — so a local worker
    can import exactly what the parent can (source checkouts, test modules),
    matching the visibility a forked pool worker would have.  A fabric ``key``
    travels via the child's ``GENLOGIC_FABRIC_KEY`` environment variable (not
    argv, which is world-readable in ``ps``).  Remote machines start the same
    entry point by hand and must have the dispatched functions importable
    themselves.
    """
    if (connect is None) == (listen is None):
        raise EngineError("spawn_worker_process needs exactly one of connect= or listen=")
    command = [
        python or sys.executable,
        "-m",
        "repro.cli",
        "worker",
        "--capacity",
        str(int(capacity)),
    ]
    if connect is not None:
        command += ["--connect", connect]
    else:
        command += ["--listen", listen]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
    if key is not None:
        env[KEY_ENV] = key.decode("utf-8", errors="surrogateescape")
    else:
        env.pop(KEY_ENV, None)
    return subprocess.Popen(command, env=env)


def _remote_error(message: Dict[str, Any]) -> BaseException:
    """Reconstruct a worker-side failure as a raisable exception.

    The nested error pickle is decoded defensively: if the exception's class
    does not exist on this machine, the failure degrades to a
    :class:`RemoteWorkerError` carrying the remote traceback text — per
    task, without poisoning the connection it arrived on.
    """
    blob = message.get("error_pickle")
    if blob is not None:
        try:
            error = pickle.loads(blob)
        except Exception:
            error = None
        if isinstance(error, BaseException):
            return error
    detail = message.get("traceback") or "(no traceback shipped)"
    return RemoteWorkerError(f"worker-side task failure: {detail}")


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close() on a dead socket
        pass
