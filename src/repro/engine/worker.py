"""The ``genlogic worker`` process: one node of a distributed fabric.

A worker is the remote half of
:class:`~repro.engine.distributed.DistributedEnsembleExecutor`: it speaks the
same length-prefixed pickle protocol, executes the same declarative payloads
through the same entry points as a process-pool worker
(:func:`repro.engine.core.simulate_payload` and friends, dispatched by
pickled-by-reference function name), and therefore shares the pool workers'
cache discipline verbatim — the fingerprint-keyed model seen-set, the shipped
propensity-kernel registry and the compiled-model LRU all live in this
process's :mod:`repro.engine.cache` module state and stay warm across batches
and across coordinators.

Two ways to join a fabric:

* ``genlogic worker --connect host:port`` dials a listening coordinator and
  serves it until the coordinator shuts the session down, then exits;
* ``genlogic worker --listen host:port`` binds and serves coordinators one
  after another (each ``--dispatch`` run is one session), which is the shape
  behind the CLI's ``--dispatch host:port,...`` flag.

Protocol (worker side): every connection starts with the mutual handshake of
:mod:`repro.engine.auth` — keyed HMAC challenge–response when a fabric secret
is configured (``GENLOGIC_FABRIC_KEY`` / ``--key-file``), bare preamble
otherwise — so no coordinator frame is unpickled before the peer proved
itself (or the operator explicitly chose trusted-network mode).  The worker
then speaks first with a ``hello`` frame carrying its protocol version and
capacity; afterwards it answers every ``job`` frame with a ``result`` frame
(``ok=True`` plus the return value, or ``ok=False`` plus the pickled
exception and traceback text) and exits the session on a ``shutdown`` frame
or EOF.  A dedicated reader thread answers the coordinator's ``ping`` frames
with ``pong`` *while jobs are computing*, so a busy worker never looks dead
to the heartbeat monitor — only a wedged or unreachable one does.  Batched
payloads (:func:`repro.engine.core.simulate_batch_payload`, dispatched at
``batch_size > 1``) need no protocol change: the worker runs the batch
and the ``result`` frame's value carries the replicates as one compact
binary trajectory frame (``bytes``) instead of per-replicate pickled
``Trajectory`` objects.  Task failures never kill the worker — only
transport failures (and the operator's Ctrl-C) end a session.

.. warning:: The handshake authenticates the peer; the frames themselves are
   still pickle, so an *authenticated* coordinator fully controls this
   process, and nothing is encrypted in transit.  Unkeyed workers execute
   whatever any connected peer sends — only listen unkeyed on trusted,
   isolated networks.  See the trust-model warning in
   :mod:`repro.engine.distributed`.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import sys
import threading
import traceback
from typing import Optional

from ..errors import EngineError
from .auth import ROLE_COORDINATOR, ROLE_WORKER, handshake, resolve_key
from .distributed import (
    PROTOCOL_VERSION,
    RemoteWorkerError,
    parse_address,
    recv_message,
    send_message,
)

__all__ = ["serve_connection", "run_worker"]

#: A coordinator that connects but never completes the handshake is cut off
#: after this many seconds, freeing the worker to serve the next session.
HANDSHAKE_TIMEOUT = 30.0


def _result_frame(task_id: int, value) -> dict:
    return {"type": "result", "id": task_id, "ok": True, "value": value}


def _error_frame(task_id: int, error: BaseException) -> dict:
    """A failure frame whose exception survives the trip back if it can.

    The exception travels as a *nested* pickle so the outer frame stays
    decodable even when the exception's class is not importable on the
    coordinator (e.g. a worker-only dependency): the coordinator then falls
    back to a :class:`RemoteWorkerError` carrying the traceback text for
    that one task, instead of treating the whole connection as broken.
    """
    detail = "".join(traceback.format_exception(type(error), error, error.__traceback__))
    try:
        shipped: Optional[bytes] = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        shipped = None
    return {
        "type": "result",
        "id": task_id,
        "ok": False,
        "error_pickle": shipped,
        "traceback": detail,
    }


def serve_connection(
    sock: socket.socket,
    *,
    capacity: int = 1,
    key: Optional[bytes] = None,
) -> int:
    """Serve one coordinator session on an established socket.

    Runs the authentication handshake, sends the hello frame, then executes
    job frames **sequentially** until a shutdown frame or EOF, while a reader
    thread keeps draining the socket so heartbeat pings are answered even
    mid-computation.  ``capacity`` is the pipelining depth advertised to the
    coordinator — how many jobs it may keep in flight on this socket so the
    next one is already queued when the current one finishes.  It is *not*
    worker-side parallelism: run one worker process per core for that.
    Returns the number of jobs executed.  The caller owns the socket (and
    closes it).
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - transport nicety only
        pass
    sock.settimeout(HANDSHAKE_TIMEOUT)
    handshake(sock, key, role=ROLE_WORKER, peer_role=ROLE_COORDINATOR)
    sock.settimeout(None)
    send_lock = threading.Lock()
    with send_lock:
        send_message(
            sock,
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "capacity": max(1, int(capacity)),
                "pid": os.getpid(),
            },
        )
    # The reader thread owns the receiving half: it answers pings on the spot
    # (the whole point — liveness must not wait for the current job) and
    # feeds jobs to the sequential executor below; ``None`` means "session
    # over" (shutdown frame, EOF, or a transport error).
    jobs: "queue.Queue[Optional[dict]]" = queue.Queue()

    def _reader() -> None:
        while True:
            try:
                message = recv_message(sock)
            except Exception:
                jobs.put(None)
                return
            kind = message.get("type")
            if kind == "ping":
                try:
                    with send_lock:
                        send_message(sock, {"type": "pong", "t": message.get("t")})
                except Exception:
                    jobs.put(None)
                    return
            elif kind == "shutdown":
                jobs.put(None)
                return
            elif kind == "job":
                jobs.put(message)
            # Unknown frame types are ignored for forward compatibility.

    reader = threading.Thread(target=_reader, name="genlogic-worker-read", daemon=True)
    reader.start()
    executed = 0
    while True:
        message = jobs.get()
        if message is None:
            return executed
        task_id = message.get("id")
        try:
            # The nested call pickle may fail to decode here (e.g. the
            # dispatched function is not importable on this machine); that is
            # a per-task failure to report, not a reason to die.  Exceptions
            # only: an operator's Ctrl-C (KeyboardInterrupt) or a SystemExit
            # must stop THIS worker, not travel to the coordinator as a task
            # failure while the worker keeps serving.
            fn, payload = pickle.loads(message["call"])
            result = fn(payload)
            frame = _result_frame(task_id, result)
        except Exception as error:
            frame = _error_frame(task_id, error)
        try:
            with send_lock:
                send_message(sock, frame)
        except (ConnectionError, OSError):
            return executed
        except Exception as error:
            # An unpicklable / oversized *result* must not kill the session:
            # report the shipping failure for this task and keep serving.
            try:
                with send_lock:
                    send_message(
                        sock,
                        _error_frame(
                            task_id,
                            RemoteWorkerError(f"result could not be shipped back: {error!r}"),
                        ),
                    )
            except (ConnectionError, OSError):
                return executed
        executed += 1


def run_worker(
    connect: Optional[str] = None,
    listen: Optional[str] = None,
    *,
    capacity: int = 1,
    max_sessions: Optional[int] = None,
    on_ready=None,
    key: Optional[bytes] = None,
    key_file: Optional[str] = None,
) -> int:
    """Worker main loop (the ``genlogic worker`` subcommand body).

    ``connect`` dials a listening coordinator and serves that one session.
    ``listen`` binds and serves coordinator sessions back to back —
    ``max_sessions`` bounds how many (mostly for tests); ``on_ready`` (if
    given) is called with the bound ``(host, port)`` once accepting, so
    embedding callers can synchronize instead of polling.  The fabric secret
    comes from ``key`` / ``key_file`` or falls back to the
    ``GENLOGIC_FABRIC_KEY`` environment (:func:`repro.engine.auth.resolve_key`).
    In listen mode a peer that fails the handshake is turned away with a
    warning and the worker keeps serving; in connect mode the failure is
    fatal (the one coordinator we were told to trust is not trustworthy).
    Returns the total number of jobs executed.
    """
    if (connect is None) == (listen is None):
        raise EngineError("worker needs exactly one of --connect or --listen")
    secret = resolve_key(key, key_file)
    if connect is not None:
        host, port = parse_address(connect)
        with socket.create_connection((host, port)) as sock:
            return serve_connection(sock, capacity=capacity, key=secret)
    host, port = parse_address(listen)
    executed = 0
    sessions = 0
    with socket.create_server((host, port)) as server:
        if on_ready is not None:
            on_ready(server.getsockname()[:2])
        while max_sessions is None or sessions < max_sessions:
            sock, peer = server.accept()
            try:
                executed += serve_connection(sock, capacity=capacity, key=secret)
            except (EngineError, ConnectionError, OSError) as error:
                # One hostile or broken peer must not take the worker down —
                # nor burn a --max-sessions slot: a peer turned away at the
                # handshake was never a served session.  Note it and go back
                # to accepting the next coordinator.
                print(
                    f"genlogic worker: rejected session from {peer[0]}:{peer[1]}: {error}",
                    file=sys.stderr,
                )
            else:
                sessions += 1
            finally:
                sock.close()
    return executed


def main(argv=None) -> int:  # pragma: no cover - exercised via the CLI tests
    """Standalone entry point (``python -m repro.engine.worker``)."""
    from ..cli import main as cli_main

    return cli_main(["worker", *(argv if argv is not None else sys.argv[1:])])
