"""Hand-rolled asyncio HTTP/1.1 frontend for the analysis service.

Stdlib-only by design: the transport is ``asyncio.start_server`` plus a
minimal HTTP/1.1 reader (request line, headers, ``Content-Length`` body) —
enough for a JSON API with short-lived connections, with none of the
dependency surface of a web framework.  Every response carries
``Connection: close``; clients that want pipelining should put a real proxy
in front.

Routes (all JSON)::

    POST /v1/studies          submit a StudySpec body; returns the study
                              record (add ?wait=1 to long-poll completion)
    GET  /v1/studies/{id}     status / result of one study
    POST /v1/search           submit a SearchSpec body (design-space search);
                              same record shape and ?wait=1 long-poll
    GET  /v1/search/{id}      status / ranked frontier of one search
    GET  /v1/healthz          liveness probe
    GET  /v1/stats            pool saturation, cache hit rate, queue depth

Error mapping: malformed spec → 400, unknown study → 404, wrong method →
405, body or replicate budget exceeded → 413, in-flight bound saturated →
429 with ``Retry-After``, worker fabric lost mid-study → 503 with
``Retry-After`` (the record body still carries the detail: losing the
fabric is the server's transient problem, and clients should resubmit once
the supervisor has regrown it).

Security note: the server speaks plaintext HTTP and trusts its clients.
``genlogic serve`` binds loopback only unless a fabric key is configured
(``--key-file`` / ``GENLOGIC_FABRIC_KEY``) — the key authenticates the
worker fabric underneath (see the trust model in
:mod:`repro.engine.distributed`); the HTTP side itself should still be
fronted by an authenticating reverse proxy when exposed.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import EngineError
from .app import AnalysisService, BackpressureError, BudgetError

__all__ = ["ServiceServer", "serve"]

#: Largest accepted request body; a StudySpec is a few hundred bytes, so
#: anything near this is not a spec.
MAX_BODY_BYTES = 1 << 20

#: Hard cap on one request's header section.
MAX_HEADER_BYTES = 32 * 1024


class _HttpError(Exception):
    """An error with a ready HTTP mapping."""

    def __init__(self, status: int, message: str, retry_after: Optional[int] = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: ``Retry-After`` seconds on a 503: long enough for the supervisor to
#: restart a worker and the coordinator's heartbeat to adopt it.
_FABRIC_RETRY_AFTER = 5


def _record_response(record) -> Tuple[int, Dict[str, Any], Optional[int]]:
    """The (status, body, retry_after) for a study/search record.

    A record that failed because the worker fabric was lost mid-study is a
    *server-side* transient (the supervisor will regrow the fabric), so it
    answers 503 + ``Retry-After`` — with the full record still in the body —
    instead of looking like a caller error.
    """
    if record.status == "error" and record.error_kind == "fabric":
        return 503, record.to_response(), _FABRIC_RETRY_AFTER
    return 200, record.to_response(), None


def _encode_response(
    status: int,
    body: Dict[str, Any],
    retry_after: Optional[int] = None,
) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    if retry_after is not None:
        head.append(f"Retry-After: {retry_after}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + payload


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: ``(method, target, headers, body)``."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise _HttpError(408, "empty request") from None
        raise _HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if n < 0:
            raise _HttpError(400, "malformed Content-Length")
        if n > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(n)
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "truncated request body") from None
    return method, target, headers, body


class ServiceServer:
    """The analysis service bound to a listening socket.

    Owns an :class:`~repro.service.app.AnalysisService` (or wraps one you
    built — e.g. with a distributed executor) and serves it over asyncio.
    Use ``await start()`` / ``await stop()`` from a running loop (tests), or
    the blocking :func:`serve` entry point (CLI).
    """

    def __init__(
        self,
        service: Optional[AnalysisService] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        **service_kwargs: Any,
    ):
        if service is not None and service_kwargs:
            raise EngineError("pass either a built AnalysisService or its kwargs, not both")
        self.service = service if service is not None else AnalysisService(**service_kwargs)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (the real port when 0 was requested)."""
        if self._server is None:
            raise EngineError("server is not started")
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    async def start(self) -> "ServiceServer":
        await asyncio.to_thread(self.service.open)
        self._server = await asyncio.start_server(
            self._handle,
            host=self.host,
            port=self.port,
            limit=MAX_HEADER_BYTES + MAX_BODY_BYTES,
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.service.close)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- request handling ------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, target, _headers, body = await _read_request(reader)
                status, response, retry_after = await self._route(method, target, body)
            except _HttpError as error:
                status = error.status
                response = {"error": str(error)}
                retry_after = error.retry_after
            except Exception as error:  # noqa: BLE001 - a request must not kill the server
                status = 500
                response = {"error": f"{type(error).__name__}: {error}"}
                retry_after = None
            writer.write(_encode_response(status, response, retry_after))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
    ) -> Tuple[int, Dict[str, Any], Optional[int]]:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)

        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return 200, {"status": "ok"}, None

        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return 200, self.service.stats(), None

        for base, kind, submit in (
            ("/v1/studies", "study", self.service.submit),
            ("/v1/search", "search", self.service.submit_search),
        ):
            if path == base:
                if method != "POST":
                    raise _HttpError(405, f"{method} not allowed on {path}")
                try:
                    record = await submit(body)
                except BudgetError as error:
                    raise _HttpError(413, str(error)) from None
                except BackpressureError as error:
                    raise _HttpError(429, str(error), retry_after=1) from None
                except EngineError as error:
                    raise _HttpError(400, str(error)) from None
                if query.get("wait", ["0"])[-1] in ("1", "true", "yes"):
                    await record.done_event.wait()
                return _record_response(record)

            if path.startswith(base + "/"):
                if method != "GET":
                    raise _HttpError(405, f"{method} not allowed on {path}")
                record_id = path[len(base) + 1:]
                record = self.service.get(record_id)
                if record is None or record.kind != kind:
                    raise _HttpError(404, f"no {kind} {record_id!r}")
                return _record_response(record)

        raise _HttpError(404, f"no route for {path}")


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    service: Optional[AnalysisService] = None,
    ready=None,
    **service_kwargs: Any,
) -> None:
    """Blocking entry point: run the service until interrupted.

    Ctrl-C (SIGINT) and SIGTERM both stop it cleanly: the server stops
    listening and the service shuts its worker pool down before this
    returns.  ``ready`` (if given) is called with the bound ``(host, port)``
    once the socket is listening — the CLI uses it to print the address,
    tests use it to learn an ephemeral port.
    """

    async def _main() -> None:
        server = ServiceServer(service=service, host=host, port=port, **service_kwargs)
        await server.start()
        # asyncio.run turns Ctrl-C into a cancel of this task; SIGTERM does
        # the same, so the finally below closes the pool either way.
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
        try:
            if ready is not None:
                ready(server.address)
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
