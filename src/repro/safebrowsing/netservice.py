"""The asyncio HTTP service: a :class:`ServerCore` behind real sockets.

ROADMAP item 1's server half.  :class:`NetService` owns one
:class:`~repro.safebrowsing.server.ServerCore` and serves it over
HTTP/1.1 on an asyncio event loop — one coroutine per connection,
keep-alive by default, stdlib only (the environment has no aiohttp; the
HTTP framing here is the minimal Content-Length subset both ends of this
repo speak, read strictly by :func:`parse_headers` and
:func:`body_length`: a request whose body length is ambiguous is answered
with 400 and the connection is closed).

Routes
------
``POST /safebrowsing/downloads``
    Body is one :mod:`~repro.safebrowsing.wireformat` frame carrying an
    ``UPDATE_REQUEST``; the response body is an ``UPDATE_RESPONSE`` frame.
``POST /safebrowsing/gethash``
    ``FULL_HASH_REQUEST`` in, ``FULL_HASH_RESPONSE`` out.
``GET /metrics``
    The PR 9 Prometheus text exposition of the service's metrics registry.
``GET /healthz``
    ``ok`` — liveness only, no server-core access.

Every failure on the wire endpoints answers with an ``ERROR`` frame whose
code types the failure (:data:`~repro.safebrowsing.wireformat.ERR_PROTOCOL`
/ ``ERR_VERSION`` / ``ERR_LIST_NOT_FOUND`` / ``ERR_INTERNAL``) plus the
matching HTTP status, so a client can re-raise the right exception class.
A connection that sends garbage is answered with 400 and closed; the
accept loop never dies with it.

:class:`ServiceThread` runs the service on a background thread for callers
that live in synchronous code — the fleet simulator co-hosts the service
this way, sharing the *same* ``ServerCore`` object and ``ManualClock``
with its clients, which is what makes HTTP fleet runs byte-identical to
in-process ones (the fleet loop blocks on each response, so requests
serialize and the logical clock only moves between requests).
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Iterable
from contextlib import contextmanager

from repro.clock import ManualClock
from repro.exceptions import (
    ListNotFoundError,
    ProtocolError,
    TransportError,
    WireError,
)
from repro.observability.export import render_prometheus
from repro.observability.metrics import MetricsRegistry
from repro.safebrowsing.protocol import (
    FullHashRequest,
    UpdateRequest,
    serve_full_hash,
    serve_update,
)
from repro.safebrowsing.server import ServerCore
from repro.safebrowsing.wireformat import (
    ERR_INTERNAL,
    ERR_LIST_NOT_FOUND,
    ERR_PROTOCOL,
    ERR_VERSION,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    WIRE_VERSION,
    WireErrorMessage,
    decode_message,
    encode_message,
)

#: Path → (expected request type, endpoint label) of the wire endpoints.
WIRE_ENDPOINTS = {
    "/safebrowsing/downloads": (UpdateRequest, "downloads"),
    "/safebrowsing/gethash": (FullHashRequest, "gethash"),
}

#: Content type of wire-frame request and response bodies.
WIRE_CONTENT_TYPE = "application/x-safebrowsing-wire"

#: Upper bound on an HTTP body: one frame plus its header/trailer overhead.
MAX_BODY_BYTES = MAX_PAYLOAD_BYTES + 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: HTTP status paired with each wire error code.
_ERROR_STATUS = {
    ERR_PROTOCOL: 400,
    ERR_VERSION: 400,
    ERR_LIST_NOT_FOUND: 404,
    ERR_INTERNAL: 500,
}


def content_length(text: str) -> int:
    """Parse a Content-Length value: one or more ASCII digits, nothing else.

    ``int()`` would also accept a sign, ``_`` separators, surrounding
    whitespace and non-ASCII digits.  Any of them in a length field is a
    framing error: a peer that reads the field another way would split the
    byte stream somewhere else.  Raises :class:`ValueError`.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"Content-Length must be ASCII digits, got {text!r}")
    return int(text)


def parse_headers(lines: Iterable[str]) -> dict[str, str]:
    """Header fields of one HTTP message head, keyed by lower-cased name.

    Empty lines are skipped and a repeated field keeps its last value,
    except Content-Length: two values that disagree leave the body length
    ambiguous and raise :class:`ValueError` (identical repeats are allowed,
    as RFC 9112 permits).  A line without a colon raises too.
    """
    headers: dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad header line {line!r}")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ValueError(f"conflicting Content-Length headers "
                             f"{headers[name]!r} and {value!r}")
        headers[name] = value
    return headers


def body_length(headers: dict[str, str], default: str | None = "0") -> int:
    """The body length a message head declares, or :class:`ValueError`.

    Only Content-Length framing is spoken: a message carrying
    ``Transfer-Encoding`` is refused outright, since reading its chunked
    body as the next message is how a stream falls out of step.  Without
    a Content-Length field the ``default`` applies (``None``: required).
    """
    if "transfer-encoding" in headers:
        raise ValueError("Transfer-Encoding is not supported; "
                         "frame the body with Content-Length")
    text = headers.get("content-length", default)
    if text is None:
        raise ValueError("no Content-Length header")
    return content_length(text)


def _http_response(status: int, body: bytes, content_type: str,
                   *, keep_alive: bool = True) -> bytes:
    """Serialize one HTTP/1.1 response with a Content-Length body."""
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n")
    return head.encode("ascii") + body


class NetService:
    """One :class:`ServerCore` served over HTTP on an asyncio loop.

    Parameters
    ----------
    core:
        The server to dispatch into.  A
        :class:`~repro.safebrowsing.server.SafeBrowsingServer` facade is
        dispatched through its ``handle_*`` overrides (the same rule the
        in-process transport follows), a bare core through the endpoint
        handlers.
    host / port:
        Bind address; port ``0`` (the default) picks an ephemeral port —
        the bound one is readable from :attr:`port` after :meth:`start`.
    metrics:
        Registry rendered by ``GET /metrics`` and holding the service's own
        request counters.  Defaults to a fresh private registry, so the
        endpoint always renders and co-hosted fleet runs don't leak
        service-side samples into the fleet's registry.
    sync_clock:
        When the core runs on a :class:`~repro.clock.ManualClock`, advance
        it to each request's ``timestamp`` before dispatching (never
        backwards).  Off by default: the co-hosted fleet path shares the
        clock object with its clients and needs no syncing; a standalone
        ``repro serve`` process enables it so remote clients' logical time
        drives response timestamps and cache expiry.
    """

    def __init__(self, core: ServerCore, *, host: str = "127.0.0.1",
                 port: int = 0, metrics: MetricsRegistry | None = None,
                 sync_clock: bool = False) -> None:
        self.core = core
        self.host = host
        self._requested_port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sync_clock = sync_clock
        self._server: asyncio.base_events.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._open_connections = 0
        #: Most connections ever open at once (the bench's concurrency
        #: figure; a plain attribute so reading it costs nothing).
        self.peak_connections = 0
        requests = self.metrics.counter(
            "netservice_requests_total",
            "HTTP requests served, by endpoint", labels=("endpoint",))
        self._m_requests = {
            label: requests.labels(endpoint=label)
            for label in ("downloads", "gethash", "metrics", "healthz", "other")
        }
        self._m_errors = self.metrics.counter(
            "netservice_errors_total", "Requests answered with an error frame")
        self._m_connections = self.metrics.gauge(
            "netservice_open_connections", "Currently open HTTP connections")

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise TransportError("the service is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port)

    async def stop(self) -> None:
        """Stop accepting, close every connection, await the handlers.

        Draining the handlers (instead of letting the loop teardown cancel
        them mid-read) keeps shutdown quiet and makes restart-on-the-same-
        port deterministic for the fault-injection tests.
        """
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` foreground path)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        self._open_connections += 1
        self.peak_connections = max(self.peak_connections,
                                    self._open_connections)
        self._m_connections.inc()
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the peer vanished mid-request; nothing left to answer
        finally:
            self._writers.discard(writer)
            self._open_connections -= 1
            self._m_connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer already gone
                pass

    async def _handle_one_request(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise ConnectionError("truncated request head") from exc
            return False  # clean close between requests
        except asyncio.LimitOverrunError:
            writer.write(_http_response(
                400, b"request head too large\n", "text/plain",
                keep_alive=False))
            await writer.drain()
            return False

        try:
            method, path, headers = self._parse_head(head)
            length = body_length(headers)
        except ValueError as exc:
            writer.write(_http_response(
                400, f"malformed request: {exc}\n".encode(), "text/plain",
                keep_alive=False))
            await writer.drain()
            return False

        body = b""
        if length > MAX_BODY_BYTES:
            writer.write(_http_response(
                413, f"unacceptable content-length {length}\n".encode(),
                "text/plain", keep_alive=False))
            await writer.drain()
            return False
        if length:
            body = await reader.readexactly(length)

        keep_alive = headers.get("connection", "keep-alive") != "close"
        status, payload, content_type = self._route(method, path, body)
        writer.write(_http_response(status, payload, content_type,
                                    keep_alive=keep_alive))
        await writer.drain()
        return keep_alive

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"bad request line {lines[0]!r}")
        method, path, _version = parts
        return method, path, parse_headers(lines[1:])

    # -- routing -----------------------------------------------------------

    def _route(self, method: str, path: str,
               body: bytes) -> tuple[int, bytes, str]:
        if path in WIRE_ENDPOINTS:
            expected_type, label = WIRE_ENDPOINTS[path]
            self._m_requests[label].inc()
            if method != "POST":
                return self._error_response(
                    ERR_PROTOCOL, f"{path} only accepts POST, got {method}")
            return self._serve_wire(expected_type, label, body)
        if path == "/metrics":
            self._m_requests["metrics"].inc()
            if method != "GET":
                return 405, b"use GET\n", "text/plain"
            text = render_prometheus(self.metrics)
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
        if path == "/healthz":
            self._m_requests["healthz"].inc()
            return 200, b"ok\n", "text/plain"
        self._m_requests["other"].inc()
        return 404, f"no route for {path}\n".encode(), "text/plain"

    def _serve_wire(self, expected_type: type, label: str,
                    body: bytes) -> tuple[int, bytes, str]:
        """Decode, dispatch, and encode one wire-endpoint request."""
        # An unsupported version deserves its own error code, but
        # decode_message folds it into WireError — peek at the raw header
        # byte first (error frames stay version-1, the one both ends speak).
        if len(body) >= 5 and body[:4] == MAGIC and body[4] != WIRE_VERSION:
            return self._error_response(
                ERR_VERSION,
                f"unsupported wire version {body[4]}; "
                f"this server speaks version {WIRE_VERSION}")
        try:
            request = decode_message(body)
        except WireError as exc:
            return self._error_response(ERR_PROTOCOL, str(exc))
        if not isinstance(request, expected_type):
            return self._error_response(
                ERR_PROTOCOL,
                f"the {label} endpoint takes {expected_type.__name__} "
                f"frames, got {type(request).__name__}")
        self._sync_clock_to(request.timestamp)
        try:
            response = self._dispatch(request)
        except ListNotFoundError as exc:
            return self._error_response(ERR_LIST_NOT_FOUND, str(exc))
        except ProtocolError as exc:
            return self._error_response(ERR_PROTOCOL, str(exc))
        except Exception as exc:  # noqa: BLE001 - the accept loop must live
            return self._error_response(
                ERR_INTERNAL, f"{type(exc).__name__}: {exc}")
        return 200, encode_message(response), WIRE_CONTENT_TYPE

    def _dispatch(self, request):
        """The same facade-first dispatch rule the in-process transport uses."""
        if isinstance(request, UpdateRequest):
            handler = getattr(self.core, "handle_update", None)
            return (handler(request) if handler is not None
                    else serve_update(self.core, request))
        handler = getattr(self.core, "handle_full_hash", None)
        return (handler(request) if handler is not None
                else serve_full_hash(self.core, request))

    def _sync_clock_to(self, timestamp: float) -> None:
        if not self.sync_clock:
            return
        clock = self.core.clock
        if isinstance(clock, ManualClock):
            ahead = timestamp - clock.now()
            if ahead > 0:
                clock.advance(ahead)

    def _error_response(self, code: int, message: str) -> tuple[int, bytes, str]:
        self._m_errors.inc()
        frame = encode_message(WireErrorMessage(code=code, message=message))
        return _ERROR_STATUS[code], frame, WIRE_CONTENT_TYPE


class ServiceThread:
    """Run a :class:`NetService` on a background event-loop thread.

    The synchronous wrapper the fleet simulator, the tests and the
    benchmarks use: :meth:`start` blocks until the socket is bound (so the
    caller can read :attr:`address` immediately), :meth:`stop` shuts the
    loop down and joins the thread.  A stopped thread can be replaced by a
    fresh one on the same port — the restart-mid-fleet fault tests do
    exactly that.
    """

    def __init__(self, core: ServerCore, *, host: str = "127.0.0.1",
                 port: int = 0, metrics: MetricsRegistry | None = None,
                 sync_clock: bool = False) -> None:
        self.service = NetService(core, host=host, port=port,
                                  metrics=metrics, sync_clock=sync_clock)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._shutdown: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        self._address: tuple[str, int] | None = None

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` of the running service."""
        if self._address is None:
            raise TransportError("the service thread is not running")
        return self._address

    @property
    def core(self) -> ServerCore:
        """The server core behind the service."""
        return self.service.core

    def start(self) -> "ServiceThread":
        """Start the thread; returns once the socket is bound."""
        if self._thread is not None:
            raise TransportError("the service thread is already running")
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="sb-netservice")
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            raise TransportError(
                f"the network service failed to start: {error}") from error
        return self

    def stop(self) -> None:
        """Shut the loop down and join the thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join()
        self._thread = None
        self._loop = None
        self._address = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._shutdown = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            self._startup_error = exc
            self._started.set()
            return
        self._address = (self.service.host, self.service.port)
        self._started.set()
        try:
            await self._shutdown.wait()
        finally:
            await self.service.stop()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


@contextmanager
def serve_in_thread(core: ServerCore, *, host: str = "127.0.0.1",
                    port: int = 0, metrics: MetricsRegistry | None = None,
                    sync_clock: bool = False):
    """Context manager: a running :class:`ServiceThread` around ``core``."""
    thread = ServiceThread(core, host=host, port=port, metrics=metrics,
                           sync_clock=sync_clock)
    thread.start()
    try:
        yield thread
    finally:
        thread.stop()
