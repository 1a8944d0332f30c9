"""The socket transport: a :class:`Transport` over real HTTP/1.1.

ROADMAP item 1's client half.  :class:`HttpTransport` delivers
:class:`~repro.safebrowsing.protocol.UpdateRequest` /
:class:`~repro.safebrowsing.protocol.FullHashRequest` messages to a
:class:`~repro.safebrowsing.netservice.NetService` as
:mod:`~repro.safebrowsing.wireformat` frames inside HTTP POST bodies, over
a blocking stdlib socket with

* **connection reuse** — one keep-alive connection per transport, reopened
  transparently after any failure;
* **timeout / retry / backoff** — connection-level failures (refused,
  reset, timed out, disconnected mid-response) are retried up to
  ``retries`` times with exponential backoff, then surface as
  :class:`~repro.exceptions.TransportError`; and
* **typed error mapping** — a malformed response frame raises
  :class:`~repro.exceptions.WireError` (never retried: garbage is not
  transient), and a server ``ERROR`` frame is re-raised as the exception
  class its code names (:class:`~repro.exceptions.ListNotFoundError`,
  :class:`~repro.exceptions.ProtocolError`, ...).

The client's :class:`~repro.safebrowsing.backoff.UpdateScheduler` treats
any exception out of ``send_update`` as a failed poll, so every socket
fault automatically triggers the existing exponential backoff — the
fault-injection tests pin that path.
"""

from __future__ import annotations

import socket
import time

from repro.exceptions import (
    ListNotFoundError,
    ProtocolError,
    TransportError,
    WireError,
)
from repro.observability.metrics import MetricsRegistry
from repro.safebrowsing.netservice import body_length, parse_headers
from repro.safebrowsing.protocol import (
    FullHashRequest,
    FullHashResponse,
    UpdateRequest,
    UpdateResponse,
)
from repro.safebrowsing.server import ServerCore
from repro.safebrowsing.transport import Transport
from repro.safebrowsing.wireformat import (
    ERR_INTERNAL,
    ERR_LIST_NOT_FOUND,
    ERR_PROTOCOL,
    ERR_VERSION,
    WireErrorMessage,
    decode_message,
    encode_message,
)

#: Endpoint paths, by the label the metrics layer already uses.
ENDPOINT_PATHS = {
    "downloads": "/safebrowsing/downloads",
    "gethash": "/safebrowsing/gethash",
}

#: Cap on one HTTP response head (status line + headers).
_MAX_HEAD_BYTES = 16 * 1024

#: Exception class raised for each server-side error code.
_ERROR_EXCEPTIONS = {
    ERR_PROTOCOL: ProtocolError,
    ERR_VERSION: WireError,
    ERR_LIST_NOT_FOUND: ListNotFoundError,
    ERR_INTERNAL: TransportError,
}


class HttpTransport(Transport):
    """A client's channel to a network service, over a real socket.

    Parameters
    ----------
    address:
        ``(host, port)`` of the :class:`~repro.safebrowsing.netservice.NetService`.
    server:
        Optional reference to the *co-hosted* server core behind the
        service (the fleet passes it when it runs the service in a thread
        of its own process).  Clients read configuration — poll interval,
        served lists, the shared clock — from it exactly as they do over
        the in-process transport; ``None`` makes the transport genuinely
        remote, and clients must then be configured explicitly.
    timeout_seconds:
        Socket timeout for connect and for each read — a stalled server
        (the slow-loris case) surfaces as a typed error instead of a hang.
    retries:
        Extra delivery attempts after a connection-level failure; ``0``
        fails fast on the first one.
    backoff_seconds / backoff_multiplier:
        Real-time sleep between attempts: ``backoff_seconds *
        multiplier**attempt``.  This is transport-level persistence, small
        and bounded; *scheduling* backoff stays where it always was, in the
        client's :class:`~repro.safebrowsing.backoff.UpdateScheduler`.
    """

    def __init__(self, address: tuple[str, int] | str, *,
                 server: ServerCore | None = None,
                 timeout_seconds: float = 5.0,
                 retries: int = 2,
                 backoff_seconds: float = 0.05,
                 backoff_multiplier: float = 2.0,
                 metrics: MetricsRegistry | None = None) -> None:
        super().__init__(server, metrics=metrics)
        if isinstance(address, str):
            host, sep, port_text = address.rpartition(":")
            if not sep or not host:
                raise TransportError(
                    f"http address must be (host, port) or 'host:port', "
                    f"got {address!r}")
            try:
                address = (host, int(port_text))
            except ValueError as exc:
                raise TransportError(
                    f"invalid port in http address {address!r}") from exc
        if timeout_seconds <= 0:
            raise TransportError("timeout_seconds must be positive")
        if retries < 0:
            raise TransportError("retries must be non-negative")
        self.address = address
        self.timeout_seconds = timeout_seconds
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.backoff_multiplier = backoff_multiplier
        self._sock: socket.socket | None = None

    # -- Transport interface -----------------------------------------------

    def _deliver_update(self, request: UpdateRequest) -> UpdateResponse:
        return self._exchange("downloads", request, UpdateResponse)

    def _deliver_full_hash(self, request: FullHashRequest) -> FullHashResponse:
        return self._exchange("gethash", request, FullHashResponse)

    def close(self) -> None:
        """Drop the kept-alive connection (reopened on the next send)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    # -- delivery ----------------------------------------------------------

    def _exchange(self, endpoint: str, message, expected: type):
        """One request/response exchange, with connection-level retries."""
        frame = encode_message(message)
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.stats.retries += 1
                time.sleep(self.backoff_seconds
                           * self.backoff_multiplier ** (attempt - 1))
            try:
                status, body = self._roundtrip(ENDPOINT_PATHS[endpoint], frame)
            except (TimeoutError, ConnectionError, OSError) as exc:
                # Connection-level trouble: the request may not have reached
                # the server, so re-sending is the right move.  Drop the
                # socket — the next attempt reconnects from scratch.
                self.close()
                last_error = exc
                continue
            return self._interpret(endpoint, status, body, expected)
        self.stats.failures_injected += 1
        raise TransportError(
            f"could not deliver to the {endpoint} endpoint at "
            f"{self.address[0]}:{self.address[1]} after "
            f"{self.retries + 1} attempt(s): {last_error}"
        ) from last_error

    def _interpret(self, endpoint: str, status: int, body: bytes,
                   expected: type):
        """Turn one HTTP response into an ``expected`` message or a typed
        exception."""
        try:
            message = decode_message(body)
        except WireError as exc:
            self.stats.failures_injected += 1
            raise WireError(
                f"the {endpoint} endpoint answered HTTP {status} with an "
                f"undecodable frame: {exc}") from exc
        if isinstance(message, WireErrorMessage):
            self.stats.failures_injected += 1
            exception = _ERROR_EXCEPTIONS[message.code]
            raise exception(
                f"the {endpoint} endpoint answered HTTP {status}: "
                f"{message.message}")
        if status != 200:
            self.stats.failures_injected += 1
            raise TransportError(
                f"the {endpoint} endpoint answered HTTP {status} with a "
                f"non-error frame")
        if not isinstance(message, expected):
            self.stats.failures_injected += 1
            raise WireError(
                f"the {endpoint} endpoint answered with "
                f"{type(message).__name__}, expected {expected.__name__}")
        return message

    # -- socket plumbing ---------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address,
                                            timeout=self.timeout_seconds)
            sock.settimeout(self.timeout_seconds)
            self._sock = sock
            self.stats.connections_opened += 1
        return self._sock

    def _roundtrip(self, path: str, frame: bytes) -> tuple[int, bytes]:
        """Send one POST over the kept-alive socket; read one response."""
        sock = self._connect()
        head = (f"POST {path} HTTP/1.1\r\n"
                f"Host: {self.address[0]}:{self.address[1]}\r\n"
                f"Content-Type: application/x-safebrowsing-wire\r\n"
                f"Content-Length: {len(frame)}\r\n"
                f"Connection: keep-alive\r\n\r\n").encode("ascii")
        payload = head + frame
        try:
            sock.sendall(payload)
            self.stats.bytes_sent += len(payload)
            status, headers, body = self._read_response(sock)
        except socket.timeout as exc:
            raise TimeoutError(
                f"no response within {self.timeout_seconds}s") from exc
        if headers.get("connection") == "close":
            self.close()
        return status, body

    def _read_response(self, sock: socket.socket
                       ) -> tuple[int, dict[str, str], bytes]:
        head = b""
        while b"\r\n\r\n" not in head:
            if len(head) > _MAX_HEAD_BYTES:
                raise ConnectionError("response head exceeds 16 KiB")
            chunk = sock.recv(4096)
            if not chunk:
                raise ConnectionError(
                    "server closed the connection mid-response")
            head += chunk
        head, _, rest = head.partition(b"\r\n\r\n")
        self.stats.bytes_received += len(head) + 4

        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"malformed status line {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise ConnectionError(
                f"malformed status code in {lines[0]!r}") from exc
        # Framing errors raise ConnectionError: the stream position is
        # unknown, so the socket is dropped and the request retried.
        try:
            headers = parse_headers(lines[1:])
            length = body_length(headers, default=None)
        except ValueError as exc:
            raise ConnectionError(
                f"response carries no usable Content-Length: {exc}") from exc

        body = rest
        if len(body) < length:
            # Fill one preallocated buffer: appending each recv to a bytes
            # body recopies it every time, quadratic in multi-MB frames.
            buffer = bytearray(length)
            buffer[:len(body)] = body
            view = memoryview(buffer)
            received = len(body)
            while received < length:
                count = sock.recv_into(view[received:],
                                       min(65536, length - received))
                if not count:
                    raise ConnectionError(
                        f"server closed the connection after {received} of "
                        f"{length} body bytes")
                received += count
            body = bytes(buffer)
        self.stats.bytes_received += len(body)
        if len(body) > length:
            raise ConnectionError(
                f"server sent {len(body) - length} byte(s) beyond its "
                f"declared Content-Length")
        return status, headers, body
