"""Network-tier fault injection: every socket fault maps to a typed error.

The acceptance bar for the socket transport: connection refused, a server
dying mid-response, a slow-loris stall, malformed frames and a full server
restart each surface as a *typed* ``TransportError``/``WireError`` (never a
hang, never a bare ``OSError``), trigger the client's existing
``UpdateScheduler`` backoff, and never corrupt client state — after the
fault clears, the same client resyncs incrementally and answers lookups
correctly.

Scripted one-connection servers inject the low-level faults; a real
:class:`ServiceThread` plays the restart scenario.  All sockets bind
127.0.0.1 port 0, so the module is ``network``-marked.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.clock import ManualClock
from repro.exceptions import TransportError, WireError
from repro.hashing.prefix import Prefix
from repro.safebrowsing.backoff import INITIAL_BACKOFF
from repro.safebrowsing.chunks import ChunkRange
from repro.safebrowsing.client import SafeBrowsingClient
from repro.safebrowsing.cookie import SafeBrowsingCookie
from repro.safebrowsing.httptransport import HttpTransport
from repro.safebrowsing.netservice import ServiceThread
from repro.safebrowsing.protocol import (
    FullHashRequest,
    FullHashResponse,
    ListState,
    UpdateRequest,
    UpdateResponse,
)
from repro.safebrowsing.wireformat import (
    ERR_INTERNAL,
    WireErrorMessage,
    encode_message,
)

pytestmark = pytest.mark.network

COOKIE = SafeBrowsingCookie("fault-test")


def _request() -> UpdateRequest:
    return UpdateRequest(
        cookie=COOKIE,
        states=(ListState("goog-malware-shavar", ChunkRange(set()),
                          ChunkRange(set())),))


def _transport(address, *, retries: int = 0,
               timeout_seconds: float = 5.0) -> HttpTransport:
    return HttpTransport(address, retries=retries,
                         timeout_seconds=timeout_seconds,
                         backoff_seconds=0.001)


# -- scripted fault servers --------------------------------------------------


def _drain_request(conn: socket.socket) -> None:
    """Read one full HTTP request off ``conn``."""
    conn.settimeout(5.0)
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = conn.recv(4096)
        if not chunk:
            return
        head += chunk
    head_text, _, rest = head.partition(b"\r\n\r\n")
    length = 0
    for line in head_text.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = conn.recv(4096)
        if not chunk:
            return
        rest += chunk


def _respond(conn: socket.socket, body: bytes, *, status: int = 200,
             declared_length: int | None = None) -> None:
    length = len(body) if declared_length is None else declared_length
    conn.sendall((f"HTTP/1.1 {status} X\r\nContent-Length: {length}\r\n"
                  f"Connection: close\r\n\r\n").encode("ascii") + body)


class ScriptedServer:
    """Accept one connection per script; run the script; close."""

    def __init__(self, *scripts) -> None:
        self._scripts = list(scripts)
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        for script in self._scripts:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            try:
                script(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._sock.close()


def _free_port() -> int:
    """A port that was just free — connecting to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- connection-level faults (retried, then typed) ---------------------------


class TestConnectionFaults:
    def test_connection_refused_is_typed_and_counted(self):
        transport = _transport(("127.0.0.1", _free_port()), retries=2)
        with pytest.raises(TransportError, match="after 3 attempt"):
            transport.send_update(_request())
        assert transport.stats.retries == 2
        assert transport.stats.failures_injected == 1

    def test_mid_response_disconnect_is_retried_to_success(self, google_server):
        # First connection dies after half a response; the retry gets a
        # real answer.  The client-visible result is simply the answer.
        answer = encode_message(google_server.handle_update(_request()))

        def die_mid_response(conn):
            _drain_request(conn)
            _respond(conn, answer[: len(answer) // 2],
                     declared_length=len(answer))

        def serve(conn):
            _drain_request(conn)
            _respond(conn, answer)

        server = ScriptedServer(die_mid_response, serve)
        try:
            transport = _transport(server.address, retries=1)
            response = transport.send_update(_request())
            assert isinstance(response, UpdateResponse)
            assert transport.stats.retries == 1
            assert transport.stats.connections_opened == 2
        finally:
            server.close()

    def test_mid_response_disconnect_exhausts_to_transport_error(self):
        def die(conn):
            _drain_request(conn)
            conn.sendall(b"HTTP/1.1 200 X\r\nContent-Length: 500\r\n\r\nhalf")

        server = ScriptedServer(die, die)
        try:
            transport = _transport(server.address, retries=1)
            with pytest.raises(TransportError,
                               match="closed the connection after 4 of 500"):
                transport.send_update(_request())
        finally:
            server.close()

    @pytest.mark.parametrize("framing", [
        b"Content-Length: +5",
        b"Content-Length: 5\r\nContent-Length: 6",
        b"Transfer-Encoding: chunked\r\nContent-Length: 5",
        b"X-No-Length: 1",
    ])
    def test_malformed_response_length_is_retried(self, framing):
        def misframe(conn):
            _drain_request(conn)
            conn.sendall(b"HTTP/1.1 200 X\r\n" + framing + b"\r\n\r\nhello")

        server = ScriptedServer(misframe, misframe)
        try:
            transport = _transport(server.address, retries=1)
            with pytest.raises(TransportError,
                               match="no usable Content-Length"):
                transport.send_update(_request())
            # A framing fault is connection-level: dropped and retried.
            assert transport.stats.retries == 1
            assert transport.stats.connections_opened == 2
        finally:
            server.close()

    def test_multi_megabyte_body_arrives_in_small_pieces(self):
        body = bytes(range(256)) * (3 * 4096)  # 3 MiB
        head = (f"HTTP/1.1 200 X\r\nContent-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
        client_end, server_end = socket.socketpair()

        def trickle():
            with server_end:
                server_end.sendall(head + body[:1000])
                for start in range(1000, len(body), 50_000):
                    server_end.sendall(body[start:start + 50_000])

        writer = threading.Thread(target=trickle, daemon=True)
        writer.start()
        try:
            transport = _transport(("127.0.0.1", 1))
            client_end.settimeout(5.0)
            status, headers, received = transport._read_response(client_end)
        finally:
            writer.join(5.0)
            client_end.close()
        assert status == 200 and headers["content-length"] == str(len(body))
        assert received == body and isinstance(received, bytes)
        assert transport.stats.bytes_received == len(head) + len(body)

    def test_slow_loris_stall_hits_the_client_timeout(self):
        release = threading.Event()

        def stall(conn):
            _drain_request(conn)
            release.wait(10.0)  # hold the socket open, send nothing

        server = ScriptedServer(stall)
        try:
            transport = _transport(server.address, retries=0,
                                   timeout_seconds=0.2)
            start = time.monotonic()
            with pytest.raises(TransportError, match="no response within 0.2s"):
                transport.send_update(_request())
            # Typed failure, promptly — not a hang for the server's 10s.
            assert time.monotonic() - start < 5.0
        finally:
            release.set()
            server.close()


# -- protocol-level faults (never retried) -----------------------------------


class TestProtocolFaults:
    def test_malformed_frame_raises_wire_error_without_retry(self):
        def garbage(conn):
            _drain_request(conn)
            _respond(conn, b"SBWFgarbage-not-a-frame")

        server = ScriptedServer(garbage)
        try:
            transport = _transport(server.address, retries=3)
            with pytest.raises(WireError, match="undecodable frame"):
                transport.send_update(_request())
            # Garbage is not transient: exactly one connection, no retries.
            assert transport.stats.retries == 0
            assert transport.stats.connections_opened == 1
        finally:
            server.close()

    def test_server_error_frame_maps_to_its_exception(self):
        frame = encode_message(WireErrorMessage(ERR_INTERNAL, "shard on fire"))

        def explode(conn):
            _drain_request(conn)
            _respond(conn, frame, status=500)

        server = ScriptedServer(explode)
        try:
            transport = _transport(server.address, retries=3)
            with pytest.raises(TransportError, match="shard on fire"):
                transport.send_update(_request())
            assert transport.stats.retries == 0
        finally:
            server.close()

    def test_wrong_response_type_raises_wire_error(self):
        frame = encode_message(FullHashResponse(
            matches=(), cache_lifetime_seconds=0.0, timestamp=0.0))

        def misanswer(conn):
            _drain_request(conn)
            _respond(conn, frame)

        server = ScriptedServer(misanswer)
        try:
            transport = _transport(server.address)
            with pytest.raises(WireError, match="expected UpdateResponse"):
                transport.send_update(_request())
        finally:
            server.close()

    def test_wrong_response_type_counts_a_failure(self, google_server):
        """A well-formed reply of the wrong kind (an UpdateResponse from
        gethash) is a failure like an undecodable or an error frame."""
        answer = encode_message(google_server.handle_update(_request()))

        def misanswer(conn):
            _drain_request(conn)
            _respond(conn, answer)

        server = ScriptedServer(misanswer)
        try:
            transport = _transport(server.address, retries=3)
            request = FullHashRequest(cookie=COOKIE,
                                      prefixes=(Prefix.from_int(7, 32),))
            with pytest.raises(WireError, match="expected FullHashResponse"):
                transport.send_full_hash(request)
            assert transport.stats.failures_injected == 1
            assert transport.stats.full_hash_requests == 1
            assert transport.stats.retries == 0
        finally:
            server.close()

    def test_non_error_frame_with_error_status(self, google_server):
        answer = encode_message(google_server.handle_update(_request()))

        def weird(conn):
            _drain_request(conn)
            _respond(conn, answer, status=500)

        server = ScriptedServer(weird)
        try:
            with pytest.raises(TransportError, match="HTTP 500"):
                _transport(server.address).send_update(_request())
        finally:
            server.close()


# -- construction ------------------------------------------------------------


class TestConstruction:
    def test_string_address_is_parsed(self):
        transport = HttpTransport("127.0.0.1:8080")
        assert transport.address == ("127.0.0.1", 8080)

    def test_bad_string_address_is_refused(self):
        with pytest.raises(TransportError, match="host, port"):
            HttpTransport("no-port-here")
        with pytest.raises(TransportError, match="invalid port"):
            HttpTransport("host:not-a-number")

    def test_invalid_knobs_are_refused(self):
        with pytest.raises(TransportError, match="timeout_seconds"):
            HttpTransport(("h", 1), timeout_seconds=0.0)
        with pytest.raises(TransportError, match="retries"):
            HttpTransport(("h", 1), retries=-1)


# -- the restart scenario ----------------------------------------------------


class TestServerRestart:
    def test_backoff_then_incremental_resync(self, google_server, clock):
        """A served client survives a full server restart.

        The outage is recorded on the scheduler (exponential backoff), the
        client's local database stays intact, and once the service is back
        on the same port the *same* transport reconnects and the resync is
        incremental — no chunks are re-sent for state the client already
        has, and lookups keep answering correctly.
        """
        service = ServiceThread(google_server).start()
        host, port = service.address
        transport = HttpTransport((host, port), server=google_server,
                                  timeout_seconds=1.0, retries=0,
                                  backoff_seconds=0.001)
        client = SafeBrowsingClient(transport=transport, name="survivor",
                                    clock=clock)
        assert client.update() > 0
        chunks_synced = client.stats.chunks_received
        assert client.lookup("https://evil.example.com/").is_malicious

        # Outage: the service goes away entirely.
        service.stop()
        with pytest.raises(TransportError):
            client.update()
        assert client.scheduler.consecutive_errors == 1
        assert not client.scheduler.can_update(clock.now())

        # Local state is uncorrupted: lookups that need no server round
        # trip still answer from the local store mid-outage.
        assert not client.lookup("https://benign.example.org/").is_malicious

        # The service comes back on the same port; the scheduler's backoff
        # window passes; the same client and transport resync.
        revived = ServiceThread(google_server, host=host, port=port).start()
        try:
            clock.advance(2 * INITIAL_BACKOFF)
            assert client.scheduler.can_update(clock.now())
            assert client.update() == 0  # incremental: nothing to re-send
            assert client.stats.chunks_received == chunks_synced
            assert client.scheduler.consecutive_errors == 0
            assert client.lookup("https://evil.example.com/").is_malicious
        finally:
            revived.stop()
            transport.close()
