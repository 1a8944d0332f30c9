"""Network-tier tests: the asyncio service's HTTP and wire behaviour.

Everything here binds a real 127.0.0.1 socket (always port 0 — the kernel
hands out a free ephemeral port), so the module is ``network``-marked and
excluded from the hermetic tier-1 run.
"""

from __future__ import annotations

import socket

import pytest

from repro.exceptions import ListNotFoundError, TransportError
from repro.hashing.prefix import Prefix
from repro.safebrowsing.chunks import ChunkRange
from repro.safebrowsing.cookie import SafeBrowsingCookie
from repro.safebrowsing.netservice import (
    MAX_BODY_BYTES,
    ServiceThread,
    serve_in_thread,
)
from repro.safebrowsing.protocol import (
    FullHashRequest,
    FullHashResponse,
    ListState,
    UpdateRequest,
    UpdateResponse,
)
from repro.safebrowsing.wireformat import (
    ERR_PROTOCOL,
    ERR_VERSION,
    WIRE_VERSION,
    WireErrorMessage,
    decode_message,
    encode_message,
)

pytestmark = pytest.mark.network

COOKIE = SafeBrowsingCookie("netservice-test")


def _http(address, request: bytes, timeout: float = 5.0) -> bytes:
    """One raw HTTP exchange: connect, send, read to EOF."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


def _post(path: str, body: bytes, *, version: bytes | None = None) -> bytes:
    head = (f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii")
    return head + body


def _body_of(response: bytes) -> bytes:
    return response.partition(b"\r\n\r\n")[2]


def _status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _update_request(list_name: str = "goog-malware-shavar") -> bytes:
    return encode_message(UpdateRequest(
        cookie=COOKIE,
        states=(ListState(list_name, ChunkRange(set()), ChunkRange(set())),)))


class TestEndpoints:
    def test_downloads_round_trip(self, http_service):
        raw = _http(http_service.address,
                    _post("/safebrowsing/downloads", _update_request()))
        assert _status_of(raw) == 200
        response = decode_message(_body_of(raw))
        assert isinstance(response, UpdateResponse)
        assert any(not update.is_empty for update in response.updates)

    def test_gethash_round_trip(self, http_service, updated_client):
        # A prefix the fixture server actually serves full hashes for.
        result = updated_client.lookup("https://evil.example.com/")
        assert result.local_hits
        frame = encode_message(FullHashRequest(
            cookie=COOKIE, prefixes=tuple(result.local_hits)))
        raw = _http(http_service.address,
                    _post("/safebrowsing/gethash", frame))
        assert _status_of(raw) == 200
        response = decode_message(_body_of(raw))
        assert isinstance(response, FullHashResponse)
        assert response.matches

    def test_metrics_endpoint_renders_prometheus(self, http_service):
        _http(http_service.address,
              _post("/safebrowsing/downloads", _update_request()))
        raw = _http(http_service.address,
                    b"GET /metrics HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n")
        assert _status_of(raw) == 200
        text = _body_of(raw).decode("utf-8")
        assert "# TYPE netservice_requests_total counter" in text
        assert 'endpoint="downloads"' in text

    def test_healthz(self, http_service):
        raw = _http(http_service.address,
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n")
        assert _status_of(raw) == 200
        assert _body_of(raw) == b"ok\n"

    def test_unknown_path_is_404(self, http_service):
        raw = _http(http_service.address,
                    b"GET /nope HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n")
        assert _status_of(raw) == 404


class TestWireErrors:
    def test_unsupported_version_answers_err_version(self, http_service):
        frame = bytearray(_update_request())
        frame[4] = WIRE_VERSION + 1
        raw = _http(http_service.address,
                    _post("/safebrowsing/downloads", bytes(frame)))
        assert _status_of(raw) == 400
        error = decode_message(_body_of(raw))
        assert isinstance(error, WireErrorMessage)
        assert error.code == ERR_VERSION

    def test_garbage_body_answers_err_protocol(self, http_service):
        raw = _http(http_service.address,
                    _post("/safebrowsing/downloads", b"not a frame"))
        assert _status_of(raw) == 400
        error = decode_message(_body_of(raw))
        assert error.code == ERR_PROTOCOL

    def test_wrong_kind_for_endpoint_answers_err_protocol(self, http_service):
        # A valid FullHashRequest frame sent to the downloads endpoint.
        frame = encode_message(FullHashRequest(
            cookie=COOKIE, prefixes=(Prefix.from_int(1, 32),)))
        raw = _http(http_service.address,
                    _post("/safebrowsing/downloads", frame))
        assert _status_of(raw) == 400
        assert decode_message(_body_of(raw)).code == ERR_PROTOCOL

    def test_unknown_list_answers_err_list_not_found(self, http_service,
                                                     http_transport):
        request = UpdateRequest(
            cookie=COOKIE,
            states=(ListState("no-such-list", ChunkRange(set()),
                              ChunkRange(set())),))
        with pytest.raises(ListNotFoundError, match="no-such-list"):
            http_transport.send_update(request)

    def test_oversized_body_is_rejected(self, http_service):
        head = (f"POST /safebrowsing/downloads HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        raw = _http(http_service.address, head + b"x")
        assert _status_of(raw) == 413


class TestStrictFraming:
    """Ambiguous body lengths get one 400 and a closed connection."""

    @staticmethod
    def _refused(raw: bytes, reason: str) -> None:
        # Exactly one response: nothing after the refusal is parsed as a
        # further request on the same connection.
        assert raw.count(b"HTTP/1.1 ") == 1
        head, _, body = raw.partition(b"\r\n\r\n")
        assert _status_of(raw) == 400
        assert b"Connection: close" in head
        assert reason.encode() in body

    def test_chunked_request_is_refused_not_parsed_twice(self, http_service):
        raw = _http(http_service.address,
                    b"POST /safebrowsing/gethash HTTP/1.1\r\nHost: t\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                    b"5\r\nhello\r\n0\r\n\r\n")
        self._refused(raw, "Transfer-Encoding")

    def test_conflicting_content_lengths_are_refused(self, http_service):
        raw = _http(http_service.address,
                    b"POST /safebrowsing/gethash HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 0\r\nContent-Length: 5\r\n\r\n"
                    b"hello")
        self._refused(raw, "conflicting Content-Length")

    @pytest.mark.parametrize("length", [b"+5", b"5_0", b"-1", b"five"])
    def test_non_digit_content_length_is_refused(self, http_service, length):
        raw = _http(http_service.address,
                    b"POST /safebrowsing/gethash HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + length + b"\r\n\r\nhello")
        self._refused(raw, "ASCII digits")

    def test_identical_repeated_lengths_are_served(self, http_service):
        body = _update_request()
        head = (f"POST /safebrowsing/downloads HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        raw = _http(http_service.address, head + body)
        assert _status_of(raw) == 200
        assert isinstance(decode_message(_body_of(raw)), UpdateResponse)


class TestConnections:
    def test_keep_alive_reuses_one_connection(self, http_service,
                                              http_transport):
        request = UpdateRequest(
            cookie=COOKIE,
            states=(ListState("goog-malware-shavar", ChunkRange(set()),
                              ChunkRange(set())),))
        http_transport.send_update(request)
        http_transport.send_update(request)
        http_transport.send_update(request)
        assert http_transport.stats.connections_opened == 1
        assert http_transport.stats.requests_sent == 3

    def test_connection_gauge_and_peak(self, http_service):
        service = http_service.service
        with socket.create_connection(http_service.address, timeout=5.0):
            with socket.create_connection(http_service.address, timeout=5.0):
                # Poke the service so the accepts have definitely landed.
                _http(http_service.address,
                      b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                      b"Connection: close\r\n\r\n")
        assert service.peak_connections >= 3


class TestLifecycle:
    def test_restart_rebinds_the_same_port(self, google_server):
        first = ServiceThread(google_server).start()
        host, port = first.address
        first.stop()
        second = ServiceThread(google_server, host=host, port=port).start()
        try:
            assert second.address == (host, port)
            raw = _http(second.address,
                        _post("/safebrowsing/downloads", _update_request()))
            assert _status_of(raw) == 200
        finally:
            second.stop()

    def test_stop_is_idempotent(self, google_server):
        thread = ServiceThread(google_server).start()
        thread.stop()
        thread.stop()

    def test_address_requires_running_service(self, google_server):
        thread = ServiceThread(google_server)
        with pytest.raises(TransportError, match="not running"):
            thread.address

    def test_serve_in_thread_context_manager(self, google_server):
        with serve_in_thread(google_server) as service:
            raw = _http(service.address,
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                        b"Connection: close\r\n\r\n")
            assert _status_of(raw) == 200

    def test_port_collision_surfaces_as_transport_error(self, http_service):
        host, port = http_service.address
        with pytest.raises(TransportError, match="failed to start"):
            ServiceThread(http_service.core, host=host, port=port).start()
