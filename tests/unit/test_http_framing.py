"""Unit tests: the strict HTTP/1.1 framing rules both ends share.

The service (:class:`~repro.safebrowsing.netservice.NetService`) and the
socket transport (:class:`~repro.safebrowsing.httptransport.HttpTransport`)
read body lengths through the same parsers, so a message framed two ways
is refused by both.  These are the pure parsers, without sockets; the
connection behaviour is in the ``network`` tier.
"""

from __future__ import annotations

import pytest

from repro.safebrowsing.netservice import (
    NetService,
    body_length,
    content_length,
    parse_headers,
)


class TestContentLength:
    @pytest.mark.parametrize("text, expected", [
        ("0", 0), ("5", 5), ("007", 7), ("67108928", 67108928),
    ])
    def test_ascii_digits_parse(self, text, expected):
        assert content_length(text) == expected

    @pytest.mark.parametrize("text", [
        "", "+5", "-5", "1_000", " 5", "5 ", "5,5", "0x10", "5.0", "٥", "²",
        "1e3",
    ])
    def test_anything_else_is_refused(self, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            content_length(text)


class TestParseHeaders:
    def test_names_are_case_folded_and_values_stripped(self):
        assert parse_headers(["Content-Length:  12 ", "X-A: b", ""]) == {
            "content-length": "12", "x-a": "b"}

    def test_identical_content_lengths_are_one(self):
        assert parse_headers(["Content-Length: 5", "content-length: 5"]) == {
            "content-length": "5"}

    def test_conflicting_content_lengths_are_refused(self):
        with pytest.raises(ValueError, match="conflicting Content-Length"):
            parse_headers(["Content-Length: 0", "Content-Length: 5"])

    def test_other_repeats_keep_the_last_value(self):
        assert parse_headers(["X-A: 1", "X-A: 2"]) == {"x-a": "2"}

    def test_line_without_colon_is_refused(self):
        with pytest.raises(ValueError, match="bad header line"):
            parse_headers(["no colon here"])


class TestBodyLength:
    def test_missing_length_takes_the_default(self):
        assert body_length({}) == 0
        with pytest.raises(ValueError, match="no Content-Length"):
            body_length({}, default=None)

    @pytest.mark.parametrize("encoding", ["chunked", "identity", "gzip"])
    def test_any_transfer_encoding_is_refused(self, encoding):
        with pytest.raises(ValueError, match="Transfer-Encoding"):
            body_length({"transfer-encoding": encoding, "content-length": "5"})

    def test_signed_length_is_refused(self):
        with pytest.raises(ValueError, match="ASCII digits"):
            body_length({"content-length": "+5"})


class TestRequestHead:
    def test_request_head_parses(self):
        head = (b"POST /safebrowsing/gethash HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 98\r\n\r\n")
        method, path, headers = NetService._parse_head(head)
        assert (method, path) == ("POST", "/safebrowsing/gethash")
        assert body_length(headers) == 98

    def test_conflicting_lengths_in_a_request_head_are_refused(self):
        head = (b"POST / HTTP/1.1\r\nContent-Length: 0\r\n"
                b"Content-Length: 5\r\n\r\n")
        with pytest.raises(ValueError, match="conflicting"):
            NetService._parse_head(head)
