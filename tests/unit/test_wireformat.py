"""Unit tests: the wire codec's validation paths, one by one.

The property suite (``tests/property/test_prop_wireformat.py``) sweeps
round trips and blind corruption; here every *named* failure mode gets a
direct test so a regression points at the exact check that broke.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import pytest

from repro.exceptions import ProtocolError, WireError
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix, PrefixRun
from repro.safebrowsing import wireformat
from repro.safebrowsing.chunks import Chunk, ChunkKind, ChunkRange
from repro.safebrowsing.cookie import SafeBrowsingCookie
from repro.safebrowsing.protocol import (
    FullHashMatch,
    FullHashRequest,
    FullHashResponse,
    ListState,
    ListUpdate,
    UpdateRequest,
    UpdateResponse,
)
from repro.safebrowsing.wireformat import (
    ERR_INTERNAL,
    ERR_LIST_NOT_FOUND,
    ERR_PROTOCOL,
    ERR_VERSION,
    ERROR_CODES,
    FRAME_HEADER_SIZE,
    FRAME_TRAILER_SIZE,
    MAGIC,
    MessageKind,
    WIRE_VERSION,
    WireErrorMessage,
    decode_message,
    encode_message,
    parse_header,
)


def _frame_with_payload(kind: MessageKind, payload: bytes) -> bytes:
    """Hand-build a checksum-valid frame around an arbitrary payload."""
    body = (bytes([WIRE_VERSION, int(kind)])
            + struct.pack(">I", len(payload)) + payload)
    return MAGIC + body + struct.pack(">I", zlib.crc32(body))


class TestEncode:
    def test_unencodable_type_is_named(self):
        with pytest.raises(WireError, match="cannot encode str"):
            encode_message("not a protocol message")

    def test_wire_error_is_a_protocol_error(self):
        # Callers catching the protocol family catch wire faults too.
        assert issubclass(WireError, ProtocolError)

    def test_error_codes_are_distinct(self):
        assert len(set(ERROR_CODES)) == len(ERROR_CODES) == 4
        assert {ERR_PROTOCOL, ERR_LIST_NOT_FOUND, ERR_INTERNAL,
                ERR_VERSION} == set(ERROR_CODES)

    def test_error_message_rejects_unknown_code(self):
        with pytest.raises(WireError, match="unknown wire error code"):
            WireErrorMessage(code=99, message="nope")


class TestHeader:
    def test_short_header(self):
        with pytest.raises(WireError, match="truncated frame header"):
            parse_header(MAGIC)

    def test_bad_magic_names_both_values(self):
        header = b"HTTP" + bytes(FRAME_HEADER_SIZE - 4)
        with pytest.raises(WireError, match="SBWF.*HTTP"):
            parse_header(header)

    def test_header_of_valid_frame(self):
        frame = encode_message(WireErrorMessage(ERR_PROTOCOL, "x"))
        kind, length = parse_header(frame[:FRAME_HEADER_SIZE])
        assert kind is MessageKind.ERROR
        assert (FRAME_HEADER_SIZE + length + FRAME_TRAILER_SIZE
                == len(frame))


class TestPayloadValidation:
    def test_empty_cookie_is_refused(self):
        # A hand-built frame whose cookie field is a zero-length string.
        payload = (struct.pack(">I", 0)          # cookie text length 0
                   + struct.pack(">H", 0)        # no list states
                   + struct.pack(">d", 0.0))     # timestamp
        frame = _frame_with_payload(MessageKind.UPDATE_REQUEST, payload)
        with pytest.raises(WireError, match="cookie must not be empty"):
            decode_message(frame)

    def test_invalid_prefix_width_is_refused(self):
        payload = (struct.pack(">I", 1) + b"c"   # cookie "c"
                   + struct.pack(">I", 1)        # one prefix
                   + struct.pack(">H", 12)       # width 12: not a byte multiple
                   + b"\x00\x00"
                   + struct.pack(">d", 0.0))
        frame = _frame_with_payload(MessageKind.FULL_HASH_REQUEST, payload)
        with pytest.raises(WireError, match="prefix width"):
            decode_message(frame)

    def test_zero_prefix_full_hash_request_is_refused(self):
        payload = (struct.pack(">I", 1) + b"c"
                   + struct.pack(">I", 0)        # zero prefixes
                   + struct.pack(">d", 0.0))
        frame = _frame_with_payload(MessageKind.FULL_HASH_REQUEST, payload)
        with pytest.raises(WireError, match="at least one prefix"):
            decode_message(frame)

    def test_unknown_chunk_kind_byte_is_refused(self):
        payload = (struct.pack(">H", 1)                    # one list update
                   + struct.pack(">I", 1) + b"l"           # list name "l"
                   + struct.pack(">I", 1)                  # one add chunk
                   + struct.pack(">I", 1) + bytes([7]))    # kind byte 7
        frame = _frame_with_payload(MessageKind.UPDATE_RESPONSE, payload)
        with pytest.raises(WireError, match="unknown chunk kind byte 7"):
            decode_message(frame)

    def test_invalid_chunk_range_text_is_refused(self):
        request = UpdateRequest(
            cookie=SafeBrowsingCookie("c"),
            states=(ListState("l", ChunkRange({1}), ChunkRange(set())),))
        frame = bytearray(encode_message(request))
        # Replace the add-range text "1" with garbage and re-checksum.
        index = frame.index(b"1", FRAME_HEADER_SIZE)
        frame[index:index + 1] = b"?"
        body = bytes(frame[4:-FRAME_TRAILER_SIZE])
        frame[-FRAME_TRAILER_SIZE:] = struct.pack(">I", zlib.crc32(body))
        with pytest.raises(WireError, match="add chunk range"):
            decode_message(bytes(frame))

    def test_non_utf8_text_is_refused(self):
        payload = (struct.pack(">I", 2) + b"\xff\xfe"      # invalid UTF-8
                   + struct.pack(">H", 0)
                   + struct.pack(">d", 0.0))
        frame = _frame_with_payload(MessageKind.UPDATE_REQUEST, payload)
        with pytest.raises(WireError, match="not valid UTF-8"):
            decode_message(frame)

    def test_error_message_round_trip(self):
        for code in ERROR_CODES:
            message = WireErrorMessage(code, f"reason {code}")
            assert decode_message(encode_message(message)) == message

    def test_full_hash_request_round_trip_all_widths(self):
        for bits in (8, 16, 32, 64, 128, 256):
            request = FullHashRequest(
                cookie=SafeBrowsingCookie("c"),
                prefixes=(Prefix(bytes(bits // 8), bits),))
            assert decode_message(encode_message(request)) == request


# -- chunk prefix blocks -------------------------------------------------------


def _prefixes(count: int, bits: int, seed: str) -> tuple[Prefix, ...]:
    return tuple(
        Prefix(hashlib.sha256(f"{seed}/{index}".encode()).digest()[:bits // 8],
               bits)
        for index in range(count))


def _golden_update_response() -> UpdateResponse:
    """Several lists and chunks: widths 8-256, an empty chunk, an empty list."""
    return UpdateResponse(
        updates=(
            ListUpdate("goog-malware-shavar",
                       add_chunks=(Chunk(1, ChunkKind.ADD, _prefixes(300, 32, "a1")),
                                   Chunk(2, ChunkKind.ADD, _prefixes(1, 32, "a2")),
                                   Chunk(3, ChunkKind.ADD, ())),
                       sub_chunks=(Chunk(1, ChunkKind.SUB, _prefixes(17, 32, "s1"),
                                         referenced_add_chunk=2),)),
            ListUpdate("googpub-phish-shavar",
                       add_chunks=(Chunk(7, ChunkKind.ADD, _prefixes(40, 8, "b7")),
                                   Chunk(8, ChunkKind.ADD, _prefixes(5, 256, "b8"))),
                       sub_chunks=(Chunk(2, ChunkKind.SUB, _prefixes(3, 80, "t2")),)),
            ListUpdate("ydx-porno-hosts-top"),
        ),
        next_poll_seconds=1800.0, timestamp=1234.5)


def _golden_full_hash_request() -> FullHashRequest:
    """Mixed 16/32/64-bit prefixes, as a widening client sends them."""
    return FullHashRequest(
        cookie=SafeBrowsingCookie("golden-cookie-7f3a"),
        prefixes=(Prefix(bytes.fromhex("e70e"), 16),
                  Prefix.from_int(0xE70EE6D1, 32),
                  Prefix(bytes.fromhex("0011223344556677"), 64),
                  Prefix.from_int(0x00000001, 32),
                  Prefix(bytes.fromhex("ffff"), 16)),
        timestamp=98765.25)


def _golden_full_hash_response() -> FullHashResponse:
    """Matches from two lists, interleaved, at three prefix widths."""
    def match(list_name: str, expression: str, bits: int) -> FullHashMatch:
        full_hash = FullHash.of(expression)
        return FullHashMatch(list_name, full_hash.prefix(bits), full_hash)

    return FullHashResponse(
        matches=(match("goog-malware-shavar", "evil.example.com/", 32),
                 match("goog-malware-shavar", "bad.example.org/x", 32),
                 match("googpub-phish-shavar", "phishy.example.net/login", 32),
                 match("googpub-phish-shavar", "evil.example.com/", 16),
                 match("goog-malware-shavar", "evil.example.com/", 64)),
        cache_lifetime_seconds=2700.0, timestamp=1234.5)


class TestGoldenGethashFrames:
    """Pinned from the per-value codec: lean decoding must not move a byte."""

    def test_golden_full_hash_request_bytes(self):
        frame = encode_message(_golden_full_hash_request())
        assert len(frame) == 78
        assert hashlib.sha256(frame).hexdigest() == (
            "faaffd956b8a21ac19becbf42053cb49970dc7c75c43a509173c1550d2521407")
        assert decode_message(frame) == _golden_full_hash_request()

    def test_golden_full_hash_response_bytes(self):
        frame = encode_message(_golden_full_hash_response())
        assert len(frame) == 343
        assert hashlib.sha256(frame).hexdigest() == (
            "e07b6af778dc275df1a8f0b679912a6a73a9d498cfc6ee8643569f497636d5d2")
        decoded = decode_message(frame)
        assert decoded == _golden_full_hash_response()
        # Repeated list names decode to one string per frame.
        names = {id(match.list_name) for match in decoded.matches}
        assert len(names) == 2

    def test_decoded_values_are_hashable_bytes(self):
        frame = bytearray(encode_message(_golden_full_hash_response()))
        decoded = decode_message(frame)
        for match in decoded.matches:
            assert type(match.prefix.value) is bytes
            assert type(match.full_hash.digest) is bytes
        assert len({match.prefix for match in decoded.matches}) == 5


def _chunk_frame(prefixes) -> tuple[bytes, int]:
    """An update-response frame around one add chunk; also its block offset."""
    frame = encode_message(UpdateResponse(updates=(
        ListUpdate("l", add_chunks=(Chunk(1, ChunkKind.ADD, prefixes),)),)))
    # payload: u16 update count, text "l", u32 add count, u32 number,
    # u8 kind, u8 reference flag, u32 prefix count, then the block.
    block_start = FRAME_HEADER_SIZE + 2 + (4 + 1) + 4 + 4 + 1 + 1 + 4
    return frame, block_start


def _reseal(frame: bytes | bytearray) -> bytes:
    """Recompute the CRC so a payload edit reaches the payload decoder."""
    body = bytes(frame[4:-FRAME_TRAILER_SIZE])
    return bytes(frame[:4]) + body + struct.pack(">I", zlib.crc32(body))


def _per_prefix_run(reader, count):
    return tuple(wireformat._decode_prefix(reader) for _ in range(count))


def _outcome(frame: bytes):
    try:
        return decode_message(frame)
    except WireError as error:
        return f"WireError: {error}"


class TestChunkPrefixBlock:
    def test_golden_update_response_bytes(self):
        # Pinned from the per-prefix encoder: packed runs must not move a byte.
        frame = encode_message(_golden_update_response())
        assert len(frame) == 2434
        assert hashlib.sha256(frame).hexdigest() == (
            "e8e0ebbaac19e9eed4677242e421215111d4637762fb30210d345a2509340482")
        assert decode_message(frame) == _golden_update_response()

    def test_decoded_chunks_hold_runs(self):
        update = decode_message(encode_message(_golden_update_response()))
        for list_update in update.updates:
            for chunk in list_update.add_chunks + list_update.sub_chunks:
                assert isinstance(chunk.prefixes, PrefixRun)

    def test_mixed_width_chunk_on_the_wire_is_refused(self):
        payload = (struct.pack(">H", 1)                   # one list update
                   + struct.pack(">I", 1) + b"l"          # list name "l"
                   + struct.pack(">I", 1)                 # one add chunk
                   + struct.pack(">I", 1) + bytes([0, 0])  # number 1, add, no ref
                   + struct.pack(">I", 2)                 # two prefixes
                   + struct.pack(">H", 32) + b"\x01\x02\x03\x04"
                   + struct.pack(">H", 16) + b"\x05\x06"
                   + struct.pack(">I", 0)                 # no sub chunks
                   + struct.pack(">dd", 1800.0, 0.0))
        frame = _frame_with_payload(MessageKind.UPDATE_RESPONSE, payload)
        with pytest.raises(WireError, match="invalid chunk.*one width"):
            decode_message(frame)

    def test_every_byte_of_a_large_prefix_block_is_protected(self):
        prefixes = _prefixes(1000, 32, "big")
        frame, start = _chunk_frame(prefixes)
        end = start + 1000 * 6
        assert frame[start:start + 2] == struct.pack(">H", 32)
        for offset in range(start, end):
            for flip in (0x01, 0xFF):
                corrupted = bytearray(frame)
                corrupted[offset] ^= flip
                with pytest.raises(WireError):
                    decode_message(bytes(corrupted))

    def test_resealed_width_corruption_is_refused_at_every_prefix(self):
        # With the CRC recomputed, a flipped width field must still be
        # refused — the run fast path may not accept what the per-prefix
        # decoder rejects.  Both flips of either byte of 0x0020 give an
        # invalid width (0x0021, 0x00df, 0x0120, 0xff20).
        prefixes = _prefixes(1000, 32, "big")
        frame, start = _chunk_frame(prefixes)
        for index in range(1000):
            for offset in (start + 6 * index, start + 6 * index + 1):
                corrupted = bytearray(frame)
                corrupted[offset] ^= 0xFF
                with pytest.raises(WireError, match="prefix width"):
                    decode_message(_reseal(corrupted))

    def test_resealed_value_corruption_decodes_to_that_value(self):
        prefixes = _prefixes(1000, 32, "big")
        frame, start = _chunk_frame(prefixes)
        packed = PrefixRun(prefixes).packed
        for index in range(1000):
            for column in range(4):
                corrupted = bytearray(frame)
                corrupted[start + 6 * index + 2 + column] ^= 0x01
                expected = bytearray(packed)
                expected[4 * index + column] ^= 0x01
                (update,) = decode_message(_reseal(corrupted)).updates
                assert update.add_chunks[0].prefixes == PrefixRun.from_packed(
                    expected, 32)

    @pytest.mark.parametrize("bits", (8, 32, 256))
    def test_fast_path_agrees_with_the_per_prefix_decoder(self, bits,
                                                          monkeypatch):
        frame, start = _chunk_frame(_prefixes(24, bits, f"w{bits}"))
        cases = []
        for offset in range(start, len(frame) - FRAME_TRAILER_SIZE):
            for flip in (0x01, 0x80, 0xFF):
                corrupted = bytearray(frame)
                corrupted[offset] ^= flip
                cases.append(_reseal(corrupted))
        fast = [_outcome(case) for case in cases]
        monkeypatch.setattr(wireformat, "_decode_prefix_run", _per_prefix_run)
        reference = [_outcome(case) for case in cases]
        assert fast == reference
