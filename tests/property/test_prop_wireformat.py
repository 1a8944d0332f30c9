"""Property tests: the wire codec round-trips and rejects all corruption.

Two halves of the wire-format contract are pinned here:

* **round-trip identity** — ``decode_message(encode_message(m)) == m`` for
  every message kind the codec speaks, over generated payloads that cover
  empty/singleton/large collections, every prefix width, extreme floats
  and non-ASCII text;
* **loud failure** — a frame that is not exactly one well-formed message
  raises :class:`~repro.exceptions.WireError`: *every* single-byte
  corruption at *every* offset, every truncation length, trailing bytes,
  bad magic, unknown versions/kinds and oversized declared payloads.  The
  style mirrors the snapshot layer's ``SnapshotError`` corruption sweep.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ProtocolError, WireError
from repro.hashing.digests import FullHash
from repro.hashing.prefix import Prefix
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
    ERROR_CODES,
    FRAME_HEADER_SIZE,
    FRAME_TRAILER_SIZE,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MESSAGE_TYPES,
    MessageKind,
    WIRE_VERSION,
    WireErrorMessage,
    decode_message,
    encode_message,
    parse_header,
)

# -- strategies --------------------------------------------------------------

_prefix_bits = st.sampled_from((8, 16, 32, 64, 128, 256))


def _prefixes_of_width(bits: int):
    return st.binary(min_size=bits // 8, max_size=bits // 8).map(
        lambda value: Prefix(value, bits))


_prefixes = _prefix_bits.flatmap(_prefixes_of_width)
_timestamps = st.floats(min_value=0.0, max_value=2**48,
                        allow_nan=False, allow_infinity=False)
_cookies = st.text(min_size=1, max_size=40).map(SafeBrowsingCookie)
_list_names = st.sampled_from(
    ("goog-malware-shavar", "googpub-phish-shavar", "ydx-porno-hosts-top",
     "unicode-листы", "x"))
_chunk_numbers = st.integers(min_value=1, max_value=2**32 - 1)
_chunk_ranges = st.frozensets(_chunk_numbers, max_size=12).map(
    lambda numbers: ChunkRange(set(numbers)))


@st.composite
def _chunks(draw):
    # A list database has one width, so a chunk draws one width for all
    # of its prefixes (mixed widths are a protocol error).
    kind = draw(st.sampled_from((ChunkKind.ADD, ChunkKind.SUB)))
    referenced = (draw(st.one_of(st.none(), _chunk_numbers))
                  if kind is ChunkKind.SUB else None)
    bits = draw(_prefix_bits)
    return Chunk(number=draw(_chunk_numbers), kind=kind,
                 prefixes=tuple(draw(st.lists(_prefixes_of_width(bits),
                                              max_size=6))),
                 referenced_add_chunk=referenced)


_list_states = st.builds(ListState, list_name=_list_names,
                         add_chunks=_chunk_ranges, sub_chunks=_chunk_ranges)
_list_updates = st.builds(
    ListUpdate, list_name=_list_names,
    add_chunks=st.lists(_chunks(), max_size=4).map(tuple),
    sub_chunks=st.lists(_chunks(), max_size=4).map(tuple))
_matches = st.builds(
    FullHashMatch, list_name=_list_names, prefix=_prefixes,
    full_hash=st.binary(min_size=32, max_size=32).map(FullHash))

_update_requests = st.builds(
    UpdateRequest, cookie=_cookies,
    states=st.lists(_list_states, max_size=5).map(tuple),
    timestamp=_timestamps)
_update_responses = st.builds(
    UpdateResponse, updates=st.lists(_list_updates, max_size=4).map(tuple),
    next_poll_seconds=_timestamps, timestamp=_timestamps)
_full_hash_requests = st.builds(
    FullHashRequest, cookie=_cookies,
    prefixes=st.lists(_prefixes, min_size=1, max_size=8).map(tuple),
    timestamp=_timestamps)
_full_hash_responses = st.builds(
    FullHashResponse, matches=st.lists(_matches, max_size=6).map(tuple),
    cache_lifetime_seconds=_timestamps, timestamp=_timestamps)
_errors = st.builds(WireErrorMessage, code=st.sampled_from(ERROR_CODES),
                    message=st.text(max_size=60))

_messages = st.one_of(_update_requests, _update_responses,
                      _full_hash_requests, _full_hash_responses, _errors)


# -- round trips -------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_messages)
    def test_decode_inverts_encode(self, message):
        frame = encode_message(message)
        assert decode_message(frame) == message

    @settings(max_examples=60, deadline=None)
    @given(_messages)
    def test_frame_layout(self, message):
        frame = encode_message(message)
        assert frame[:4] == MAGIC
        assert frame[4] == WIRE_VERSION
        kind, length = parse_header(frame[:FRAME_HEADER_SIZE])
        assert kind == MessageKind(frame[5])
        assert len(frame) == FRAME_HEADER_SIZE + length + FRAME_TRAILER_SIZE

    @settings(max_examples=60, deadline=None)
    @given(_messages)
    def test_encoding_is_deterministic(self, message):
        assert encode_message(message) == encode_message(message)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_prefixes, min_size=2, max_size=8).filter(
        lambda prefixes: len({prefix.bits for prefix in prefixes}) > 1))
    def test_mixed_width_chunk_is_a_protocol_error(self, prefixes):
        with pytest.raises(ProtocolError, match="one width"):
            Chunk(number=1, kind=ChunkKind.ADD, prefixes=tuple(prefixes))

    def test_every_registered_message_type_round_trips(self):
        samples = {
            UpdateRequest: UpdateRequest(
                cookie=SafeBrowsingCookie("c"), states=()),
            UpdateResponse: UpdateResponse(
                updates=(), next_poll_seconds=1800.0, timestamp=2.0),
            FullHashRequest: FullHashRequest(
                cookie=SafeBrowsingCookie("c"),
                prefixes=(Prefix.from_int(7, 32),)),
            FullHashResponse: FullHashResponse(
                matches=(), cache_lifetime_seconds=300.0, timestamp=3.0),
            WireErrorMessage: WireErrorMessage(ERROR_CODES[0], "boom"),
        }
        assert set(samples) == set(MESSAGE_TYPES)
        for message in samples.values():
            assert decode_message(encode_message(message)) == message


# -- corruption --------------------------------------------------------------


def _sample_frame() -> bytes:
    return encode_message(UpdateRequest(
        cookie=SafeBrowsingCookie("cookie-1"),
        states=(ListState("goog-malware-shavar",
                          ChunkRange({1, 2, 3}), ChunkRange(set())),),
        timestamp=42.0))


class TestCorruption:
    def test_every_single_byte_corruption_raises(self):
        frame = _sample_frame()
        for offset in range(len(frame)):
            for flip in (0x01, 0xFF):
                corrupted = bytearray(frame)
                corrupted[offset] ^= flip
                with pytest.raises(WireError):
                    decode_message(bytes(corrupted))

    def test_every_truncation_raises(self):
        frame = _sample_frame()
        for length in range(len(frame)):
            with pytest.raises(WireError):
                decode_message(frame[:length])

    @settings(max_examples=60, deadline=None)
    @given(_messages, st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_raise(self, message, tail):
        with pytest.raises(WireError):
            decode_message(encode_message(message) + tail)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=64))
    def test_random_bytes_never_decode_silently(self, junk):
        # Anything that is not a frame we produced either decodes to a
        # valid message (astronomically unlikely) or raises WireError —
        # never any other exception type.
        try:
            decode_message(junk)
        except WireError:
            pass

    def test_unsupported_version_is_refused(self):
        frame = bytearray(_sample_frame())
        frame[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="unsupported wire version"):
            parse_header(bytes(frame[:FRAME_HEADER_SIZE]))

    def test_unknown_kind_is_refused(self):
        frame = bytearray(_sample_frame())
        frame[5] = 250
        with pytest.raises(WireError, match="unknown message kind"):
            parse_header(bytes(frame[:FRAME_HEADER_SIZE]))

    def test_oversized_declared_payload_is_refused_before_allocation(self):
        header = (MAGIC + bytes([WIRE_VERSION, int(MessageKind.ERROR)])
                  + struct.pack(">I", MAX_PAYLOAD_BYTES + 1))
        with pytest.raises(WireError, match="exceeds"):
            parse_header(header)
