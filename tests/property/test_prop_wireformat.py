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
import zlib

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


# -- gethash frames against a per-value reference decoder -------------------


class _ReferenceReader:
    """Bounds-checked cursor, as the codec's reader words its failures."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, size: int, what: str) -> bytes:
        remaining = len(self._data) - self._pos
        if size > remaining:
            raise WireError(
                f"truncated payload: {what} needs {size} bytes "
                f"at offset {self._pos}, only {remaining} left")
        chunk = self._data[self._pos:self._pos + size]
        self._pos += size
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def text(self, what: str) -> str:
        raw = self.take(self.unpack(">I", f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"{what} is not valid UTF-8: {exc}") from exc


def _reference_prefix(reader: _ReferenceReader) -> Prefix:
    bits = reader.unpack(">H", "prefix width")
    if bits % 8 != 0 or not (8 <= bits <= 256):
        raise WireError(
            f"prefix width must be a multiple of 8 in [8, 256], got {bits}")
    return Prefix(reader.take(bits // 8, "prefix value"), bits)


def _reference_decode(frame: bytes):
    """Gethash frames decoded value by value, every value validated.

    A self-contained copy of the per-value codec: the enum call on the
    kind byte, ``Prefix(...)`` and ``FullHash(...)`` constructors for every
    value and one UTF-8 decode per list name.
    """
    if len(frame) < FRAME_HEADER_SIZE:
        raise WireError(
            f"truncated frame header: expected {FRAME_HEADER_SIZE} bytes, "
            f"got {len(frame)}")
    if frame[:4] != MAGIC:
        raise WireError(
            f"bad frame magic: expected {MAGIC!r}, got {bytes(frame[:4])!r}")
    if frame[4] != WIRE_VERSION:
        raise WireError(f"unsupported wire version {frame[4]}; "
                        f"this codec speaks version {WIRE_VERSION}")
    try:
        kind = MessageKind(frame[5])
    except ValueError:
        raise WireError(
            f"unknown message kind byte {frame[5]}; expected one of "
            f"{sorted(int(kind) for kind in MessageKind)}") from None
    (length,) = struct.unpack(">I", frame[6:10])
    if length > MAX_PAYLOAD_BYTES:
        raise WireError(f"declared payload of {length} bytes exceeds the "
                        f"{MAX_PAYLOAD_BYTES}-byte frame bound")
    expected = FRAME_HEADER_SIZE + length + FRAME_TRAILER_SIZE
    if len(frame) != expected:
        raise WireError(
            f"frame of {len(frame)} bytes does not match its header: "
            f"a {length}-byte payload needs exactly {expected} bytes")
    body = frame[4:FRAME_HEADER_SIZE + length]
    (declared,) = struct.unpack(">I", frame[FRAME_HEADER_SIZE + length:])
    if declared != zlib.crc32(body):
        raise WireError(f"frame checksum mismatch: expected {declared:#010x}, "
                        f"computed {zlib.crc32(body):#010x}")
    reader = _ReferenceReader(frame[FRAME_HEADER_SIZE:FRAME_HEADER_SIZE + length])
    if kind is MessageKind.FULL_HASH_REQUEST:
        cookie = reader.text("cookie")
        if not cookie:
            raise WireError("cookie must not be empty")
        count = reader.unpack(">I", "prefix count")
        if count == 0:
            raise WireError("a full-hash request frame must carry at least "
                            "one prefix, got 0")
        prefixes = tuple(_reference_prefix(reader) for _ in range(count))
        message = FullHashRequest(cookie=SafeBrowsingCookie(cookie),
                                  prefixes=prefixes,
                                  timestamp=reader.unpack(">d", "timestamp"))
    elif kind is MessageKind.FULL_HASH_RESPONSE:
        matches = []
        for _ in range(reader.unpack(">I", "match count")):
            list_name = reader.text("match list name")
            prefix = _reference_prefix(reader)
            digest = reader.take(32, "full hash digest")
            matches.append(FullHashMatch(list_name=list_name, prefix=prefix,
                                         full_hash=FullHash(digest)))
        message = FullHashResponse(
            matches=tuple(matches),
            cache_lifetime_seconds=reader.unpack(">d", "cache lifetime"),
            timestamp=reader.unpack(">d", "timestamp"))
    else:
        return kind  # another kind: only the header was compared
    left = len(reader._data) - reader._pos
    if left:
        raise WireError(f"payload has {left} trailing byte(s) after a complete "
                        f"message (expected exactly {reader._pos} bytes)")
    return message


def _outcome(decode, frame: bytes):
    try:
        return decode(frame)
    except WireError as error:
        return f"WireError: {error}"


@st.composite
def _gethash_frames(draw):
    """A valid gethash frame, or one with a single corrupted byte.

    Half of the corrupted frames get a fresh CRC, so the corruption reaches
    the payload decoder instead of stopping at the checksum.
    """
    frame = bytearray(encode_message(draw(st.one_of(
        _full_hash_requests, _full_hash_responses))))
    if draw(st.booleans()):
        frame[draw(st.integers(0, len(frame) - 1))] ^= draw(st.integers(1, 255))
        if draw(st.booleans()):
            body = bytes(frame[4:-FRAME_TRAILER_SIZE])
            frame[-FRAME_TRAILER_SIZE:] = struct.pack(">I", zlib.crc32(body))
    return bytes(frame)


class TestGethashDecoderEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(_gethash_frames())
    def test_decoder_equals_the_per_value_reference(self, frame):
        reference = _outcome(_reference_decode, frame)
        actual = _outcome(decode_message, frame)
        if isinstance(reference, MessageKind):
            # A corrupted kind byte named a kind the gethash path does not
            # use: the codec raises or decodes a message of that kind.
            kinds = {UpdateRequest: MessageKind.UPDATE_REQUEST,
                     UpdateResponse: MessageKind.UPDATE_RESPONSE,
                     WireErrorMessage: MessageKind.ERROR}
            assert isinstance(actual, str) or kinds[type(actual)] is reference
            return
        assert actual == reference

    def test_every_resealed_byte_edit_matches_the_reference(self):
        # Each offset of a mixed-width request and a two-list response is
        # set to boundary values and flipped, with a fresh CRC so the edit
        # reaches the payload decoder.
        request = FullHashRequest(
            cookie=SafeBrowsingCookie("c\u00e9"),
            prefixes=(Prefix(b"\x01\x02", 16), Prefix(b"\x01\x02\x03\x04", 32),
                      Prefix(bytes(range(8)), 64)),
            timestamp=7.5)
        digest = FullHash(bytes(range(32)))
        response = FullHashResponse(matches=(
            FullHashMatch("goog-malware-shavar", Prefix(bytes(range(4)), 32),
                          digest),
            FullHashMatch("unicode-листы", Prefix(bytes(range(2)), 16), digest),
            FullHashMatch("goog-malware-shavar", Prefix(bytes(range(4)), 32),
                          digest)), timestamp=3.0)
        for message in (request, response):
            frame = encode_message(message)
            for offset in range(len(frame) - FRAME_TRAILER_SIZE):
                for value in {0x00, 0xFF, frame[offset] ^ 0x01,
                              frame[offset] ^ 0x20, frame[offset] ^ 0x80}:
                    edited = bytearray(frame)
                    edited[offset] = value
                    body = bytes(edited[4:-FRAME_TRAILER_SIZE])
                    edited[-FRAME_TRAILER_SIZE:] = struct.pack(
                        ">I", zlib.crc32(body))
                    reference = _outcome(_reference_decode, bytes(edited))
                    if not isinstance(reference, MessageKind):
                        assert _outcome(decode_message, bytes(edited)) == \
                            reference, (offset, value)
