"""Versioned, length-prefixed wire format for the network service.

The in-process transports pass protocol dataclasses by reference; a real
socket needs bytes.  This module is the *one* codec shared by the client
(:mod:`repro.safebrowsing.httptransport`) and the server
(:mod:`repro.safebrowsing.netservice`), so the two can never disagree about
what crosses the wire.

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     magic  b"SBWF"
    4       1     format version (currently 1)
    5       1     message kind (:class:`MessageKind`)
    6       4     payload length in bytes
    10      n     payload (kind-specific encoding)
    10+n    4     CRC-32 of bytes [4, 10+n) — version, kind, length, payload

The checksum covers everything after the magic, so *any* corrupted byte in
a frame raises :class:`~repro.exceptions.WireError`: the magic check, the
version/kind/length validation, the CRC, or the exact-consumption check at
the end of payload decoding catches it.  Failure messages state what was
expected and what was found, mirroring the snapshot layer's
:class:`~repro.exceptions.SnapshotError` convention.

Version negotiation is deliberately simple: the version byte is in every
frame, a decoder that does not speak it refuses the frame, and the server
answers an unsupported version with an :data:`ERR_VERSION` error frame
(error frames are version-1 — the lowest common denominator both ends
speak by construction).
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum

from repro.exceptions import WireError
from repro.hashing.digests import _valid_full_hash
from repro.hashing.prefix import Prefix, PrefixRun, _valid_prefix
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

#: First four bytes of every frame.
MAGIC = b"SBWF"

#: The one format version this codec speaks.
WIRE_VERSION = 1

#: Bytes before the payload: magic + version + kind + payload length.
FRAME_HEADER_SIZE = 10

#: Bytes after the payload: the CRC-32 trailer.
FRAME_TRAILER_SIZE = 4

#: Upper bound on a declared payload, so a corrupted or malicious length
#: field can never make a reader allocate unbounded memory.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


class MessageKind(IntEnum):
    """Discriminator byte of a frame's payload encoding."""

    UPDATE_REQUEST = 1
    UPDATE_RESPONSE = 2
    FULL_HASH_REQUEST = 3
    FULL_HASH_RESPONSE = 4
    ERROR = 5


#: Kind byte -> :class:`MessageKind`: a dict lookup costs a fraction of
#: calling the enum on every frame header.
_KINDS = {int(kind): kind for kind in MessageKind}


# -- error frames -----------------------------------------------------------

#: A malformed request (bad frame, wrong message kind for the endpoint).
ERR_PROTOCOL = 1
#: The client asked for a list the server does not serve.
ERR_LIST_NOT_FOUND = 2
#: The server failed while handling a well-formed request.
ERR_INTERNAL = 3
#: The request frame declared a wire version the server does not speak.
ERR_VERSION = 4

#: Error codes an error frame may carry (the message names the code).
ERROR_CODES = (ERR_PROTOCOL, ERR_LIST_NOT_FOUND, ERR_INTERNAL, ERR_VERSION)


@dataclass(frozen=True, slots=True)
class WireErrorMessage:
    """Payload of an :attr:`MessageKind.ERROR` frame."""

    code: int
    message: str

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise WireError(
                f"unknown wire error code {self.code}; "
                f"expected one of {ERROR_CODES}"
            )


# -- primitive readers/writers ---------------------------------------------

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


class _Reader:
    """A bounds-checked cursor over one frame's payload bytes."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, size: int, what: str) -> bytes:
        remaining = len(self._data) - self._pos
        if size > remaining:
            raise WireError(
                f"truncated payload: {what} needs {size} bytes "
                f"at offset {self._pos}, only {remaining} left"
            )
        chunk = self._data[self._pos:self._pos + size]
        self._pos += size
        return chunk

    def u8(self, what: str) -> int:
        return _U8.unpack(self.take(1, what))[0]

    def u16(self, what: str) -> int:
        return _U16.unpack(self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def f64(self, what: str) -> float:
        return _F64.unpack(self.take(8, what))[0]

    def raw(self, what: str) -> bytes:
        return self.take(self.u32(f"{what} length"), what)

    def text(self, what: str) -> str:
        return _utf8(self.raw(what), what)

    def finish(self) -> None:
        """Every payload byte must be consumed — trailing bytes are loud."""
        left = len(self._data) - self._pos
        if left:
            raise WireError(
                f"payload has {left} trailing byte(s) after a complete "
                f"message (expected exactly {self._pos} bytes)"
            )


def _utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"{what} is not valid UTF-8: {exc}") from exc


def _raw(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _text(value: str) -> bytes:
    return _raw(value.encode("utf-8"))


# -- protocol-value codecs --------------------------------------------------


def _encode_prefix(prefix: Prefix) -> bytes:
    return _U16.pack(prefix.bits) + prefix.value


def _decode_prefix(reader: _Reader) -> Prefix:
    """One ``u16 width + value`` prefix; the width is checked here once.

    ``take`` returns exactly ``bits // 8`` bytes of the (``bytes``)
    payload, so the value needs no re-validation by ``Prefix``.
    """
    bits = reader.u16("prefix width")
    if bits % 8 != 0 or not (8 <= bits <= 256):
        raise WireError(
            f"prefix width must be a multiple of 8 in [8, 256], got {bits}"
        )
    return _valid_prefix(reader.take(bits // 8, "prefix value"), bits)


def _decode_cookie(reader: _Reader) -> SafeBrowsingCookie:
    value = reader.text("cookie")
    if not value:
        raise WireError("cookie must not be empty")
    return SafeBrowsingCookie(value)


def _decode_chunk_range(reader: _Reader, what: str) -> ChunkRange:
    text = reader.text(what)
    try:
        return ChunkRange.parse(text)
    except Exception as exc:
        raise WireError(f"invalid {what} {text!r}: {exc}") from exc


def _encode_prefix_run(run: PrefixRun) -> bytes:
    """A chunk's prefix block: ``u16 width + value`` per prefix, interleaved.

    Written column by column from ``run.packed`` — the same bytes as
    encoding each prefix in turn, without creating a :class:`Prefix`.
    """
    count, width = len(run), run.bits // 8
    stride = 2 + width
    block = bytearray(count * stride)
    width_field = _U16.pack(run.bits)
    block[0::stride] = width_field[:1] * count
    block[1::stride] = width_field[1:] * count
    for column in range(width):
        block[2 + column::stride] = run.packed[column::width]
    return bytes(block)


def _decode_prefix_run(reader: _Reader, count: int) -> Sequence[Prefix]:
    """Read a chunk's ``count``-prefix block as one run.

    When the first width field is valid, the block fits in the payload and
    every width field equals the first (two stepped slice compares), the
    values are sliced out column by column.  Anything irregular goes through
    the per-prefix decoder, so malformed input raises exactly the
    :class:`WireError` it raises prefix by prefix.
    """
    data, start = reader._data, reader._pos
    if count and len(data) - start >= 2:
        (bits,) = _U16.unpack_from(data, start)
        width = bits // 8
        stride = 2 + width
        end = start + count * stride
        if bits % 8 == 0 and 8 <= bits <= 256 and end <= len(data):
            block = data[start:end]
            if (block[0::stride] == block[0:1] * count
                    and block[1::stride] == block[1:2] * count):
                packed = bytearray(count * width)
                for column in range(width):
                    packed[column::width] = block[2 + column::stride]
                reader._pos = end
                return PrefixRun.from_packed(packed, bits)
    return tuple(_decode_prefix(reader) for _ in range(count))


_CHUNK_KIND_BYTES = {ChunkKind.ADD: 0, ChunkKind.SUB: 1}
_CHUNK_KINDS = {code: kind for kind, code in _CHUNK_KIND_BYTES.items()}


def _encode_chunk(chunk: Chunk) -> bytes:
    parts = [
        _U32.pack(chunk.number),
        _U8.pack(_CHUNK_KIND_BYTES[chunk.kind]),
    ]
    if chunk.referenced_add_chunk is None:
        parts.append(_U8.pack(0))
    else:
        parts.append(_U8.pack(1))
        parts.append(_U32.pack(chunk.referenced_add_chunk))
    parts.append(_U32.pack(len(chunk.prefixes)))
    parts.append(_encode_prefix_run(chunk.prefixes))
    return b"".join(parts)


def _decode_chunk(reader: _Reader) -> Chunk:
    number = reader.u32("chunk number")
    kind_code = reader.u8("chunk kind")
    kind = _CHUNK_KINDS.get(kind_code)
    if kind is None:
        raise WireError(
            f"unknown chunk kind byte {kind_code}; "
            f"expected one of {sorted(_CHUNK_KINDS)}"
        )
    referenced = None
    has_reference = reader.u8("chunk reference flag")
    if has_reference not in (0, 1):
        raise WireError(
            f"chunk reference flag must be 0 or 1, got {has_reference}"
        )
    if has_reference:
        referenced = reader.u32("referenced add chunk")
    count = reader.u32("chunk prefix count")
    prefixes = _decode_prefix_run(reader, count)
    try:
        return Chunk(number=number, kind=kind, prefixes=prefixes,
                     referenced_add_chunk=referenced)
    except Exception as exc:
        raise WireError(f"invalid chunk on the wire: {exc}") from exc


def _encode_list_state(state: ListState) -> bytes:
    return (_text(state.list_name)
            + _text(state.add_chunks.to_wire())
            + _text(state.sub_chunks.to_wire()))


def _decode_list_state(reader: _Reader) -> ListState:
    return ListState(
        list_name=reader.text("list name"),
        add_chunks=_decode_chunk_range(reader, "add chunk range"),
        sub_chunks=_decode_chunk_range(reader, "sub chunk range"),
    )


def _encode_list_update(update: ListUpdate) -> bytes:
    parts = [_text(update.list_name), _U32.pack(len(update.add_chunks))]
    parts.extend(_encode_chunk(chunk) for chunk in update.add_chunks)
    parts.append(_U32.pack(len(update.sub_chunks)))
    parts.extend(_encode_chunk(chunk) for chunk in update.sub_chunks)
    return b"".join(parts)


def _decode_list_update(reader: _Reader) -> ListUpdate:
    list_name = reader.text("list name")
    add_count = reader.u32("add chunk count")
    add_chunks = tuple(_decode_chunk(reader) for _ in range(add_count))
    sub_count = reader.u32("sub chunk count")
    sub_chunks = tuple(_decode_chunk(reader) for _ in range(sub_count))
    return ListUpdate(list_name=list_name, add_chunks=add_chunks,
                      sub_chunks=sub_chunks)


# -- message payload codecs -------------------------------------------------


def _encode_update_request(request: UpdateRequest) -> bytes:
    parts = [_text(request.cookie.value), _U16.pack(len(request.states))]
    parts.extend(_encode_list_state(state) for state in request.states)
    parts.append(_F64.pack(request.timestamp))
    return b"".join(parts)


def _decode_update_request(reader: _Reader) -> UpdateRequest:
    cookie = _decode_cookie(reader)
    count = reader.u16("list state count")
    states = tuple(_decode_list_state(reader) for _ in range(count))
    return UpdateRequest(cookie=cookie, states=states,
                         timestamp=reader.f64("timestamp"))


def _encode_update_response(response: UpdateResponse) -> bytes:
    parts = [_U16.pack(len(response.updates))]
    parts.extend(_encode_list_update(update) for update in response.updates)
    parts.append(_F64.pack(response.next_poll_seconds))
    parts.append(_F64.pack(response.timestamp))
    return b"".join(parts)


def _decode_update_response(reader: _Reader) -> UpdateResponse:
    count = reader.u16("list update count")
    updates = tuple(_decode_list_update(reader) for _ in range(count))
    return UpdateResponse(
        updates=updates,
        next_poll_seconds=reader.f64("next poll interval"),
        timestamp=reader.f64("timestamp"),
    )


def _encode_full_hash_request(request: FullHashRequest) -> bytes:
    parts = [_text(request.cookie.value), _U32.pack(len(request.prefixes))]
    parts.extend(_encode_prefix(prefix) for prefix in request.prefixes)
    parts.append(_F64.pack(request.timestamp))
    return b"".join(parts)


def _decode_full_hash_request(reader: _Reader) -> FullHashRequest:
    cookie = _decode_cookie(reader)
    count = reader.u32("prefix count")
    if count == 0:
        raise WireError("a full-hash request frame must carry at least "
                        "one prefix, got 0")
    prefixes = tuple(_decode_prefix(reader) for _ in range(count))
    return FullHashRequest(cookie=cookie, prefixes=prefixes,
                           timestamp=reader.f64("timestamp"))


def _encode_full_hash_response(response: FullHashResponse) -> bytes:
    parts = [_U32.pack(len(response.matches))]
    for match in response.matches:
        parts.append(_text(match.list_name))
        parts.append(_encode_prefix(match.prefix))
        parts.append(match.full_hash.digest)
    parts.append(_F64.pack(response.cache_lifetime_seconds))
    parts.append(_F64.pack(response.timestamp))
    return b"".join(parts)


def _decode_full_hash_response(reader: _Reader) -> FullHashResponse:
    count = reader.u32("match count")
    matches = []
    # A response names a handful of lists many times: decode each distinct
    # name once per frame.
    names: dict[bytes, str] = {}
    for _ in range(count):
        raw_name = reader.raw("match list name")
        list_name = names.get(raw_name)
        if list_name is None:
            list_name = names[raw_name] = _utf8(raw_name, "match list name")
        prefix = _decode_prefix(reader)
        full_hash = _valid_full_hash(reader.take(32, "full hash digest"))
        matches.append(FullHashMatch(list_name, prefix, full_hash))
    return FullHashResponse(
        matches=tuple(matches),
        cache_lifetime_seconds=reader.f64("cache lifetime"),
        timestamp=reader.f64("timestamp"),
    )


def _encode_error(error: WireErrorMessage) -> bytes:
    return _U16.pack(error.code) + _text(error.message)


def _decode_error(reader: _Reader) -> WireErrorMessage:
    code = reader.u16("error code")
    message = reader.text("error message")
    if code not in ERROR_CODES:
        raise WireError(
            f"unknown wire error code {code}; expected one of {ERROR_CODES}"
        )
    return WireErrorMessage(code=code, message=message)


_ENCODERS = {
    UpdateRequest: (MessageKind.UPDATE_REQUEST, _encode_update_request),
    UpdateResponse: (MessageKind.UPDATE_RESPONSE, _encode_update_response),
    FullHashRequest: (MessageKind.FULL_HASH_REQUEST, _encode_full_hash_request),
    FullHashResponse: (MessageKind.FULL_HASH_RESPONSE,
                       _encode_full_hash_response),
    WireErrorMessage: (MessageKind.ERROR, _encode_error),
}

_DECODERS = {
    MessageKind.UPDATE_REQUEST: _decode_update_request,
    MessageKind.UPDATE_RESPONSE: _decode_update_response,
    MessageKind.FULL_HASH_REQUEST: _decode_full_hash_request,
    MessageKind.FULL_HASH_RESPONSE: _decode_full_hash_response,
    MessageKind.ERROR: _decode_error,
}

#: Messages the codec speaks (the ``encode_message`` dispatch table).
MESSAGE_TYPES = tuple(_ENCODERS)


# -- frame API --------------------------------------------------------------


def encode_message(message) -> bytes:
    """Encode one protocol message as a complete frame (header..trailer)."""
    try:
        kind, encoder = _ENCODERS[type(message)]
    except KeyError:
        raise WireError(
            f"cannot encode {type(message).__name__} on the wire; expected "
            f"one of {tuple(cls.__name__ for cls in MESSAGE_TYPES)}"
        ) from None
    payload = encoder(message)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame bound"
        )
    body = (_U8.pack(WIRE_VERSION) + _U8.pack(int(kind))
            + _U32.pack(len(payload)) + payload)
    return MAGIC + body + _U32.pack(zlib.crc32(body))


def parse_header(header: bytes) -> tuple[MessageKind, int]:
    """Validate a :data:`FRAME_HEADER_SIZE`-byte header; return (kind, length).

    Socket readers call this first to learn how many more bytes the frame
    needs (``length + FRAME_TRAILER_SIZE``).
    """
    if len(header) < FRAME_HEADER_SIZE:
        raise WireError(
            f"truncated frame header: expected {FRAME_HEADER_SIZE} bytes, "
            f"got {len(header)}"
        )
    if header[:4] != MAGIC:
        raise WireError(
            f"bad frame magic: expected {MAGIC!r}, got {bytes(header[:4])!r}"
        )
    version = header[4]
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version}; "
            f"this codec speaks version {WIRE_VERSION}"
        )
    kind_byte = header[5]
    kind = _KINDS.get(kind_byte)
    if kind is None:
        raise WireError(
            f"unknown message kind byte {kind_byte}; expected one of "
            f"{sorted(_KINDS)}"
        )
    (length,) = _U32.unpack(header[6:10])
    if length > MAX_PAYLOAD_BYTES:
        raise WireError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame bound"
        )
    return kind, length


def decode_message(frame: bytes):
    """Decode one complete frame back into its protocol message.

    The frame must be *exactly* one message: short frames, trailing bytes,
    checksum mismatches and malformed payloads all raise
    :class:`~repro.exceptions.WireError`.
    """
    kind, length = parse_header(frame[:FRAME_HEADER_SIZE])
    expected = FRAME_HEADER_SIZE + length + FRAME_TRAILER_SIZE
    if len(frame) != expected:
        raise WireError(
            f"frame of {len(frame)} bytes does not match its header: "
            f"a {length}-byte payload needs exactly {expected} bytes"
        )
    body = frame[4:FRAME_HEADER_SIZE + length]
    (declared_crc,) = _U32.unpack(frame[FRAME_HEADER_SIZE + length:])
    actual_crc = zlib.crc32(body)
    if declared_crc != actual_crc:
        raise WireError(
            f"frame checksum mismatch: expected {declared_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    # ``bytes`` whatever the frame's type, so every value sliced out of the
    # payload is hashable ``bytes`` (free when the frame is ``bytes``).
    reader = _Reader(bytes(frame[FRAME_HEADER_SIZE:FRAME_HEADER_SIZE + length]))
    message = _DECODERS[kind](reader)
    reader.finish()
    return message
