"""The :class:`Prefix` value object.

A prefix is the truncation of a SHA-256 digest to its first ``bits`` bits.
Google and Yandex Safe Browsing use 32-bit prefixes; the paper's Table 2 and
Table 5 also evaluate 16, 64, 80, 96, 128 and 256-bit prefixes, so the class
supports any multiple of 8 between 8 and 256 bits.

Prefixes compare and hash by value, sort in lexicographic (equivalently
numeric big-endian) order, and render as the ``0x``-prefixed hexadecimal
strings used in the paper (e.g. ``0xe70ee6d1`` for the PETS CFP URL).

:class:`PrefixRun` is the packed form of many same-width prefixes: the
"raw data" layout of the paper's Table 2 (``n * bits / 8`` bytes), which is
how update chunks cross the wire and reach SQLite and snapshot files.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import total_ordering

from repro.exceptions import PrefixError

_MIN_BITS = 8
_MAX_BITS = 256
_DEFAULT_BITS = 32


def _check_bits(bits: int) -> None:
    if bits % 8 != 0 or not (_MIN_BITS <= bits <= _MAX_BITS):
        raise PrefixError(
            f"prefix width must be a multiple of 8 in [{_MIN_BITS}, {_MAX_BITS}], got {bits}"
        )


@total_ordering
@dataclass(frozen=True, slots=True)
class Prefix:
    """An ``bits``-bit prefix of a SHA-256 digest.

    Attributes
    ----------
    value:
        The raw prefix bytes (``bits // 8`` bytes, big-endian).
    bits:
        The prefix width in bits.  Must be a multiple of 8 in ``[8, 256]``.
    """

    value: bytes
    bits: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.value, (bytes, bytearray)):
            raise PrefixError(f"prefix value must be bytes, got {type(self.value).__name__}")
        _check_bits(self.bits)
        if len(self.value) != self.bits // 8:
            raise PrefixError(
                f"prefix of {self.bits} bits requires {self.bits // 8} bytes, "
                f"got {len(self.value)}"
            )
        if isinstance(self.value, bytearray):
            object.__setattr__(self, "value", bytes(self.value))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_digest(cls, digest: bytes, bits: int = 32) -> "Prefix":
        """Build a prefix by truncating a full digest.

        ``digest`` must be at least ``bits // 8`` bytes long; in practice it
        is a 32-byte SHA-256 digest.
        """
        nbytes = bits // 8
        if len(digest) < nbytes:
            raise PrefixError(
                f"cannot take a {bits}-bit prefix of a {len(digest) * 8}-bit digest"
            )
        return cls(bytes(digest[:nbytes]), bits)

    @classmethod
    def from_hex(cls, text: str, bits: int | None = None) -> "Prefix":
        """Parse a prefix from a hexadecimal string.

        Accepts an optional ``0x`` prefix, as used in the paper's tables.
        When ``bits`` is omitted the width is inferred from the string
        length.
        """
        cleaned = text.strip().lower()
        if cleaned.startswith("0x"):
            cleaned = cleaned[2:]
        if not cleaned:
            raise PrefixError("empty hexadecimal prefix")
        try:
            raw = bytes.fromhex(cleaned)
        except ValueError as exc:
            raise PrefixError(f"invalid hexadecimal prefix {text!r}") from exc
        inferred = len(raw) * 8
        if bits is None:
            bits = inferred
        elif bits != inferred:
            raise PrefixError(
                f"hexadecimal string {text!r} encodes {inferred} bits, expected {bits}"
            )
        return cls(raw, bits)

    @classmethod
    def from_int(cls, number: int, bits: int = 32) -> "Prefix":
        """Build a prefix from its big-endian integer value."""
        if number < 0:
            raise PrefixError("prefix integer value must be non-negative")
        nbytes = bits // 8
        if number >= (1 << bits):
            raise PrefixError(f"{number} does not fit in {bits} bits")
        return cls(number.to_bytes(nbytes, "big"), bits)

    # -- conversions --------------------------------------------------------

    def to_int(self) -> int:
        """Return the prefix as a big-endian integer."""
        return int.from_bytes(self.value, "big")

    def hex(self) -> str:
        """Return the bare hexadecimal representation (no ``0x``)."""
        return self.value.hex()

    def __str__(self) -> str:
        return f"0x{self.value.hex()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Prefix({self}, bits={self.bits})"

    # -- ordering -----------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        if self.bits != other.bits:
            raise PrefixError(
                f"cannot order prefixes of different widths ({self.bits} vs {other.bits})"
            )
        return self.value < other.value

    # -- predicates ---------------------------------------------------------

    def matches_digest(self, digest: bytes) -> bool:
        """Return ``True`` when this prefix is a prefix of ``digest``."""
        return bytes(digest[: len(self.value)]) == self.value

    def widen(self, bits: int, digest: bytes) -> "Prefix":
        """Return a wider prefix of ``digest`` that extends this one.

        Used by the audit layer when checking whether a full digest served by
        the provider is consistent with the 32-bit prefix that triggered the
        request.
        """
        if bits < self.bits:
            raise PrefixError("widen() requires a larger width")
        if not self.matches_digest(digest):
            raise PrefixError("digest does not extend this prefix")
        return Prefix.from_digest(digest, bits)


def _valid_prefix(value: bytes, bits: int) -> Prefix:
    """A :class:`Prefix` of a value already checked to be ``bits`` wide.

    Skips ``__post_init__``: a run validates its width and length once, so
    re-checking every prefix it yields would be the dominant cost of
    iterating it.
    """
    prefix = object.__new__(Prefix)
    object.__setattr__(prefix, "value", value)
    object.__setattr__(prefix, "bits", bits)
    return prefix


class PrefixRun(Sequence[Prefix]):
    """An immutable run of same-width prefixes packed into one ``bytes``.

    The run stores its width and the concatenated big-endian values — the
    raw layout of Table 2 — and is a read-only ``Sequence[Prefix]`` that
    creates :class:`Prefix` objects only when indexed or iterated.  Runs
    compare and hash by (width, values, order); empty runs are equal
    whatever their width, since no width survives an empty chunk.

    Build one from prefixes (``PrefixRun(prefixes, bits=None)``; the width is
    taken from the prefixes, mixed widths raise :class:`PrefixError`) or
    from already-packed values (:meth:`from_packed`).
    """

    __slots__ = ("_bits", "_width", "_packed")

    def __init__(self, prefixes: Iterable[Prefix] = (),
                 bits: int | None = None) -> None:
        prefixes = tuple(prefixes)
        packed = b"".join([prefix.value for prefix in prefixes])
        widths = {prefix.bits for prefix in prefixes}
        if len(widths) > 1:
            raise PrefixError(
                f"a prefix run holds one width, got {sorted(widths)}-bit prefixes")
        if widths:
            (found,) = widths
            if bits is not None and bits != found:
                raise PrefixError(
                    f"a {bits}-bit prefix run cannot hold {found}-bit prefixes")
            bits = found
        elif bits is None:
            bits = _DEFAULT_BITS
        _check_bits(bits)
        self._bits, self._width, self._packed = bits, bits // 8, packed

    @classmethod
    def from_packed(cls, packed: bytes, bits: int = _DEFAULT_BITS) -> "PrefixRun":
        """Wrap already-packed ``bits``-bit values (no per-prefix work)."""
        _check_bits(bits)
        packed = bytes(packed)
        if len(packed) % (bits // 8):
            raise PrefixError(
                f"{len(packed)} packed bytes is not a whole number of "
                f"{bits}-bit prefixes")
        run = cls.__new__(cls)
        run._bits, run._width, run._packed = bits, bits // 8, packed
        return run

    @property
    def bits(self) -> int:
        """Width, in bits, of every prefix in the run."""
        return self._bits

    @property
    def packed(self) -> bytes:
        """The concatenated big-endian prefix values."""
        return self._packed

    def __len__(self) -> int:
        return len(self._packed) // self._width

    def __iter__(self) -> Iterator[Prefix]:
        packed, width, bits = self._packed, self._width, self._bits
        return (_valid_prefix(packed[start:start + width], bits)
                for start in range(0, len(packed), width))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PrefixRun([self[at] for at in range(len(self))[index]],
                             self._bits)
        try:
            start = range(len(self))[index] * self._width
        except IndexError:
            raise IndexError("prefix run index out of range") from None
        return _valid_prefix(self._packed[start:start + self._width], self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixRun):
            return NotImplemented
        return self._packed == other._packed and (
            self._bits == other._bits or not self._packed)

    def __hash__(self) -> int:
        return hash(self._packed)

    def __repr__(self) -> str:
        return f"PrefixRun({[str(prefix) for prefix in self]}, bits={self._bits})"
