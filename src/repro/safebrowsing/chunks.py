"""Chunked list updates (the "shavar" wire format).

The v3 update protocol ships blacklists as numbered *chunks*.  An **add**
chunk carries prefixes to insert into the client's local database; a **sub**
chunk carries prefixes to remove (referencing the add chunk that introduced
them).  Clients advertise the chunk numbers they already hold as compact
ranges (``"1-5,8,10-12"``), and the server answers with the chunks they are
missing.  This is the mechanism that makes the blacklists *dynamic*, which in
turn is why the static Bloom filter had to be abandoned (paper Section 2.2.2).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.exceptions import PrefixError, ProtocolError
from repro.hashing.prefix import PrefixRun


class ChunkKind(enum.Enum):
    """Whether a chunk adds or removes prefixes."""

    ADD = "a"
    SUB = "s"


@dataclass(frozen=True, slots=True)
class Chunk:
    """One numbered update unit of a blacklist.

    Attributes
    ----------
    number:
        Chunk sequence number, unique per (list, kind).
    kind:
        :attr:`ChunkKind.ADD` or :attr:`ChunkKind.SUB`.
    prefixes:
        The prefixes added or removed by this chunk, normalised to one
        packed :class:`PrefixRun` (a list database has exactly one width,
        so a chunk of mixed widths is a :class:`ProtocolError`).
    referenced_add_chunk:
        For sub chunks, the add chunk whose entries are being retracted
        (informational; the client removes by prefix value).
    """

    number: int
    kind: ChunkKind
    prefixes: PrefixRun
    referenced_add_chunk: int | None = None

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise ProtocolError(f"chunk numbers start at 1, got {self.number}")
        if self.kind is ChunkKind.ADD and self.referenced_add_chunk is not None:
            raise ProtocolError("add chunks do not reference other chunks")
        if not isinstance(self.prefixes, PrefixRun):
            try:
                run = PrefixRun(self.prefixes)
            except PrefixError as exc:
                raise ProtocolError(f"invalid chunk {self.number}: {exc}") from exc
            object.__setattr__(self, "prefixes", run)

    def __len__(self) -> int:
        return len(self.prefixes)


@dataclass
class ChunkRange:
    """A compact set of chunk numbers, e.g. ``"1-5,8,10-12"``.

    The client sends one range per (list, kind) in its update requests so the
    server can compute the missing chunks.
    """

    numbers: set[int] = field(default_factory=set)

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ChunkRange":
        """Parse the wire representation (empty string means no chunks)."""
        numbers: set[int] = set()
        text = text.strip()
        if not text:
            return cls(numbers)
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part:
                low_text, _, high_text = part.partition("-")
                try:
                    low, high = int(low_text), int(high_text)
                except ValueError as exc:
                    raise ProtocolError(f"invalid chunk range {part!r}") from exc
                if low > high or low <= 0:
                    raise ProtocolError(f"invalid chunk range {part!r}")
                numbers.update(range(low, high + 1))
            else:
                try:
                    value = int(part)
                except ValueError as exc:
                    raise ProtocolError(f"invalid chunk number {part!r}") from exc
                if value <= 0:
                    raise ProtocolError(f"invalid chunk number {part!r}")
                numbers.add(value)
        return cls(numbers)

    @classmethod
    def of(cls, numbers: Iterable[int]) -> "ChunkRange":
        """Build a range from an iterable of chunk numbers."""
        return cls(set(numbers))

    # -- queries --------------------------------------------------------------

    def __contains__(self, number: int) -> bool:
        return number in self.numbers

    def __len__(self) -> int:
        return len(self.numbers)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.numbers))

    def missing_from(self, available: Iterable[int]) -> list[int]:
        """Chunk numbers in ``available`` that this range does not cover."""
        return sorted(set(available) - self.numbers)

    # -- mutation -------------------------------------------------------------

    def add(self, number: int) -> None:
        """Record one more chunk as held."""
        if number <= 0:
            raise ProtocolError(f"invalid chunk number {number}")
        self.numbers.add(number)

    def merge(self, other: "ChunkRange") -> "ChunkRange":
        """Union of two ranges."""
        return ChunkRange(self.numbers | other.numbers)

    # -- formatting -----------------------------------------------------------

    def to_wire(self) -> str:
        """Serialize to the compact ``"1-5,8"`` representation."""
        if not self.numbers:
            return ""
        ordered = sorted(self.numbers)
        parts: list[str] = []
        start = previous = ordered[0]
        for number in ordered[1:]:
            if number == previous + 1:
                previous = number
                continue
            parts.append(str(start) if start == previous else f"{start}-{previous}")
            start = previous = number
        parts.append(str(start) if start == previous else f"{start}-{previous}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.to_wire()
