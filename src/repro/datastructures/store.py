"""The :class:`PrefixStore` interface and the raw packed sorted-array store.

Every store holds fixed-width prefixes (32 bits by default) and supports
membership queries, insertion and removal (removal is what forced Google to
abandon the static Bloom filter: the blacklists are updated with *add* and
*sub* chunks several times per hour).
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from operator import lt

from repro.exceptions import DataStructureError
from repro.hashing.prefix import Prefix, PrefixRun

#: Widths (in bits) that fit one unsigned 64-bit array slot.
_MACHINE_WIDTH_BITS = 64

#: Byte width -> unsigned :mod:`array` type code of exactly that width, for
#: reading a packed run in one ``array`` construction.
_ARRAY_CODES: dict[int, str] = {}
for _code in "BHILQ":
    _ARRAY_CODES.setdefault(array(_code).itemsize, _code)


def _strictly_ascending(values: Sequence[int]) -> bool:
    """Whether ``values`` is sorted with no repeats (one C-level pass)."""
    return all(map(lt, values, islice(values, 1, None)))


class PrefixStore(ABC):
    """Abstract interface of a client-side prefix database.

    Concrete stores may be *exact* (raw array, delta-coded table) or
    *approximate* (Bloom filter).  Approximate stores may return false
    positives on :meth:`__contains__` but must never return false negatives;
    this mirrors the deployed behaviour, where a false positive only costs an
    extra full-hash request while a false negative would let a malicious URL
    through.
    """

    #: Whether membership queries can return false positives.
    approximate: bool = False

    def __init__(self, bits: int = 32) -> None:
        """``bits``: prefix width, a multiple of 8 in [8, 256]."""
        if bits % 8 != 0 or not (8 <= bits <= 256):
            raise DataStructureError(f"unsupported prefix width: {bits}")
        self._bits = bits

    @property
    def bits(self) -> int:
        """Width, in bits, of the prefixes held by the store."""
        return self._bits

    def _check(self, prefix: Prefix) -> Prefix:
        if prefix.bits != self._bits:
            raise DataStructureError(
                f"store holds {self._bits}-bit prefixes, got a {prefix.bits}-bit one"
            )
        return prefix

    # -- abstract operations -------------------------------------------------

    @abstractmethod
    def add(self, prefix: Prefix) -> None:
        """Insert one prefix."""

    @abstractmethod
    def discard(self, prefix: Prefix) -> None:
        """Remove one prefix if present (no-op otherwise)."""

    @abstractmethod
    def __contains__(self, prefix: Prefix) -> bool:
        """Membership query (may be approximate, see class docstring)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of prefixes inserted (and not removed)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Size, in bytes, of the serialized store (the Table 2 metric)."""

    # -- bulk helpers ---------------------------------------------------------

    def update(self, prefixes: Iterable[Prefix]) -> None:
        """Insert many prefixes."""
        for prefix in prefixes:
            self.add(prefix)

    def discard_many(self, prefixes: Iterable[Prefix]) -> None:
        """Remove many prefixes."""
        for prefix in prefixes:
            self.discard(prefix)

    def contains_many(self, prefixes: Iterable[Prefix]) -> int:
        """Batched membership query returning a bitmask.

        Bit ``i`` of the result is set iff the ``i``-th prefix of the batch
        is in the store (approximate stores keep their one-sided error: bits
        may be spuriously set, never spuriously clear).  Backends with a
        batch-friendly layout override this with a faster implementation;
        the default simply loops over :meth:`__contains__`.
        """
        bitmask = 0
        for position, prefix in enumerate(prefixes):
            if prefix in self:
                bitmask |= 1 << position
        return bitmask


class RawPrefixStore(PrefixStore):
    """A sorted, packed array of prefix values with batch lookups.

    This is the "raw data" row of the paper's Table 2: ``n`` prefixes of
    ``bits`` bits occupy exactly ``n * bits / 8`` bytes.  The values live in
    one flat, sorted, machine-typed :mod:`array` (one unsigned 64-bit slot
    per prefix for widths up to 64 bits, plain Python integers beyond), so
    the whole index is one contiguous buffer.  Lookup is a binary search;
    insertion keeps the array sorted, and :meth:`contains_many` answers a
    whole batch with one pass of :func:`bisect.bisect_left` calls (the
    batched client lookup path, ``SafeBrowsingClient.check_urls``).

    The store is exact (no false positives) and supports removal, so unlike
    the Bloom filter it can apply *sub* chunks.  A same-width
    :class:`PrefixRun` (a server chunk, a snapshot section, a client probe
    batch) is read as integers straight from its packed bytes, without a
    :class:`Prefix` per value.
    """

    approximate = False

    def __init__(self, prefixes: Iterable[Prefix] = (), bits: int = 32) -> None:
        """Build the store over ``prefixes`` (deduplicated) at width ``bits``.

        Values already strictly ascending (a restored snapshot section) are
        taken as they are; anything else is sorted and deduplicated.
        """
        super().__init__(bits)
        values = self._int_values(prefixes)
        if not _strictly_ascending(values):
            values = sorted(set(values))
        if bits <= _MACHINE_WIDTH_BITS:
            self._values: array | list[int] = array("Q", values)
        else:
            # Wider prefixes do not fit a machine word; fall back to Python
            # integers while keeping the same sorted-array algorithms.
            self._values = values

    def _int_values(self, prefixes: Iterable[Prefix]) -> Sequence[int]:
        """The integer value of each prefix, in order.

        A same-width run is converted from its packed bytes: one ``array``
        read (byteswapped to big-endian order) for machine widths, one
        ``int.from_bytes`` per value otherwise.
        """
        if not (isinstance(prefixes, PrefixRun) and prefixes.bits == self._bits):
            return [self._check(prefix).to_int() for prefix in prefixes]
        packed = prefixes.packed
        width = self._bits // 8
        code = _ARRAY_CODES.get(width)
        if code is not None:
            values = array(code, packed)
            if sys.byteorder == "little":
                values.byteswap()
            return values
        from_bytes = int.from_bytes
        return [from_bytes(packed[start:start + width], "big")
                for start in range(0, len(packed), width)]

    # -- single-prefix operations ---------------------------------------------

    def add(self, prefix: Prefix) -> None:
        """Insert one prefix, keeping the array sorted (no-op if present)."""
        value = self._check(prefix).to_int()
        index = bisect_left(self._values, value)
        if index >= len(self._values) or self._values[index] != value:
            self._values.insert(index, value)

    def discard(self, prefix: Prefix) -> None:
        """Remove one prefix if present (no-op otherwise)."""
        value = self._check(prefix).to_int()
        index = bisect_left(self._values, value)
        if index < len(self._values) and self._values[index] == value:
            del self._values[index]

    def __contains__(self, prefix: Prefix) -> bool:
        value = self._check(prefix).to_int()
        index = bisect_left(self._values, value)
        return index < len(self._values) and self._values[index] == value

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Prefix]:
        for value in self._values:
            yield Prefix.from_int(int(value), self._bits)

    def memory_bytes(self) -> int:
        """Serialized size: ``n * bits / 8`` bytes (Table 2's raw-data row)."""
        return len(self._values) * (self._bits // 8)

    def values(self) -> list[int]:
        """The sorted integer values of the stored prefixes."""
        return [int(value) for value in self._values]

    # -- bulk operations -------------------------------------------------------

    def update(self, prefixes: Iterable[Prefix]) -> None:
        """Insert many prefixes: merge and re-sort once instead of n inserts."""
        incoming = set(self._int_values(prefixes))
        if not incoming:
            return
        if len(incoming) <= 8:
            for value in sorted(incoming):
                index = bisect_left(self._values, value)
                if index >= len(self._values) or self._values[index] != value:
                    self._values.insert(index, value)
            return
        merged = sorted(set(self._values) | incoming)
        if isinstance(self._values, array):
            self._values = array("Q", merged)
        else:
            self._values = merged

    def contains_many(self, prefixes: Iterable[Prefix]) -> int:
        """Batched membership: bit ``i`` of the result is set iff
        ``prefixes[i]`` is in the store.

        The probes are processed in sorted order so each binary search starts
        from the previous hit position, turning a batch of ``k`` lookups over
        ``n`` entries into ``O(k log(n / k) + k log k)`` comparisons instead
        of ``k`` independent full-range searches.
        """
        values = self._int_values(prefixes)
        probes = list(zip(values, range(len(values))))
        if not probes:
            return 0
        probes.sort()
        values = self._values
        size = len(values)
        bitmask = 0
        low = 0
        previous_value: int | None = None
        previous_hit = False
        for value, position in probes:
            if value == previous_value:
                if previous_hit:
                    bitmask |= 1 << position
                continue
            index = bisect_left(values, value, low)
            previous_value = value
            previous_hit = index < size and values[index] == value
            low = index
            if previous_hit:
                bitmask |= 1 << position
        return bitmask
