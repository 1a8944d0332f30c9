"""The numpy-vectorized prefix store (optional acceleration).

:class:`~repro.datastructures.store.RawPrefixStore` answers
:meth:`~repro.datastructures.store.PrefixStore.contains_many` with a
Python-level bisect loop — fine for correctness experiments, but the fleet
simulator probes stores with thousands of batches per round and the
per-probe interpreter overhead dominates.  :class:`NumpyPrefixStore`
(registry name ``"numpy"``) holds the same packed sorted array as a numpy
vector and answers a whole batch with one vectorized search.

Widths with a native integer dtype (1/2/4/8 bytes) are stored machine-endian
at their own width (``uint32`` for the deployed 32-bit lists — half the
memory traffic of a widened ``uint64``); every other width uses the
fixed-length bytes dtype ``S{width}``, whose lexicographic ordering
coincides with big-endian numeric ordering, so a single code path covers
8..256-bit prefixes.  Large integer-width stores additionally carry a
:class:`_BucketIndex` — a top-bits offset table that replaces the per-probe
binary search (whose last few levels are all cold cache misses on a
multi-megabyte array) with one table gather plus one cache-line block
compare per probe.

A same-width :class:`~repro.hashing.prefix.PrefixRun` (a server chunk, or
a packed section of a client snapshot) is read with one ``frombuffer``, so
a warm start restores a store without building a ``Prefix`` per value.

numpy is an **optional** dependency: importing this module never fails, the
registry in :mod:`repro.datastructures.memory` only registers ``"numpy"``
when numpy is importable (``NUMPY_AVAILABLE``), and constructing the store
without numpy raises :class:`~repro.exceptions.DataStructureError`.  Tier-1
passes with or without numpy; the property suites sweep whatever is
registered, so the store is pinned observationally identical to ``raw``
whenever it exists.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.datastructures.store import PrefixStore
from repro.exceptions import DataStructureError
from repro.hashing.prefix import Prefix, PrefixRun

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI leg
    _np = None

#: Whether the vectorized backend can actually be constructed (and is
#: therefore registered in the store registry).
NUMPY_AVAILABLE = _np is not None

#: Byte widths with a native integer dtype; these are byteswapped once into
#: machine-endian ``uint{8*width}`` values for the fastest inner loops.
#: Other widths use the ``S{width}`` bytes dtype (memcmp == big-endian).
_INT_WIDTHS = frozenset({1, 2, 4, 8})

#: Below this many values the whole array is cache-resident and a plain
#: ``searchsorted`` already wins; the bucket table would only add overhead.
_BUCKET_MIN_SIZE = 4096

#: Table size cap: at most ``2**_BUCKET_MAX_TOP`` buckets of offsets.
_BUCKET_MAX_TOP = 20

#: Aim for about this many values per bucket; fewer buckets would lengthen
#: the gathered rows, more would only grow the table without shrinking the
#: rows below one cache line.
_BUCKET_TARGET_LOAD = 2

#: Skew guard: if any bucket holds more than this many values the gathered
#: rows stop fitting in a cache line or two and the table is declined in
#: favour of plain ``searchsorted``.  Uniform hash prefixes never get close
#: (mean bucket load at deployed scale is ~2); only adversarially clustered
#: values trip it, and they merely fall back, losing no correctness.
_BUCKET_MAX_ROW = 64


class _BucketIndex:
    """Top-bits offset table for O(1) batched membership on a sorted vector.

    ``searchsorted`` walks ~20 levels per probe; the top levels stay cached
    but the bottom ones are a random cache miss each, which caps batched
    throughput at a few times the Python loop.  Blacklist prefixes are
    uniformly distributed hash output, so a precomputed table of bucket
    start offsets (bucket = the probe's top ``top`` bits) pins every
    probe's candidate run to one short, contiguous row:

    ``hits = (padded[offsets[probes >> shift][:, None] + arange(W)]
              == probes[:, None]).any(axis=1)``

    No upper bound or validity mask is needed: positions past the probe's
    bucket hold values from *later* buckets (strictly greater top bits, so
    never equal to the probe), and the ``W`` pad slots appended to the
    array repeat the maximum value, whose only possible equality — a probe
    equal to that maximum — is a genuine hit the probe's own bucket row
    already contains.  The table is therefore exact for every input; the
    ``W`` cap only decides whether it is *worth building*.
    """

    __slots__ = ("_offsets", "_padded", "_row", "_shift")

    def __init__(self, offsets, padded, row, shift: int) -> None:
        self._offsets = offsets
        self._padded = padded
        self._row = row
        self._shift = shift

    @classmethod
    def build(cls, values, bits: int) -> "_BucketIndex | None":
        """Build over sorted integer ``values``; None when not worthwhile.

        The table holds ``min(2**_BUCKET_MAX_TOP, ~size / target_load)``
        offsets — about the size of the values array itself at the target
        load, and never more than 8 MB.
        """
        if values.dtype.kind != "u" or values.size < _BUCKET_MIN_SIZE:
            return None
        top = min(bits, _BUCKET_MAX_TOP,
                  (values.size // _BUCKET_TARGET_LOAD).bit_length())
        shift = bits - top
        # Bucket sizes by counting top bits, then their running sum: one
        # linear pass.  bincount rejects uint64 input, hence the intp cast.
        counts = _np.bincount((values >> shift).astype(_np.intp),
                              minlength=1 << top)
        offsets = _np.zeros((1 << top) + 1, dtype=_np.intp)
        _np.cumsum(counts, out=offsets[1:])
        widest = int(counts.max())
        if widest > _BUCKET_MAX_ROW:
            return None
        padded = _np.concatenate(
            [values, _np.full(widest, values[-1], dtype=values.dtype)])
        return cls(offsets, padded, _np.arange(widest, dtype=_np.intp), shift)

    def hits(self, probes):
        """Boolean membership vector for a probe array of the value dtype."""
        low = self._offsets.take(probes >> self._shift)
        rows = self._padded.take(low[:, None] + self._row)
        return (rows == probes[:, None]).any(axis=1)


def _require_numpy() -> None:
    if _np is None:
        raise DataStructureError(
            "the numpy-vectorized store backend requires numpy, which is not "
            "installed; use one of the pure-Python backends instead"
        )


def _pack_bitmask(hits) -> int:
    """Fold a boolean hit vector into the contains_many bitmask (bit i == hit i)."""
    return int.from_bytes(_np.packbits(hits, bitorder="little").tobytes(), "little")


class NumpyPrefixStore(PrefixStore):
    """Exact sorted-array semantics with numpy-batched lookups.

    Observationally identical to
    :class:`~repro.datastructures.store.RawPrefixStore` (the property suites
    pin this); only the inner representation differs — a sorted numpy
    vector searched with one ``searchsorted`` per batch and the hit bits
    packed with :func:`numpy.packbits`.
    """

    approximate = False

    def __init__(self, prefixes: Iterable[Prefix] = (), bits: int = 32) -> None:
        """Build the store over ``prefixes`` (deduplicated) at width ``bits``.

        A same-width :class:`PrefixRun` is read with one ``frombuffer``;
        ``np.unique`` runs only when the values are not already strictly
        ascending, so a restored snapshot section is never re-sorted — and
        a run that is unsorted or repeats values still yields its sorted,
        deduplicated set.
        """
        _require_numpy()
        super().__init__(bits)
        width = bits // 8
        self._width = width
        self._is_int = width in _INT_WIDTHS
        self._dtype = _np.dtype(f"u{width}" if self._is_int else f"S{width}")
        values = self._bulk_operand(prefixes)
        if values.size > 1 and not (values[1:] > values[:-1]).all():
            values = _np.unique(values)
        self._values = values
        self._index: _BucketIndex | None = None
        self._index_stale = True

    # -- probe conversion ------------------------------------------------------

    def _scalar(self, raw: bytes):
        """One probe value in the array's dtype."""
        if self._is_int:
            return self._dtype.type(int.from_bytes(raw, "big"))
        return raw

    def _probe_array(self, raws: list[bytes]):
        """A probe batch as a numpy vector matching the value dtype.

        Widths are validated in aggregate (one length comparison instead of
        a per-probe ``_check``); a mismatch falls back to the per-probe path
        so the error matches the other backends'.
        """
        raw = b"".join(raws)
        if len(raw) != len(raws) * self._width:
            for raw_value in raws:
                if len(raw_value) != self._width:
                    raise DataStructureError(
                        f"store holds {self._bits}-bit prefixes, got a "
                        f"{len(raw_value) * 8}-bit one"
                    )
        return self._from_packed(raw)

    def _from_packed(self, raw: bytes):
        """Concatenated big-endian values as a vector of the value dtype."""
        if self._is_int:
            return _np.frombuffer(raw, dtype=f">u{self._width}").astype(self._dtype)
        return _np.frombuffer(raw, dtype=self._dtype)

    def _bulk_operand(self, prefixes: Iterable[Prefix]):
        """Construction or bulk-update operand as an (unsorted) vector; a
        same-width run is read in place."""
        if isinstance(prefixes, PrefixRun) and (
                prefixes.bits == self._bits or not prefixes):
            return self._from_packed(prefixes.packed)
        return self._probe_array([self._check(p).value for p in prefixes])

    # -- PrefixStore interface -------------------------------------------------

    def add(self, prefix: Prefix) -> None:
        """Insert one prefix, keeping the vector sorted (no-op if present)."""
        value = self._scalar(self._check(prefix).value)
        index = int(_np.searchsorted(self._values, value))
        if index < self._values.size and self._values[index] == value:
            return
        self._values = _np.insert(self._values, index, value)
        self._index_stale = True

    def discard(self, prefix: Prefix) -> None:
        """Remove one prefix if present (no-op otherwise)."""
        value = self._scalar(self._check(prefix).value)
        index = int(_np.searchsorted(self._values, value))
        if index < self._values.size and self._values[index] == value:
            self._values = _np.delete(self._values, index)
            self._index_stale = True

    def _positions(self, incoming):
        """Each value's ``searchsorted`` position, and whether it is stored.

        Side ``left`` returns ``size`` only for values greater than every
        stored one, so clipping the positions and testing equality gives
        the exact membership vector without a bounds mask.
        """
        values = self._values
        index = _np.searchsorted(values, incoming)
        if not values.size:
            return index, _np.zeros(index.size, dtype=bool)
        return index, values[_np.minimum(index, values.size - 1)] == incoming

    def update(self, prefixes: Iterable[Prefix]) -> None:
        """Bulk insert: O(chunk) search plus one ``np.insert`` memmove.

        The chunk is deduplicated and sorted on its own; only values the
        store lacks are inserted, each at its ``searchsorted`` position
        (equal positions keep the chunk's order, so the result stays
        sorted).
        """
        incoming = _np.unique(self._bulk_operand(prefixes))
        index, present = self._positions(incoming)
        if not present.all():
            fresh = ~present
            self._values = _np.insert(self._values, index[fresh],
                                      incoming[fresh])
            self._index_stale = True

    def discard_many(self, prefixes: Iterable[Prefix]) -> None:
        """Bulk remove: O(chunk) search plus one ``np.delete`` memmove."""
        incoming = self._bulk_operand(prefixes)
        index, present = self._positions(incoming)
        if present.any():
            self._values = _np.delete(self._values, index[present])
            self._index_stale = True

    def __contains__(self, prefix: Prefix) -> bool:
        value = self._scalar(self._check(prefix).value)
        index = int(_np.searchsorted(self._values, value))
        return index < self._values.size and self._values[index] == value

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self) -> Iterator[Prefix]:
        width = self._width
        if self._is_int:
            packed = self._values.astype(f">u{width}").tobytes()
            for start in range(0, len(packed), width):
                yield Prefix(packed[start:start + width], self._bits)
        else:
            # The S dtype strips trailing NULs on element access; re-pad.
            for value in self._values:
                yield Prefix(bytes(value).ljust(width, b"\x00"), self._bits)

    def memory_bytes(self) -> int:
        """Serialized size: the raw ``n * bits / 8`` layout (Table 2 metric)."""
        return len(self) * self._width

    def values(self) -> list[int]:
        """The sorted integer values of the stored prefixes."""
        if self._is_int:
            return [int(value) for value in self._values]
        return [prefix.to_int() for prefix in self]

    # -- bulk lookup -----------------------------------------------------------

    def contains_many(self, prefixes: Iterable[Prefix]) -> int:
        """Batched membership bitmask: bucket-table gather or binary search.

        Large integer-width stores answer through the :class:`_BucketIndex`
        (rebuilt lazily after mutations).  The fallback is one vectorized
        ``searchsorted`` (:meth:`_positions`).  A same-width
        :class:`PrefixRun` is read with one ``frombuffer``.
        """
        if isinstance(prefixes, PrefixRun) and prefixes.bits == self._bits:
            probes = self._from_packed(prefixes.packed)
        else:
            probes = self._probe_array([prefix.value for prefix in prefixes])
        values = self._values
        if not probes.size or not values.size:
            return 0
        if self._index_stale:
            self._index = _BucketIndex.build(values, self._bits)
            self._index_stale = False
        if self._index is not None:
            return _pack_bitmask(self._index.hits(probes))
        return _pack_bitmask(self._positions(probes)[1])
