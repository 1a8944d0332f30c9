"""numpy-vectorized prefix stores (optional acceleration, ROADMAP item 2).

Every backend so far answers :meth:`~repro.datastructures.store.PrefixStore.contains_many`
with a Python-level bisect loop — fine for correctness experiments, but the
fleet simulator probes stores with thousands of batches per round and the
per-probe interpreter overhead dominates.  This module adds two backends
that answer a whole batch with one :func:`numpy.searchsorted` call:

:class:`NumpyPrefixStore` (registry name ``"numpy"``)
    The packed sorted array held as a numpy vector.  Widths with a native
    integer dtype (1/2/4/8 bytes) are stored machine-endian at their own
    width (``uint32`` for the deployed 32-bit lists — half the memory
    traffic of a widened ``uint64``); every other width uses the
    fixed-length bytes dtype ``S{width}``, whose lexicographic ordering
    coincides with big-endian numeric ordering, so a single code path
    covers 8..256-bit prefixes.  Large integer-width stores additionally
    carry a :class:`_BucketIndex` — a top-bits offset table that replaces
    the per-probe binary search (whose last few levels are all cold cache
    misses on a multi-megabyte array) with one table gather plus one
    cache-line block compare per probe.

:class:`NumpyMmapStore` (registry name ``"numpy-mmap"``)
    :class:`~repro.datastructures.mmapped.MmapSortedArrayStore` with the
    baseline binary search vectorized.  The store searches the mapped
    snapshot run *in place* through a zero-copy ``S{width}`` view — no
    per-comparison ``bytes(...)`` slice allocation, the regression that
    pinned the Python mmap store at ~0.2x of the in-memory array.  Because
    numpy's comparisons on big-endian views go through a generic (slow)
    inner loop, the store additionally *materializes a machine-endian
    mirror* of the baseline on the first batched lookup (one vectorized
    byteswap pass, no per-entry parsing): restore stays zero-copy and
    instant, and steady-state batches run at native ``searchsorted`` speed.
    ``materialize="never"`` keeps the pure in-place search (still allocation
    free and several times faster than the Python loop);
    ``materialize="eager"`` pays the pass up front.

numpy is an **optional** dependency: importing this module never fails, the
registries in :mod:`repro.datastructures.memory` and
:mod:`repro.safebrowsing.client` only register the two backends when numpy
is importable (``NUMPY_AVAILABLE``), and constructing either store without
numpy raises :class:`~repro.exceptions.DataStructureError`.  Tier-1 passes
with or without numpy; the property suites sweep whatever is registered, so
both backends are pinned observationally identical to ``sorted-array``
whenever they exist.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

from repro.datastructures.mmapped import MmapSortedArrayStore
from repro.datastructures.store import PrefixStore
from repro.exceptions import DataStructureError
from repro.hashing.prefix import Prefix, PrefixRun

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI leg
    _np = None

#: Whether the two vectorized backends can actually be constructed (and are
#: therefore registered in the store registries).
NUMPY_AVAILABLE = _np is not None

#: Byte widths with a native integer dtype; these are byteswapped once into
#: a machine-endian ``uint{8*width}`` mirror for the fastest inner loops.
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
            "the numpy-vectorized store backends require numpy, which is not "
            "installed; use one of the pure-Python backends instead"
        )


def _pack_bitmask(hits) -> int:
    """Fold a boolean hit vector into the contains_many bitmask (bit i == hit i)."""
    return int.from_bytes(_np.packbits(hits, bitorder="little").tobytes(), "little")


class NumpyPrefixStore(PrefixStore):
    """Exact sorted-array semantics with numpy-batched lookups.

    Observationally identical to
    :class:`~repro.datastructures.sorted_array.SortedArrayPrefixStore` (the
    property suites pin this); only the inner representation differs — a
    sorted numpy vector searched with one ``searchsorted`` per batch and the
    hit bits packed with :func:`numpy.packbits`.
    """

    approximate = False

    def __init__(self, prefixes: Iterable[Prefix] = (), bits: int = 32) -> None:
        """Build the store over ``prefixes`` (deduplicated) at width ``bits``."""
        _require_numpy()
        super().__init__(bits)
        width = bits // 8
        self._width = width
        self._is_int = width in _INT_WIDTHS
        packed = b"".join(sorted({self._check(prefix).value for prefix in prefixes}))
        if self._is_int:
            self._dtype = _np.dtype(f"u{width}")
            self._values = _np.frombuffer(packed, dtype=f">u{width}").astype(self._dtype)
        else:
            self._dtype = _np.dtype(f"S{width}")
            self._values = _np.frombuffer(packed, dtype=self._dtype).copy()
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
        """A bulk update's prefixes as a vector; a same-width run is read in place."""
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
        ``searchsorted`` (:meth:`_positions`).
        """
        raws = [prefix.value for prefix in prefixes]
        if not raws:
            return 0
        probes = self._probe_array(raws)
        values = self._values
        if not values.size:
            return 0
        if self._index_stale:
            self._index = _BucketIndex.build(values, self._bits)
            self._index_stale = False
        if self._index is not None:
            return _pack_bitmask(self._index.hits(probes))
        return _pack_bitmask(self._positions(probes)[1])


class NumpyMmapStore(MmapSortedArrayStore):
    """Mapped sorted-array baseline with the binary search vectorized.

    Same baseline-plus-overlay semantics (and snapshot byte layout) as
    :class:`~repro.datastructures.mmapped.MmapSortedArrayStore`; the three
    lookup paths differ only in speed:

    * **in place** — a zero-copy ``S{width}`` view over the mapped run,
      searched with ``searchsorted`` (no per-comparison slice allocation);
    * **materialized** — a machine-endian width-native mirror of the
      baseline, built with one vectorized byteswap pass, searched through
      the same :class:`_BucketIndex` as the in-memory store (widths without
      a native integer dtype keep the ``S`` view, which is already as
      native as numpy gets for them);
    * scalar operations reuse whichever of the two exists.

    ``materialize`` chooses when the mirror is built: ``"lazy"`` (default)
    on the first batched lookup, ``"eager"`` at construction, ``"never"``
    not at all.  The mirror costs ``count * 8`` bytes of heap; restore
    itself stays zero-copy in every mode.
    """

    approximate = False

    def __init__(self, prefixes: Iterable[Prefix] = (), bits: int = 32, *,
                 materialize: str = "lazy") -> None:
        """Pack ``prefixes`` into an in-memory baseline (registry path)."""
        _require_numpy()
        if materialize not in ("lazy", "eager", "never"):
            raise DataStructureError(
                f"unknown materialize mode {materialize!r}; "
                "expected 'lazy', 'eager' or 'never'"
            )
        super().__init__(prefixes, bits)
        self._width = bits // 8
        self._materialize = materialize
        self._mirror = None
        self._bucket_index = None
        if materialize == "eager":
            self.materialize_baseline()

    @classmethod
    def from_buffer(cls, buffer, offset: int, count: int, bits: int = 32, *,
                    keep_alive: object | None = None,
                    materialize: str = "lazy") -> "NumpyMmapStore":
        """Wrap a packed run zero-copy (see the parent method for arguments).

        ``materialize`` picks the mirror policy described on the class.
        """
        store = super().from_buffer(buffer, offset, count, bits,
                                    keep_alive=keep_alive)
        store._materialize = materialize
        if materialize == "eager":
            store.materialize_baseline()
        return store

    # -- baseline views --------------------------------------------------------

    def _inplace_view(self):
        """Zero-copy ``S{width}`` view over the baseline buffer."""
        return _np.frombuffer(self._base, dtype=f"S{self._width}",
                              count=self._base_count)

    def materialize_baseline(self) -> None:
        """Build the machine-endian mirror of the baseline now (idempotent).

        The baseline is immutable (overlay structures absorb mutations), so
        the bucket table over the mirror is built here once and never goes
        stale.
        """
        if self._mirror is not None or not self._base_count:
            return
        if self._width in _INT_WIDTHS:
            self._mirror = _np.frombuffer(
                self._base, dtype=f">u{self._width}", count=self._base_count
            ).astype(f"u{self._width}")
            self._bucket_index = _BucketIndex.build(self._mirror, self._bits)
        else:
            # No native integer dtype at this width: a compact copy of the S
            # view (comparisons are memcmp either way, but the copy stops
            # lookups from faulting snapshot pages back in after eviction).
            self._mirror = self._inplace_view().copy()

    @property
    def materialized(self) -> bool:
        """Whether the native baseline mirror has been built."""
        return self._mirror is not None

    def _search_state(self):
        """``(array, is_int)`` the batched baseline search should run over."""
        if self._mirror is None and self._materialize == "lazy":
            self.materialize_baseline()
        if self._mirror is not None:
            return self._mirror, self._width in _INT_WIDTHS
        return self._inplace_view(), False

    def _scalar_state(self):
        """Like :meth:`_search_state`, but never triggers materialization."""
        if self._mirror is not None:
            return self._mirror, self._width in _INT_WIDTHS
        return self._inplace_view(), False

    # -- vectorized baseline search -------------------------------------------

    def _base_index(self, raw: bytes, low: int = 0) -> int:
        """Leftmost baseline position >= ``raw``, without slice allocations."""
        if not self._base_count:
            return 0
        array, is_int = self._scalar_state()
        needle = array.dtype.type(int.from_bytes(raw, "big")) if is_int else raw
        if low:
            return low + int(_np.searchsorted(array[low:], needle))
        return int(_np.searchsorted(array, needle))

    def contains_many(self, prefixes: Iterable[Prefix]) -> int:
        """Batched membership bitmask over baseline and overlay.

        The baseline is answered by one vectorized binary search; the
        overlay (post-restore adds and tombstones) then corrects only the
        probes it can affect — tombstones are tested against baseline hits,
        the added-values list against baseline misses.
        """
        raws = [prefix.value for prefix in prefixes]
        if not raws:
            return 0
        raw = b"".join(raws)
        width = self._width
        if len(raw) != len(raws) * width:
            for raw_value in raws:
                if len(raw_value) != width:
                    raise DataStructureError(
                        f"store holds {self._bits}-bit prefixes, got a "
                        f"{len(raw_value) * 8}-bit one"
                    )
        if self._base_count:
            array, is_int = self._search_state()
            if is_int:
                probes = _np.frombuffer(raw, dtype=f">u{width}").astype(f"u{width}")
            else:
                probes = _np.frombuffer(raw, dtype=f"S{width}")
            if is_int and self._bucket_index is not None:
                hits = self._bucket_index.hits(probes)
            else:
                index = _np.searchsorted(array, probes)
                _np.minimum(index, array.size - 1, out=index)
                hits = array[index] == probes
        else:
            hits = _np.zeros(len(raws), dtype=bool)
        if self._removed:
            removed = self._removed
            for position in _np.flatnonzero(hits):
                if raws[position] in removed:
                    hits[position] = False
        if self._added:
            added = self._added
            for position in _np.flatnonzero(~hits):
                probe = raws[position]
                slot = bisect_left(added, probe)
                if slot < len(added) and added[slot] == probe:
                    hits[position] = True
        return _pack_bitmask(hits)
