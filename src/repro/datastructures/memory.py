"""Memory accounting for the client-side prefix stores (paper Table 2).

Table 2 of the paper compares, for a blacklist the size of the deployed
Google lists (roughly 630k prefixes), the serialized size of the raw prefix
array, the delta-coded table and a Bloom filter as the prefix width grows
from 32 to 256 bits.  :func:`store_memory_report` reproduces one row of that
table; the benchmark harness sweeps the widths.

The module also holds :data:`STORE_FACTORIES`, the one registry of store
backends: the paper's three structures plus the numpy-vectorized store.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.datastructures.bloom import BloomPrefixStore
from repro.datastructures.delta import DeltaCodedPrefixStore
from repro.datastructures.store import PrefixStore, RawPrefixStore
from repro.datastructures.vectorized import NUMPY_AVAILABLE, NumpyPrefixStore
from repro.hashing.prefix import Prefix

#: The one store registry: backend name -> store class.  The three stores
#: compared in Table 2 are keyed by the row names used in the paper; every
#: class takes ``(prefixes=(), bits=32)``.  ``ClientConfig`` validates its
#: ``store_backend`` against these keys, and the property suites sweep them.
STORE_FACTORIES: dict[str, type[PrefixStore]] = {
    "raw": RawPrefixStore,
    "delta-coded": DeltaCodedPrefixStore,
    "bloom": BloomPrefixStore,
}

# The vectorized backend exists only when numpy is importable: registering
# it conditionally keeps tier-1 green without numpy, and lets the property
# suites (which sweep these keys) pin it automatically when it is present.
if NUMPY_AVAILABLE:
    STORE_FACTORIES["numpy"] = NumpyPrefixStore

#: Default client store backend: the vectorized numpy store when numpy is
#: importable (one ``searchsorted`` gather per batch), else the packed raw
#: array.  Verdicts and traffic are backend-independent (property-pinned),
#: so the default only moves the lookup cost onto the fastest available path.
DEFAULT_STORE_BACKEND = "numpy" if NUMPY_AVAILABLE else "raw"


@dataclass(frozen=True, slots=True)
class MemoryReport:
    """Serialized sizes of the three stores for one prefix width.

    Sizes are reported both in bytes and in megabytes (the unit of Table 2).
    """

    prefix_bits: int
    entry_count: int
    raw_bytes: int
    delta_bytes: int
    bloom_bytes: int

    @property
    def raw_megabytes(self) -> float:
        return self.raw_bytes / 1e6

    @property
    def delta_megabytes(self) -> float:
        return self.delta_bytes / 1e6

    @property
    def bloom_megabytes(self) -> float:
        return self.bloom_bytes / 1e6

    @property
    def compression_ratio(self) -> float:
        """Raw size over delta-coded size (the paper reports 1.9 for 32 bits)."""
        if self.delta_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.delta_bytes

    @property
    def bloom_wins(self) -> bool:
        """Whether the Bloom filter is smaller than the delta-coded table.

        The paper's observation is that this flips between 32-bit and 64-bit
        prefixes, which (together with the need for deletions) justifies
        Google's choice of 32-bit prefixes and delta coding.
        """
        return self.bloom_bytes < self.delta_bytes


def store_memory_report(prefixes: Sequence[Prefix], prefix_bits: int) -> MemoryReport:
    """Build all three stores over ``prefixes`` and measure their size.

    ``prefixes`` must already have the requested width; use
    :func:`widen_prefixes` to derive wider prefixes from full digests.
    """
    raw = RawPrefixStore(prefixes, prefix_bits)
    delta = DeltaCodedPrefixStore(prefixes, prefix_bits)
    bloom = BloomPrefixStore(prefixes, prefix_bits)
    return MemoryReport(
        prefix_bits=prefix_bits,
        entry_count=len(prefixes),
        raw_bytes=raw.memory_bytes(),
        delta_bytes=delta.memory_bytes(),
        bloom_bytes=bloom.memory_bytes(),
    )


def widen_prefixes(digests: Iterable[bytes], prefix_bits: int) -> list[Prefix]:
    """Truncate full digests to ``prefix_bits``-bit prefixes."""
    return [Prefix.from_digest(digest, prefix_bits) for digest in digests]
