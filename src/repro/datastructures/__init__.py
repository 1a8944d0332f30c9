"""Client-side prefix stores.

The Safe Browsing client keeps the downloaded 32-bit prefixes in a local data
structure that must be queried on every page load.  The paper (Section 2.2.2,
Table 2) compares the two structures Google deployed: a Bloom filter (early
Chromium) and the delta-coded table that replaced it, and explains the switch
by measuring the memory footprint for different prefix widths.

This package implements both structures plus the raw prefix array of the
same table — :class:`RawPrefixStore`, a packed sorted array with batched
:meth:`~PrefixStore.contains_many` lookups — all behind the
:class:`PrefixStore` interface, and a byte-accurate memory model used to
regenerate Table 2.  :data:`STORE_FACTORIES` is the one registry of
backends, keyed ``raw``, ``delta-coded`` and ``bloom``.

When numpy is importable (``NUMPY_AVAILABLE``), :class:`NumpyPrefixStore`
joins the registry as ``numpy``: the same packed sorted array, searched with
one vectorized gather per batch.  numpy is strictly optional — without it
the registry simply omits the name and everything else works unchanged.
:data:`DEFAULT_STORE_BACKEND` is ``numpy`` when it imports, ``raw``
otherwise.
"""

from repro.datastructures.store import PrefixStore, RawPrefixStore
from repro.datastructures.bloom import BloomFilter, BloomPrefixStore, optimal_bloom_parameters
from repro.datastructures.delta import DeltaCodedTable, DeltaCodedPrefixStore
from repro.datastructures.vectorized import NUMPY_AVAILABLE, NumpyPrefixStore
from repro.datastructures.memory import (
    DEFAULT_STORE_BACKEND,
    MemoryReport,
    STORE_FACTORIES,
    store_memory_report,
)

__all__ = [
    "BloomFilter",
    "BloomPrefixStore",
    "DEFAULT_STORE_BACKEND",
    "DeltaCodedPrefixStore",
    "DeltaCodedTable",
    "MemoryReport",
    "NUMPY_AVAILABLE",
    "NumpyPrefixStore",
    "PrefixStore",
    "RawPrefixStore",
    "STORE_FACTORIES",
    "optimal_bloom_parameters",
    "store_memory_report",
]
