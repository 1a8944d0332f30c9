"""Benchmark: vectorized lookup hot path vs the Python bisect loop.

The fleet simulator probes every client store with thousands of
``contains_many`` batches per round.  The packed
:class:`~repro.datastructures.store.RawPrefixStore` answers each batch with
a Python-level bisect loop; :class:`~repro.datastructures.vectorized.NumpyPrefixStore`
answers it with one vectorized gather over the same sorted array.  This
benchmark pins the gap: the numpy store is **asserted >= 2x** the bisect
loop — the interpreter overhead the vectorized backend removes.

Both stores answer the same probe batches and their bitmask checksums must
agree bit-for-bit before any rate is recorded.  Their passes are
interleaved and the median pass of each is reported, because single-pass
rates on a shared machine swing by tens of percent.  Results land in
``benchmarks/results/BENCH_lookup_vectorized.json`` (schema documented in
``docs/benchmarks.md``).
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

pytest.importorskip("numpy")

from repro.datastructures.store import RawPrefixStore
from repro.datastructures.vectorized import NumpyPrefixStore
from repro.hashing.prefix import Prefix

#: Deployed-list size, matching the order of magnitude of the paper's
#: Google malware list (~600k prefixes).
MEMBER_COUNT = 630_000

#: Probe batches: the fleet's lookup shape.
LOOKUP_BATCHES = 200
LOOKUP_BATCH_SIZE = 256

#: Timing passes per store; the median pass is reported.
PASSES = 3

#: Hard acceptance bar: numpy over the raw bisect loop.
MIN_IN_MEMORY_SPEEDUP = 2.0


def _population(seed: int = 20160628):
    """Deterministic members and probe batches (half hits, half synthetic)."""
    rng = random.Random(seed)
    members = sorted(rng.sample(range(2**32), MEMBER_COUNT))
    member_prefixes = [Prefix.from_int(value, 32) for value in members]
    batches = []
    for batch_index in range(LOOKUP_BATCHES):
        batch = [member_prefixes[rng.randrange(MEMBER_COUNT)]
                 for _ in range(LOOKUP_BATCH_SIZE // 2)]
        batch += [Prefix.from_int(rng.getrandbits(32), 32)
                  for _ in range(LOOKUP_BATCH_SIZE // 2)]
        batches.append(batch)
    return member_prefixes, batches


def _one_pass(store, batches) -> tuple[float, int]:
    started = time.perf_counter()
    checksum = 0
    for batch in batches:
        checksum ^= store.contains_many(batch)
    return time.perf_counter() - started, checksum


def test_bench_lookup_vectorized(benchmark, record_json):
    members, batches = _population()

    bisect_store = RawPrefixStore(members, 32)
    vector_store = NumpyPrefixStore(members, 32)

    # Warm-up: build the lazy bucket table and settle allocator state
    # before anything is timed.
    for store in (bisect_store, vector_store):
        _one_pass(store, batches[:5])

    def timed_pair():
        # Interleave the two stores' passes so any machine-wide slowdown
        # hits both, and report the median pass of each.
        bisect_times, vector_times = [], []
        masks = set()
        for _ in range(PASSES):
            seconds, mask = _one_pass(bisect_store, batches)
            bisect_times.append(seconds)
            masks.add(mask)
            seconds, mask = _one_pass(vector_store, batches)
            vector_times.append(seconds)
            masks.add(mask)
        # Same members, same batches: both stores agree bit-for-bit.
        assert len(masks) == 1
        lookups = LOOKUP_BATCHES * LOOKUP_BATCH_SIZE
        return (lookups / statistics.median(bisect_times),
                lookups / statistics.median(vector_times))

    bisect_rate, vector_rate = benchmark.pedantic(timed_pair, rounds=1,
                                                  iterations=1)
    in_memory_speedup = vector_rate / bisect_rate

    record_json("lookup_vectorized", {
        "member_count": MEMBER_COUNT,
        "batches": LOOKUP_BATCHES,
        "batch_size": LOOKUP_BATCH_SIZE,
        "passes": PASSES,
        "lookups_per_second": {
            "raw_bisect": round(bisect_rate, 1),
            "numpy": round(vector_rate, 1),
        },
        "in_memory_speedup_over_bisect": round(in_memory_speedup, 2),
        "bars": {
            "min_in_memory_speedup": MIN_IN_MEMORY_SPEEDUP,
        },
    })

    assert in_memory_speedup >= MIN_IN_MEMORY_SPEEDUP, (
        f"vectorized contains_many is only {in_memory_speedup:.1f}x "
        f"the raw bisect loop ({vector_rate:.0f} vs {bisect_rate:.0f})"
    )
