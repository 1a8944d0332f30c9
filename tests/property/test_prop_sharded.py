"""Property tests: shard routing is invisible to membership.

The storage layer's contract is that :class:`ShardedPrefixIndex` answers
byte-for-byte like an unsharded exact store — against every exact registered
backend, every shard count, single and batched queries, adds and discards.
A second suite pins the same invariant one layer up: a fleet run's traffic
signature must be identical whatever the server's shard count, because
sharding decides *where* a prefix lives, never *whether* it is served.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastructures import STORE_FACTORIES, ShardedPrefixIndex
from repro.datastructures.vectorized import NUMPY_AVAILABLE
from repro.hashing.prefix import Prefix

#: Unsharded references: every exact registered backend answers
#: byte-for-byte like the sharded raw index.
EXACT_BACKENDS = [name for name in sorted(STORE_FACTORIES)
                  if not STORE_FACTORIES[name].approximate]
SHARD_COUNTS = (1, 4, 16)

_values32 = st.integers(min_value=0, max_value=2**32 - 1)


def _prefixes(values: list[int]) -> list[Prefix]:
    return [Prefix.from_int(value, 32) for value in values]


class TestShardRoutingEquivalence:
    @given(members=st.lists(_values32, max_size=200),
           probes=st.lists(_values32, max_size=50),
           backend=st.sampled_from(EXACT_BACKENDS),
           shard_count=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=120, deadline=None)
    def test_membership_matches_unsharded_backend(self, members, probes,
                                                  backend, shard_count):
        member_prefixes = _prefixes(members)
        flat = STORE_FACTORIES[backend](member_prefixes, 32)
        sharded = ShardedPrefixIndex(member_prefixes, 32,
                                     shard_count=shard_count)
        assert len(sharded) == len(flat)
        # Probe both known members and arbitrary values, single and batched.
        probe_prefixes = _prefixes(probes + members[:10])
        for prefix in probe_prefixes:
            assert (prefix in sharded) == (prefix in flat)
        assert sharded.contains_many(probe_prefixes) == flat.contains_many(probe_prefixes)

    @given(members=st.lists(_values32, max_size=120),
           removals=st.lists(_values32, max_size=40),
           backend=st.sampled_from(EXACT_BACKENDS),
           shard_count=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=80, deadline=None)
    def test_mutations_match_unsharded_backend(self, members, removals,
                                               backend, shard_count):
        flat = STORE_FACTORIES[backend]([], 32)
        sharded = ShardedPrefixIndex(shard_count=shard_count)
        member_prefixes = _prefixes(members)
        flat.update(member_prefixes)
        sharded.update(member_prefixes)
        removal_prefixes = _prefixes(removals + members[:10])
        flat.discard_many(removal_prefixes)
        sharded.discard_many(removal_prefixes)
        assert len(sharded) == len(flat)
        probes = member_prefixes + removal_prefixes
        assert sharded.contains_many(probes) == flat.contains_many(probes)

    @given(members=st.lists(_values32, min_size=1, max_size=200),
           shard_count=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=60, deadline=None)
    def test_every_member_lands_in_exactly_one_shard(self, members, shard_count):
        sharded = ShardedPrefixIndex(_prefixes(members), 32,
                                     shard_count=shard_count)
        assert sum(sharded.shard_sizes()) == len(sharded)
        assert len(sharded.shard_sizes()) == shard_count
        for prefix in _prefixes(members):
            holders = sum(1 for shard in sharded.shards if prefix in shard)
            assert holders == 1

    @given(members=st.lists(_values32, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_memory_is_the_sum_of_the_shards(self, members):
        member_prefixes = _prefixes(members)
        sharded = ShardedPrefixIndex(member_prefixes, 32, shard_count=4)
        assert not sharded.approximate
        assert sharded.memory_bytes() == sum(
            shard.memory_bytes() for shard in sharded.shards
        ) == len(set(members)) * 4


@pytest.mark.skipif(not NUMPY_AVAILABLE,
                    reason="the fleet simulation is numpy-backed")
class TestFleetSignatureAcrossShardCounts:
    """Full fleet traffic signatures are pinned across shard counts."""

    @pytest.fixture(scope="class")
    def reports(self):
        from dataclasses import replace

        from repro.experiments.fleet import FleetConfig, run_fleet
        from repro.experiments.scale import Scale

        tiny = Scale(name="tiny-shards", corpus_hosts=40,
                     blacklist_fraction=0.002, stats_sites=10, index_sites=10,
                     tracked_targets=3, clients=2, fleet_urls_per_client=40,
                     fleet_batch_size=10)
        base = FleetConfig()
        return {
            shard_count: run_fleet(tiny, replace(base, shard_count=shard_count))
            for shard_count in SHARD_COUNTS
        }

    def test_traffic_signatures_identical(self, reports):
        signatures = {count: report.traffic_signature()
                      for count, report in reports.items()}
        assert len(set(signatures.values())) == 1, signatures

    def test_request_counts_identical(self, reports):
        counts = {
            count: (report.server_update_requests,
                    report.server_full_hash_requests,
                    report.cache_hits,
                    report.server_cache_hits)
            for count, report in reports.items()
        }
        assert len(set(counts.values())) == 1, counts
