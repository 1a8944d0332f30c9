"""Unit tests for the server-side list database."""

from __future__ import annotations

import gc
import itertools
import tracemalloc

import pytest

from repro.exceptions import DataStructureError, ListNotFoundError, ProtocolError
from repro.hashing.digests import FullHash, url_prefix
from repro.hashing.prefix import Prefix
from repro.safebrowsing.database import ListDatabase, ServerDatabase
from repro.safebrowsing.lists import GOOGLE_LISTS, get_list, ListProvider


@pytest.fixture()
def database() -> ListDatabase:
    return ListDatabase(get_list("goog-malware-shavar", ListProvider.GOOGLE))


class TestListDatabase:
    def test_add_expression_returns_prefix(self, database: ListDatabase):
        prefix = database.add_expression("evil.example.com/")
        assert prefix == url_prefix("evil.example.com/")
        assert database.contains_prefix(prefix)

    def test_full_hashes_for_added_expression(self, database: ListDatabase):
        prefix = database.add_expression("evil.example.com/")
        hashes = database.full_hashes_for(prefix)
        assert FullHash.of("evil.example.com/") in hashes

    def test_add_expression_idempotent(self, database: ListDatabase):
        database.add_expression("evil.example.com/")
        database.add_expression("evil.example.com/")
        assert database.prefix_count() == 1
        assert database.full_hash_count() == 1

    def test_add_full_hash_without_cleartext(self, database: ListDatabase):
        full = FullHash.of("secret.example.com/")
        prefix = database.add_full_hash(full)
        assert database.full_hashes_for(prefix) == (full,)
        assert "secret.example.com/" not in database.expressions()

    def test_orphan_prefix_has_no_full_hash(self, database: ListDatabase):
        orphan = Prefix.from_int(0xDEADBEEF, 32)
        database.add_orphan_prefix(orphan)
        assert database.contains_prefix(orphan)
        assert database.full_hashes_for(orphan) == ()
        assert orphan in database.orphan_prefixes()

    def test_orphan_with_wrong_width_rejected(self, database: ListDatabase):
        with pytest.raises(ProtocolError):
            database.add_orphan_prefix(Prefix.from_int(1, 64))

    @pytest.mark.parametrize("bits", [16, 64])
    def test_membership_probe_of_wrong_width_rejected(
            self, database: ListDatabase, bits: int):
        stored = database.add_expression("evil.example.com/")
        wrong = Prefix(FullHash.of("evil.example.com/").digest[:bits // 8],
                       bits)
        with pytest.raises(DataStructureError):
            database.contains_prefix(wrong)
        with pytest.raises(DataStructureError):
            database.contains_many([stored, wrong])
        assert database.contains_many([stored]) == 1

    def test_adding_expression_clears_orphan_status(self, database: ListDatabase):
        expression = "evil.example.com/"
        orphan = url_prefix(expression)
        database.add_orphan_prefix(orphan)
        database.add_expression(expression)
        assert orphan not in database.orphan_prefixes()
        assert database.contains_prefix(orphan)

    def test_remove_expression(self, database: ListDatabase):
        prefix = database.add_expression("evil.example.com/")
        database.remove_expression("evil.example.com/")
        assert not database.contains_prefix(prefix)
        assert database.prefix_count() == 0

    def test_remove_orphan_prefix(self, database: ListDatabase):
        orphan = Prefix.from_int(1, 32)
        database.add_orphan_prefix(orphan)
        database.remove_orphan_prefix(orphan)
        assert not database.contains_prefix(orphan)

    def test_prefix_count_counts_orphans(self, database: ListDatabase):
        database.add_expression("a.example.com/")
        database.add_orphan_prefix(Prefix.from_int(99, 32))
        assert database.prefix_count() == 2
        assert len(database) == 2

    def test_prefixes_returns_prefix_set(self, database: ListDatabase):
        database.add_expression("a.example.com/")
        database.add_orphan_prefix(Prefix.from_int(99, 32))
        prefixes = database.prefixes()
        assert len(prefixes) == 2
        assert url_prefix("a.example.com/") in prefixes


class TestBuckets:
    """Buckets are digest-sorted tuples and only populated prefixes have one."""

    @staticmethod
    def _colliding(prefix: Prefix, count: int) -> list[FullHash]:
        """Distinct digests that all truncate to ``prefix``."""
        return [FullHash(prefix.value + bytes([tail]) * 28)
                for tail in range(count)]

    def test_full_hashes_for_is_digest_sorted_in_any_order(self):
        prefix = url_prefix("evil.example.com/")
        expression_hash = FullHash.of("evil.example.com/")
        colliding = self._colliding(prefix, 3)
        for order in itertools.permutations(range(4)):
            database = ListDatabase(
                get_list("goog-malware-shavar", ListProvider.GOOGLE))
            for position in order:
                if position == 3:
                    database.add_expression("evil.example.com/")
                else:
                    database.add_full_hash(colliding[position])
            stored = database.full_hashes_for(prefix)
            assert stored == tuple(sorted(
                (*colliding, expression_hash), key=lambda fh: fh.digest))
            database.remove_expression("evil.example.com/")
            assert database.full_hashes_for(prefix) == tuple(colliding)
            assert database.full_hash_count() == 3

    def test_removing_last_digest_drops_the_bucket(self, database: ListDatabase):
        prefix = database.add_expression("evil.example.com/")
        database.remove_expression("evil.example.com/")
        assert prefix.value not in database._full_hashes
        assert database.full_hashes_for(prefix) == ()
        assert not database.contains_prefix(prefix)

    def test_prefix_count_matches_dict_with_orphans(self, database: ListDatabase):
        def derived() -> int:
            populated = {value for value, bucket
                         in database._full_hashes.items() if bucket}
            return len(populated | database._orphans)

        orphan = Prefix(b"\x00\x00\x00\x01", 32)
        steps = [
            lambda: database.add_expression("evil.example.com/"),
            lambda: database.add_expression("bad.example.org/x"),
            lambda: database.add_orphan_prefix(orphan),
            lambda: database.add_orphan_prefix(url_prefix("evil.example.com/")),
            lambda: database.add_orphan_prefix(url_prefix("gone.example.net/")),
            lambda: database.add_expression("gone.example.net/"),
            lambda: database.remove_expression("bad.example.org/x"),
            lambda: database.remove_orphan_prefix(orphan),
        ]
        for step in steps:
            step()
            assert database.prefix_count() == derived()
            assert database.prefix_count() == len(database.prefixes())
        assert database.prefix_count() == 2

    def test_memory_per_entry_is_bounded(self):
        """20k expressions cost at most 360 traced bytes each (set buckets: ~470)."""
        database = ListDatabase(
            get_list("goog-malware-shavar", ListProvider.GOOGLE))
        expressions = [f"host{i}.example.com/path/{i}" for i in range(20_000)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for expression in expressions:
                database.add_expression(expression)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert database.prefix_count() == len(expressions)
        assert (after - before) / len(expressions) <= 360


class TestBatchedFullHashMatching:
    """``full_hashes_matching_many`` vs. the per-prefix variable-width query."""

    EXPRESSIONS = ("evil.example.com/", "phishy.example.net/login",
                   "bad.actor.org/payload", "another.evil.example/deep/path")

    def _populated(self, database: ListDatabase) -> list[Prefix]:
        return [database.add_expression(expression)
                for expression in self.EXPRESSIONS]

    def test_batch_matches_per_prefix_queries(self, database: ListDatabase):
        stored = self._populated(database)
        queries = []
        for prefix in stored:
            queries.append(prefix)                       # stored width
            queries.append(Prefix(prefix.value[:2], 16))  # widened (shorter)
            full = database.full_hashes_for(prefix)[0]
            queries.append(Prefix(full.digest[:8], 64))   # narrowed (longer)
        queries.append(Prefix.from_int(0xDEADBEEF, 32))   # absent
        queries.append(Prefix(stored[0].value[:1], 8))    # wider still
        batch = database.full_hashes_matching_many(queries)
        assert len(batch) == len(queries)
        for query, found in zip(queries, batch):
            assert found == database.full_hashes_matching(query)

    def test_widened_query_unions_matching_buckets(self, database: ListDatabase):
        stored = self._populated(database)
        wide = Prefix(stored[0].value[:1], 8)
        expected = {
            full_hash
            for prefix in stored if prefix.value[:1] == wide.value
            for full_hash in database.full_hashes_for(prefix)
        }
        assert set(database.full_hashes_matching(wide)) == expected

    def test_duplicate_and_mixed_width_queries_answer_in_order(
            self, database: ListDatabase):
        stored = self._populated(database)
        wide = Prefix(stored[0].value[:2], 16)
        queries = [stored[0], wide, stored[0], stored[1], wide, stored[0]]
        batch = database.full_hashes_matching_many(queries)
        assert len(batch) == len(queries)
        for query, found in zip(queries, batch):
            assert found == database.full_hashes_matching(query)
        assert batch[0] == batch[2] == batch[5] == database.full_hashes_for(
            stored[0])
        assert batch[1] == batch[4] and set(batch[0]) <= set(batch[1])

    def test_all_ff_wide_query_has_no_upper_bound(self, database: ListDatabase):
        # A widened value of all 0xFF bytes has no successor; the range must
        # extend to the end of the wide view instead of overflowing.
        self._populated(database)
        query = Prefix(b"\xff", 8)
        expected = {
            full_hash
            for prefix in database.prefixes()
            if prefix.value[:1] == b"\xff"
            for full_hash in database.full_hashes_for(prefix)
        }
        assert set(database.full_hashes_matching(query)) == expected

    def test_wide_view_tracks_mutations(self, database: ListDatabase):
        prefix = database.add_expression("evil.example.com/")
        wide = Prefix(prefix.value[:2], 16)
        assert database.full_hashes_matching(wide) != ()
        database.remove_expression("evil.example.com/")
        assert database.full_hashes_matching(wide) == ()


class TestChunkManagement:
    def test_commit_creates_add_chunk(self, database: ListDatabase):
        database.add_expressions(["a.com/", "b.com/"])
        add_chunk, sub_chunk = database.commit_pending()
        assert add_chunk is not None and len(add_chunk) == 2
        assert sub_chunk is None
        assert database.add_chunks == (add_chunk,)

    def test_commit_creates_sub_chunk_on_removal(self, database: ListDatabase):
        database.add_expression("a.com/")
        database.commit_pending()
        database.remove_expression("a.com/")
        add_chunk, sub_chunk = database.commit_pending()
        assert add_chunk is None
        assert sub_chunk is not None and len(sub_chunk) == 1

    def test_commit_with_nothing_pending(self, database: ListDatabase):
        assert database.commit_pending() == (None, None)

    def test_chunk_numbers_increase(self, database: ListDatabase):
        database.add_expression("a.com/")
        database.commit_pending()
        database.add_expression("b.com/")
        database.commit_pending()
        assert [chunk.number for chunk in database.add_chunks] == [1, 2]

    def test_chunks_after_held_set(self, database: ListDatabase):
        database.add_expression("a.com/")
        database.commit_pending()
        database.add_expression("b.com/")
        database.commit_pending()
        missing_add, missing_sub = database.chunks_after([1], [])
        assert [chunk.number for chunk in missing_add] == [2]
        assert missing_sub == []


class TestServerDatabase:
    def test_lists_created_from_descriptors(self):
        server_db = ServerDatabase(GOOGLE_LISTS)
        assert len(server_db) == len(GOOGLE_LISTS)
        assert "goog-malware-shavar" in server_db

    def test_unknown_list_rejected(self):
        server_db = ServerDatabase(GOOGLE_LISTS)
        with pytest.raises(ListNotFoundError):
            server_db["nope"]

    def test_lists_containing(self):
        server_db = ServerDatabase(GOOGLE_LISTS)
        prefix = server_db["goog-malware-shavar"].add_expression("evil.com/")
        server_db["googpub-phish-shavar"].add_expression("evil.com/")
        assert set(server_db.lists_containing(prefix)) == {
            "goog-malware-shavar", "googpub-phish-shavar",
        }

    def test_lists_containing_includes_orphans(self):
        server_db = ServerDatabase(GOOGLE_LISTS)
        orphan = Prefix.from_int(0xDEADBEEF, 32)
        server_db["goog-malware-shavar"].add_orphan_prefix(orphan)
        assert server_db.lists_containing(orphan) == ["goog-malware-shavar"]
        server_db["goog-malware-shavar"].remove_orphan_prefix(orphan)
        assert server_db.lists_containing(orphan) == []

    def test_contains_many_is_the_union_of_the_lists(self):
        server_db = ServerDatabase(GOOGLE_LISTS)
        populated = server_db["googpub-phish-shavar"].add_expression("evil.com/")
        orphan = Prefix.from_int(0xDEADBEEF, 32)
        server_db["goog-malware-shavar"].add_orphan_prefix(orphan)
        absent = Prefix.from_int(0x00C0FFEE, 32)
        assert server_db.contains_many([absent, populated, orphan]) == 0b110
        assert server_db.contains_many([absent]) == 0
        assert server_db.contains_many([]) == 0

    def test_commit_all(self):
        server_db = ServerDatabase(GOOGLE_LISTS)
        server_db["goog-malware-shavar"].add_expression("evil.com/")
        server_db.commit_all()
        assert len(server_db["goog-malware-shavar"].add_chunks) == 1

    def test_iteration_and_names(self):
        server_db = ServerDatabase(GOOGLE_LISTS)
        assert set(server_db.list_names) == {entry.name for entry in GOOGLE_LISTS}
        assert len(list(iter(server_db))) == len(GOOGLE_LISTS)
