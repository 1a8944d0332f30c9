"""Unit tests for :class:`PrefixRun`, the packed form of a chunk's prefixes."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import PrefixError, ProtocolError
from repro.hashing.prefix import Prefix, PrefixRun
from repro.safebrowsing.chunks import Chunk, ChunkKind

PREFIXES = tuple(Prefix.from_int(value, 32)
                 for value in (0x01020304, 0xDEADBEEF, 0x00000000, 0xDEADBEEF))


class TestConstruction:
    def test_from_prefixes_packs_values_in_order(self):
        run = PrefixRun(PREFIXES)
        assert run.bits == 32
        assert run.packed == b"".join(prefix.value for prefix in PREFIXES)

    def test_from_packed_matches_from_prefixes(self):
        run = PrefixRun(PREFIXES)
        assert PrefixRun.from_packed(run.packed, 32) == run

    def test_width_is_inferred_from_the_prefixes(self):
        assert PrefixRun([Prefix(b"\xab", 8)]).bits == 8

    def test_empty_run_takes_the_given_or_default_width(self):
        assert PrefixRun().bits == 32
        assert PrefixRun((), bits=16).bits == 16

    def test_mixed_widths_are_rejected(self):
        with pytest.raises(PrefixError, match="one width"):
            PrefixRun([Prefix.from_int(1, 32), Prefix.from_int(1, 16)])

    def test_declared_width_must_match_the_prefixes(self):
        with pytest.raises(PrefixError, match="16-bit prefix run"):
            PrefixRun(PREFIXES, bits=16)

    def test_packed_length_must_be_whole_prefixes(self):
        with pytest.raises(PrefixError, match="whole number"):
            PrefixRun.from_packed(b"\x00\x01\x02", 32)

    def test_invalid_width_is_rejected(self):
        with pytest.raises(PrefixError, match="multiple of 8"):
            PrefixRun.from_packed(b"", 12)

    def test_copy_of_a_run_is_equal(self):
        run = PrefixRun(PREFIXES)
        assert PrefixRun(run) == run
        assert PrefixRun(run, bits=32).packed == run.packed


class TestSequence:
    def test_len_and_iteration(self):
        run = PrefixRun(PREFIXES)
        assert len(run) == len(PREFIXES)
        assert tuple(run) == PREFIXES
        assert len(PrefixRun()) == 0 and list(PrefixRun()) == []

    def test_indexing_matches_the_tuple(self):
        run = PrefixRun(PREFIXES)
        for index in range(-len(PREFIXES), len(PREFIXES)):
            assert run[index] == PREFIXES[index]
        with pytest.raises(IndexError):
            run[len(PREFIXES)]
        with pytest.raises(IndexError):
            run[-len(PREFIXES) - 1]

    def test_slices_are_runs(self):
        run = PrefixRun(PREFIXES)
        for index in (slice(1, 3), slice(None, None, 2), slice(None, None, -1),
                      slice(5, 9)):
            sliced = run[index]
            assert isinstance(sliced, PrefixRun)
            assert tuple(sliced) == PREFIXES[index]

    def test_membership_is_aligned(self):
        run = PrefixRun(PREFIXES)
        assert Prefix.from_int(0xDEADBEEF, 32) in run
        # 0x04DEADBE straddles two stored values: present as bytes, not as a prefix.
        assert Prefix.from_int(0x04DEADBE, 32) not in run
        assert Prefix(b"\xde\xad", 16) not in run
        assert "0xdeadbeef" not in run

    def test_sequence_mixins_agree_with_the_tuple(self):
        run = PrefixRun(PREFIXES)
        target = Prefix.from_int(0xDEADBEEF, 32)
        assert run.count(target) == PREFIXES.count(target) == 2
        assert run.index(target) == PREFIXES.index(target)
        assert list(reversed(run)) == list(reversed(PREFIXES))


class TestEqualityAndHash:
    def test_equal_runs_hash_equal(self):
        first, second = PrefixRun(PREFIXES), PrefixRun(list(PREFIXES))
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_order_matters(self):
        assert PrefixRun(PREFIXES) != PrefixRun(PREFIXES[::-1])

    def test_same_bytes_different_width_differ(self):
        wide = PrefixRun.from_packed(b"\x01\x02", 16)
        narrow = PrefixRun.from_packed(b"\x01\x02", 8)
        assert wide != narrow

    def test_empty_runs_are_equal_whatever_their_width(self):
        empty8, empty32 = PrefixRun((), bits=8), PrefixRun()
        assert empty8 == empty32 and hash(empty8) == hash(empty32)

    def test_a_run_is_not_equal_to_a_tuple(self):
        assert PrefixRun(PREFIXES) != PREFIXES

    def test_pickle_round_trip(self):
        run = PrefixRun(PREFIXES)
        restored = pickle.loads(pickle.dumps(run))
        assert restored == run and restored.bits == 32


class TestChunkNormalisation:
    def test_chunk_holds_a_run(self):
        chunk = Chunk(1, ChunkKind.ADD, PREFIXES)
        assert isinstance(chunk.prefixes, PrefixRun)
        assert tuple(chunk.prefixes) == PREFIXES
        assert chunk == Chunk(1, ChunkKind.ADD, PrefixRun(PREFIXES))

    def test_mixed_width_chunk_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="one width"):
            Chunk(1, ChunkKind.ADD,
                  (Prefix.from_int(1, 32), Prefix.from_int(1, 16)))
