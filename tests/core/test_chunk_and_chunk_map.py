"""Tests for chunks, chunk references and chunk-maps."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunk import (
    Chunk,
    ChunkRef,
    content_chunk_id,
    is_content_addressed,
    opaque_chunk_id,
    split_into_chunks,
)
from repro.core.chunk_map import ChunkMap, ChunkPlacement
from repro.exceptions import ChunkIntegrityError


class TestChunk:
    def test_content_addressing_is_deterministic(self):
        assert content_chunk_id(b"data") == content_chunk_id(b"data")
        assert content_chunk_id(b"data") != content_chunk_id(b"datb")

    def test_is_content_addressed(self):
        assert is_content_addressed(content_chunk_id(b"x"))
        assert not is_content_addressed(opaque_chunk_id("ds", 1, 0))

    def test_from_data_content_addressed(self):
        chunk = Chunk.from_data(b"hello")
        chunk.verify()
        assert chunk.size == 5

    def test_from_data_opaque_requires_fallback(self):
        with pytest.raises(ValueError):
            Chunk.from_data(b"hello", content_addressed=False)

    def test_verify_detects_tampering(self):
        chunk = Chunk.from_data(b"hello")
        tampered = Chunk(chunk_id=chunk.chunk_id, data=b"HELLO")
        with pytest.raises(ChunkIntegrityError):
            tampered.verify()

    def test_verify_skips_opaque_chunks(self):
        Chunk(chunk_id="ds:v1:c0", data=b"anything").verify()

    def test_chunk_ref_validation(self):
        with pytest.raises(ValueError):
            ChunkRef(chunk_id="x", offset=-1, length=4)
        with pytest.raises(ValueError):
            ChunkRef(chunk_id="x", offset=0, length=-1)
        ref = ChunkRef(chunk_id="x", offset=10, length=4)
        assert ref.end == 14


class TestSplitIntoChunks:
    def test_round_trip(self):
        data = bytes(range(256)) * 10
        pairs = split_into_chunks(data, chunk_size=300)
        reassembled = b"".join(chunk.data for chunk, _ref in pairs)
        assert reassembled == data

    def test_refs_are_contiguous(self):
        data = b"a" * 1000
        pairs = split_into_chunks(data, chunk_size=256)
        offsets = [ref.offset for _chunk, ref in pairs]
        assert offsets == [0, 256, 512, 768]
        assert pairs[-1][1].length == 1000 - 768

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            split_into_chunks(b"abc", chunk_size=0)

    def test_base_offsets_for_streaming(self):
        first = split_into_chunks(b"a" * 100, 64)
        second = split_into_chunks(
            b"b" * 100, 64, base_index=len(first), base_offset=100
        )
        assert second[0][1].offset == 100

    def test_opaque_ids_unique_per_index(self):
        pairs = split_into_chunks(
            b"x" * 300, 100, content_addressed=False, dataset_id="ds", version=2
        )
        ids = [chunk.chunk_id for chunk, _ in pairs]
        assert len(set(ids)) == len(ids)

    def test_identical_content_shares_id_when_content_addressed(self):
        pairs = split_into_chunks(b"A" * 200, 100)
        assert pairs[0][0].chunk_id == pairs[1][0].chunk_id

    @given(data=st.binary(min_size=1, max_size=4096),
           chunk_size=st.integers(min_value=1, max_value=512))
    @settings(max_examples=60, deadline=None)
    def test_split_reassembly_property(self, data, chunk_size):
        pairs = split_into_chunks(data, chunk_size)
        assert b"".join(c.data for c, _ in pairs) == data
        total = sum(ref.length for _c, ref in pairs)
        assert total == len(data)
        # Contiguity invariant
        expected = 0
        for _chunk, ref in pairs:
            assert ref.offset == expected
            expected = ref.end


def make_map(chunks=3, size=100, benefactors=("b0",)):
    chunk_map = ChunkMap()
    for index in range(chunks):
        chunk_map.append(
            ChunkRef(chunk_id=f"c{index}", offset=index * size, length=size),
            benefactors=list(benefactors),
        )
    return chunk_map


class TestChunkMap:
    def test_append_keeps_order(self):
        chunk_map = ChunkMap()
        chunk_map.append(ChunkRef("b", 100, 100))
        chunk_map.append(ChunkRef("a", 0, 100))
        assert [p.ref.chunk_id for p in chunk_map] == ["a", "b"]

    def test_total_size_and_len(self):
        chunk_map = make_map(chunks=4, size=50)
        assert len(chunk_map) == 4
        assert chunk_map.total_size == 200

    def test_is_contiguous(self):
        assert make_map().is_contiguous()
        gap = ChunkMap([ChunkPlacement(ChunkRef("a", 0, 10)),
                        ChunkPlacement(ChunkRef("b", 20, 10))])
        assert not gap.is_contiguous()

    def test_covering_range(self):
        chunk_map = make_map(chunks=4, size=100)
        covering = chunk_map.covering(150, 200)
        assert [p.ref.chunk_id for p in covering] == ["c1", "c2", "c3"]
        assert chunk_map.covering(0, 0) == []

    def test_placement_queries(self):
        chunk_map = make_map()
        assert chunk_map.placement_for("c1").ref.offset == 100
        assert chunk_map.placement_for("missing") is None
        assert len(chunk_map.placements_for("c2")) == 1

    def test_replication_queries(self):
        chunk_map = make_map(benefactors=("b0", "b1"))
        assert chunk_map.min_replication() == 2
        assert chunk_map.under_replicated(3) == chunk_map.placements
        assert chunk_map.under_replicated(2) == []
        assert ChunkMap().min_replication() == 0

    def test_drop_benefactor(self):
        chunk_map = make_map(benefactors=("b0", "b1"))
        affected = chunk_map.drop_benefactor("b0")
        assert affected == 3
        assert chunk_map.min_replication() == 1
        assert chunk_map.stored_benefactors == {"b1"}

    def test_add_replica_idempotent(self):
        placement = ChunkPlacement(ChunkRef("c", 0, 10), benefactors=["b0"])
        placement.add_replica("b0")
        placement.add_replica("b1")
        assert placement.benefactors == ["b0", "b1"]

    def test_serialization_round_trip(self):
        chunk_map = make_map(benefactors=("b0", "b1"))
        clone = ChunkMap.from_dict(chunk_map.to_dict())
        assert clone.to_dict() == chunk_map.to_dict()
        assert clone.total_size == chunk_map.total_size

    def test_copy_is_independent(self):
        chunk_map = make_map()
        clone = chunk_map.copy()
        clone.drop_benefactor("b0")
        assert chunk_map.min_replication() == 1
