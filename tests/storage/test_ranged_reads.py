"""Tests for ranged chunk reads against the file-backed store."""

import pytest

from repro.storage import LocalChunkStore
from repro.storage.chunkstore import InMemoryChunkStore


@pytest.mark.parametrize("store_kind", ["local", "memory"])
class TestReadRanges:
    @pytest.fixture
    def store(self, store_kind, tmp_path):
        if store_kind == "local":
            return LocalChunkStore(tmp_path, node_id=0)
        return InMemoryChunkStore(node_id=0)

    def test_ranges_concatenate_in_order(self, store):
        ref = store.append(1, b"abcdefghij")
        out = store.read_ranges(ref, [(2, 3), (7, 2), (0, 1)])
        assert out == b"cdehi" + b"a"

    def test_ranges_respect_chunk_offset(self, store):
        store.append(1, b"XXXX")  # earlier chunk shifts the file offset
        ref = store.append(1, b"abcdefgh")
        assert ref.offset == 4
        assert store.read_ranges(ref, [(0, 2), (6, 2)]) == b"abgh"

    def test_empty_range_list(self, store):
        ref = store.append(1, b"abc")
        assert store.read_ranges(ref, []) == b""

    def test_zero_length_range(self, store):
        ref = store.append(1, b"abc")
        assert store.read_ranges(ref, [(1, 0)]) == b""

    def test_out_of_bounds_rejected(self, store):
        ref = store.append(1, b"abc")
        with pytest.raises(ValueError):
            store.read_ranges(ref, [(2, 5)])
        with pytest.raises(ValueError):
            store.read_ranges(ref, [(-1, 1)])
        with pytest.raises(ValueError):
            store.read_ranges(ref, [(0, -1)])

    def test_full_chunk_via_ranges_equals_read(self, store):
        payload = bytes(range(97, 123))
        ref = store.append(2, payload)
        assert store.read_ranges(ref, [(0, len(payload))]) == payload
