"""Unit tests for query coalescing."""

import pytest

from repro.errors import ReproError
from repro.host.batching import coalesce
from repro.util.keys import encode_int


KEYS = [encode_int(i, 4) for i in range(10)]


class TestCoalesce:
    def test_splits_into_batches(self):
        batches = coalesce(KEYS, 4)
        assert [b.size for b in batches] == [4, 4, 2]

    def test_origin_positions(self):
        batches = coalesce(KEYS, 4)
        assert batches[1].origin.tolist() == [4, 5, 6, 7]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ReproError):
            coalesce(KEYS, 3)

    def test_roundtrip_contents(self):
        batches = coalesce(KEYS, 8)
        seen = {}
        for b in batches:
            for j, pos in enumerate(b.origin):
                seen[int(pos)] = b.keys_mat[j, : b.key_lens[j]].tobytes()
        assert [seen[i] for i in range(10)] == KEYS

    def test_empty(self):
        assert coalesce([], 4) == []
