"""Unit tests for the CuART struct-of-arrays mapping."""

import numpy as np
import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    CUART_MAX_PREFIX,
    LEAF_TYPE_CODES,
    LINK_DYNLEAF,
    LINK_EMPTY,
    LINK_HOST,
    LINK_LEAF8,
    LINK_LEAF16,
    LINK_LEAF32,
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
)
from repro.cuart.layout import CuartLayout, LongKeyStrategy
from repro.errors import KeyTooLongError, StaleLayoutError
from repro.util.keys import encode_int
from repro.util.packing import link_type, unpack_link

from tests.conftest import make_tree


class TestMappingBasics:
    def test_empty_tree(self):
        lay = CuartLayout(AdaptiveRadixTree())
        assert link_type(lay.root_link) == LINK_EMPTY

    def test_single_leaf_root(self):
        lay = CuartLayout(make_tree([(b"abcd", 7)]))
        code, idx = unpack_link(lay.root_link)
        assert code == LINK_LEAF8 and idx == 0
        buf = lay.leaves[LINK_LEAF8]
        assert buf.values[0] == 7
        assert buf.key_lens[0] == 4
        assert bytes(buf.keys[0, :4]) == b"abcd"

    def test_node_counts_match_tree(self):
        t = make_tree([(bytes([0, b]), b) for b in range(20)])  # Node48 root
        lay = CuartLayout(t)
        assert lay.node_count(LINK_N48) == 1
        assert lay.node_count(LINK_N4) == 0
        assert lay.node_count(LINK_LEAF8) == 20

    @pytest.mark.parametrize(
        "fanout,code", [(3, LINK_N4), (10, LINK_N16), (30, LINK_N48), (100, LINK_N256)]
    )
    def test_root_node_type(self, fanout, code):
        t = make_tree([(bytes([b, 1]), b) for b in range(fanout)])
        lay = CuartLayout(t)
        assert link_type(lay.root_link) == code

    def test_leaf_size_classes(self):
        t = make_tree([(b"a" * 8, 1), (b"b" * 16, 2), (b"c" * 32, 3)])
        lay = CuartLayout(t)
        assert lay.node_count(LINK_LEAF8) == 1
        assert lay.node_count(LINK_LEAF16) == 1
        assert lay.node_count(LINK_LEAF32) == 1

    def test_leaf_buffers_lexicographically_ordered(self):
        rng = np.random.default_rng(3)
        keys = sorted(
            {bytes(rng.integers(0, 256, size=6).astype(np.uint8)) for _ in range(300)}
        )
        lay = CuartLayout(make_tree((k, i) for i, k in enumerate(keys)))
        buf = lay.leaves[LINK_LEAF8]
        stored = [buf.keys[i].tobytes() for i in range(buf.keys.shape[0])]
        assert stored == sorted(stored)

    def test_prefix_window_truncation(self):
        long_prefix = b"x" * 40
        t = make_tree([(long_prefix + b"a", 1), (long_prefix + b"b", 2)])
        with pytest.raises(KeyTooLongError):
            CuartLayout(t)  # 41-byte keys exceed leaf32
        t2 = make_tree([(b"p" * 20 + b"a", 1), (b"p" * 20 + b"b", 2)])
        lay = CuartLayout(t2)
        buf = lay.nodes[LINK_N4]
        assert buf.prefix_len[0] == 20  # full skipped length kept
        assert bytes(buf.prefix[0]) == b"p" * CUART_MAX_PREFIX

    def test_device_bytes_positive_and_aligned(self, medium_layout):
        assert medium_layout.device_bytes() > 0
        assert medium_layout.device_bytes() % 16 == 0

    def test_max_levels_tracked(self, medium_layout):
        assert medium_layout.max_levels >= 2


class TestStaleness:
    def test_structural_change_invalidates(self, medium_tree):
        lay = CuartLayout(medium_tree)
        medium_tree.insert(encode_int(2**62 + 12345), 1)
        with pytest.raises(StaleLayoutError):
            lay.check_fresh()
        medium_tree.delete(encode_int(2**62 + 12345))  # restore for others

    def test_fresh_layout_passes(self, medium_layout):
        medium_layout.check_fresh()


class TestLongKeyStrategies:
    LONG = b"L" * 48

    def test_error_strategy_raises(self):
        t = make_tree([(self.LONG, 1)])
        with pytest.raises(KeyTooLongError):
            CuartLayout(t, long_keys=LongKeyStrategy.ERROR)

    def test_host_link_strategy(self):
        t = make_tree([(self.LONG, 9), (b"short", 1)])
        lay = CuartLayout(t, long_keys=LongKeyStrategy.HOST_LINK)
        assert lay.host_leaves == [(self.LONG, 9)]
        # a HOST link exists somewhere in the node buffers
        found = any(
            link_type(int(link)) == LINK_HOST
            for link in lay.nodes[LINK_N4].children.ravel()
        )
        assert found

    def test_dynamic_strategy_heap(self):
        t = make_tree([(self.LONG, 1234), (b"short", 1)])
        lay = CuartLayout(t, long_keys=LongKeyStrategy.DYNAMIC)
        assert lay.dyn.heap.size >= 10 + len(self.LONG)
        assert len(lay.dyn.offsets) == 1
        off = lay.dyn.offsets[0]
        stored_len = int(lay.dyn.heap[off]) | (int(lay.dyn.heap[off + 1]) << 8)
        assert stored_len == len(self.LONG)

    def test_single_leaf_ablation(self):
        t = make_tree([(b"ab", 1), (b"cd", 2)])
        lay = CuartLayout(t, single_leaf_size=32)
        assert lay.node_count(LINK_LEAF32) == 2
        assert lay.node_count(LINK_LEAF8) == 0

    def test_single_leaf_rejects_longer_keys(self):
        t = make_tree([(b"x" * 12, 1)])
        with pytest.raises(KeyTooLongError):
            CuartLayout(t, single_leaf_size=8)

    def test_single_leaf_invalid_size(self):
        with pytest.raises(KeyTooLongError):
            CuartLayout(AdaptiveRadixTree(), single_leaf_size=24)


class TestMemoryAccounting:
    def test_free_leaves_initially_empty(self, medium_layout):
        assert all(len(v) == 0 for v in medium_layout.free_leaves.values())

    def test_leaf_value_location_is_packed_link(self, medium_layout):
        loc = medium_layout.leaf_value_location(LINK_LEAF8, 5)
        assert unpack_link(loc) == (LINK_LEAF8, 5)


class TestPrefixWindow:
    """The tunable stored-prefix window (paper: GRT's freed type byte
    funds the 15-byte default)."""

    def test_default_matches_constant(self, medium_tree):
        lay = CuartLayout(medium_tree)
        assert lay.prefix_window == CUART_MAX_PREFIX
        from repro.constants import CUART_NODE_BYTES

        assert lay.node_record_bytes == CUART_NODE_BYTES

    @pytest.mark.parametrize("window", [4, 8, 31])
    def test_lookups_correct_at_any_window(self, window):
        from repro.cuart.lookup import lookup_batch
        from repro.util.keys import keys_to_matrix

        p = b"s" * 12  # forces optimistic skips for small windows
        keys = [p + bytes([b, b ^ 0x5A]) for b in range(60)]
        t = make_tree((k, i) for i, k in enumerate(keys))
        lay = CuartLayout(t, prefix_window=window)
        probes = keys + [p[:-1] + b"X" + bytes([1, 2])]
        mat, lens = keys_to_matrix(probes)
        res = lookup_batch(lay, mat, lens)
        assert res.values[:60].tolist() == list(range(60))
        assert not res.hits[60]

    def test_smaller_window_smaller_records(self, medium_tree):
        small = CuartLayout(medium_tree, prefix_window=4)
        big = CuartLayout(medium_tree, prefix_window=31)
        assert small.device_bytes() < big.device_bytes()
        assert small.node_record_bytes[LINK_N4] < big.node_record_bytes[LINK_N4]

    def test_records_stay_aligned(self, medium_tree):
        for window in (1, 7, 15, 31):
            lay = CuartLayout(medium_tree, prefix_window=window)
            assert all(v % 16 == 0 for v in lay.node_record_bytes.values())

    def test_invalid_window(self, medium_tree):
        with pytest.raises(KeyTooLongError):
            CuartLayout(medium_tree, prefix_window=0)
        with pytest.raises(KeyTooLongError):
            CuartLayout(medium_tree, prefix_window=256)

    def test_insert_splits_respect_window(self):
        from repro.cuart.insert import InsertEngine
        from repro.util.keys import keys_to_matrix
        import numpy as np

        mat, lens = keys_to_matrix([b"comXotCC"])
        values = np.array([3], dtype=np.uint64)

        # window 4: the node's 6-byte prefix has invisible tail bytes, so
        # the on-device prefix split must refuse and defer to the host
        t = make_tree([(b"commonAA", 1), (b"commonBB", 2)])
        lay4 = CuartLayout(t, spare=1.0, prefix_window=4)
        res4 = InsertEngine(lay4, hash_slots=256).apply(mat, lens, values)
        assert res4.n_deferred == 1 and res4.n_inserted == 0

        # window 15 (default): the whole prefix is visible -> split works
        t2 = make_tree([(b"commonAA", 1), (b"commonBB", 2)])
        lay15 = CuartLayout(t2, spare=1.0, prefix_window=15)
        res15 = InsertEngine(lay15, hash_slots=256).apply(mat, lens, values)
        assert res15.n_inserted == 1
