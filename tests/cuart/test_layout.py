"""Unit tests for the CuART struct-of-arrays mapping."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.art.bulk import bulk_load
from repro.art.nodes import Leaf
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    CUART_MAX_PREFIX,
    LEAF_CAPACITY,
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
    MAX_SHORT_KEY,
    NODE_TYPE_CODES,
)
from repro.cuart.layout import CuartLayout, LongKeyStrategy
from repro.errors import KeyPrefixError, KeyTooLongError, StaleLayoutError
from repro.util.keys import encode_int
from repro.util.packing import link_type, pack_link, unpack_link

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
        with pytest.raises(KeyTooLongError, match="8-byte") as err:
            CuartLayout(t, single_leaf_size=8)
        assert err.value.context["key_len"] == 12
        assert err.value.context["max_len"] == 8

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


# -- the layout read back from its buffers mirrors the tree it maps -------

def _leaf_type(key_len, single_leaf_size, long_keys):
    """Expected link type of one leaf: the smallest fixed leaf that holds
    the key, only the forced one under ``single_leaf_size``, else the
    long-key strategy's link."""
    for code in LEAF_TYPE_CODES:
        cap = LEAF_CAPACITY[code]
        if single_leaf_size in (None, cap) and key_len <= cap:
            return code
    return LINK_DYNLEAF if long_keys is LongKeyStrategy.DYNAMIC else LINK_HOST


def assert_mirrors(lay, tree, single_leaf_size, long_keys, prefix_window,
                   spare):
    """Walk ``tree`` and ``lay`` together, reading the layout only through
    ``root_link``, :meth:`CuartLayout.children`, the leaf buffers,
    ``host_leaves`` and the dynamic heap."""
    nodes = dict.fromkeys(NODE_TYPE_CODES, 0)
    leaves = dict.fromkeys(LEAF_TYPE_CODES, 0)
    host, dyn_offsets, cursor, levels = [], [], 0, 0
    stack = [] if tree.root is None else [(tree.root, lay.root_link, 1)]
    if tree.root is None:
        assert lay.root_link == pack_link(LINK_EMPTY, 0)
    while stack:
        node, link, level = stack.pop()
        levels = max(levels, level)
        code, idx = unpack_link(link)
        if isinstance(node, Leaf):
            key, klen = bytes(node.key), len(node.key)
            assert code == _leaf_type(klen, single_leaf_size, long_keys)
            if code == LINK_HOST:
                assert idx == len(host)
                host.append((key, node.value))
            elif code == LINK_DYNLEAF:
                assert idx == cursor
                rec = lay.dyn.heap[idx : idx + 10 + klen].tobytes()
                assert int.from_bytes(rec[:2], "little") == klen
                assert int.from_bytes(rec[2:10], "little") == node.value
                assert rec[10:] == key
                dyn_offsets.append(idx)
                cursor += 10 + klen
            else:  # leaves numbered per type in key order
                assert idx == leaves[code]
                leaves[code] += 1
                buf = lay.leaves[code]
                assert buf.key_lens[idx] == klen
                assert buf.keys[idx].tobytes() == key.ljust(
                    LEAF_CAPACITY[code], b"\0")
                assert buf.values[idx] == node.value
            continue
        # inner nodes numbered per type in pre-order
        assert code == node.TYPE and idx == nodes[code]
        nodes[code] += 1
        buf = lay.nodes[code]
        assert buf.prefix_len[idx] == len(node.prefix)
        assert buf.prefix[idx].tobytes() == bytes(
            node.prefix[:prefix_window]).ljust(prefix_window, b"\0")
        kids = list(node.children_items())
        links = lay.children(code, idx)
        assert [b for b, _ in links] == [b for b, _ in kids]
        for (_, child), (_, clink) in reversed(list(zip(kids, links))):
            stack.append((child, clink, level + 1))
    assert lay.max_levels == levels
    assert lay.host_leaves == host
    assert lay.dyn.offsets == dyn_offsets
    assert lay.dyn.heap.size == cursor
    for code, used in {**nodes, **leaves}.items():
        extra = max(int(used * spare), 8) if spare > 0 else 0
        assert lay.node_count(code) == used + extra
    assert lay._next_node == nodes and lay._next_leaf == leaves


_KEY = st.builds(
    lambda head, tail: (head + tail)[:60],
    st.sampled_from([b"", b"", b"k", b"shared-prefix-", b"q" * 30]),
    st.lists(st.sampled_from(b"\x00ab\xff"), min_size=1, max_size=60).map(bytes)
    | st.binary(min_size=1, max_size=60),
)
_OPS = st.just([]) | st.lists(
    st.tuples(st.just("insert"), _KEY)
    | st.tuples(st.just("delete"), st.integers(0, 500)),
    max_size=40,
)
_CONFIG = st.tuples(
    st.sampled_from(LongKeyStrategy),
    st.sampled_from([None, 8, 16, 32]),
    st.sampled_from([1, 3, 15]),
    st.sampled_from([0.0, 0.25]),
)


def _tree(keys, wide, bulk, ops):
    """``keys`` plus ``wide`` one-byte branches inserted (prefix
    conflicts skipped), bulk-loaded again when ``bulk``, then mutated by
    ``ops``; a delete names a key by its position."""
    keys = keys + [bytes([b, 1]) for b in range(0, 2 * wide, 2)]
    tree = AdaptiveRadixTree()
    for i, key in enumerate(keys):
        with contextlib.suppress(KeyPrefixError):
            tree.insert(bytearray(key) if i % 7 == 3 else key, i)
    if bulk:
        tree = bulk_load([bytes(k) for k, _ in tree.items()],
                         [v for _, v in tree.items()])
    for i, (op, arg) in enumerate(ops):
        if op == "delete" and keys:
            tree.delete(keys[arg % len(keys)])
        elif op == "insert":
            with contextlib.suppress(KeyPrefixError):
                tree.insert(arg, 1000 + i)
    return tree


@settings(max_examples=150, deadline=None)
@given(st.lists(_KEY, max_size=100), st.sampled_from([0, 3, 10, 30, 60]),
       st.booleans(), _OPS, _CONFIG)
@example([], 0, False, [], (LongKeyStrategy.ERROR, None, 15, 0.0))
@example([b"only"], 0, True, [], (LongKeyStrategy.ERROR, 8, 3, 0.25))
@example([b"L" * 48], 0, False, [], (LongKeyStrategy.HOST_LINK, None, 15, 0.0))
@example([b"L" * 48], 0, True, [], (LongKeyStrategy.DYNAMIC, 16, 1, 0.25))
@example([b"L" * 48], 0, False, [], (LongKeyStrategy.ERROR, None, 15, 0.0))
@example([b"a", b"b"], 0, True, [("delete", 0), ("delete", 1)],
         (LongKeyStrategy.ERROR, None, 15, 0.0))
def test_layout_mirrors_the_tree(keys, wide, bulk, ops, config):
    long_keys, single_leaf_size, prefix_window, spare = config
    tree = _tree(keys, wide, bulk, ops)
    kw = dict(long_keys=long_keys, single_leaf_size=single_leaf_size,
              prefix_window=prefix_window, spare=spare)
    limit = single_leaf_size or MAX_SHORT_KEY
    too_long = [len(k) for k, _ in tree.items() if len(k) > limit]
    if too_long and long_keys is LongKeyStrategy.ERROR:
        with pytest.raises(KeyTooLongError) as err:
            CuartLayout(tree, **kw)
        assert err.value.context == {
            "key_len": too_long[0], "max_len": limit, "strategy": "ERROR"}
        return
    assert_mirrors(CuartLayout(tree, **kw), tree, **kw)
