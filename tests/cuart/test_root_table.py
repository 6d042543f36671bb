"""Unit tests for the compacted upper-layer table (section 3.2.2)."""

import numpy as np
import pytest

from repro.art.bulk import bulk_load
from repro.art.nodes import Leaf
from repro.art.stats import leaf_type_for_key
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    LEAF_TYPE_CODES,
    LINK_DYNLEAF,
    LINK_EMPTY,
    LINK_HOST,
    MAX_SHORT_KEY,
    NIL_VALUE,
    NODE_TYPE_CODES,
    PAPER_ROOT_TABLE_BYTES,
)
from repro.cuart.layout import CuartLayout, LongKeyStrategy, _DynLeafHeap
from repro.cuart.lookup import lookup_batch
from repro.cuart.root_table import RootTable
from repro.errors import SimulationError
from repro.gpusim.transactions import TransactionLog
from repro.host.engine import CuartEngine
from repro.util.keys import keys_to_matrix
from repro.util.packing import link_type, pack_link
from repro.workloads.btc import btc_like_keys
from repro.workloads.synthetic import random_keys

from tests.conftest import make_tree


class TestConstruction:
    def test_table_size(self, medium_tree):
        lay = CuartLayout(medium_tree)
        t = RootTable(lay, k=2)
        assert t.links.size == 256**2
        assert t.nbytes == 256**2 * 8

    def test_paper_scale_constant(self):
        # 2^24 links x 8 bytes = the paper's "128MB of memory consumption"
        assert PAPER_ROOT_TABLE_BYTES == 128 * 1024 * 1024

    def test_invalid_depth(self, medium_tree):
        lay = CuartLayout(medium_tree)
        with pytest.raises(SimulationError):
            RootTable(lay, k=0)
        with pytest.raises(SimulationError):
            RootTable(lay, k=4)

    def test_empty_tree_table_is_empty(self):
        from repro.art.tree import AdaptiveRadixTree

        lay = CuartLayout(AdaptiveRadixTree())
        t = RootTable(lay, k=1)
        assert (t.links == np.uint64(0)).all()

    def test_whole_table_covered_for_nonempty_tree(self, medium_tree):
        lay = CuartLayout(medium_tree)
        t = RootTable(lay, k=1)
        # every entry points somewhere (at worst the root at depth 0)
        assert (t.links != np.uint64(0)).all() or link_type(lay.root_link) != LINK_EMPTY

    def test_depths_bounded_by_k(self, medium_tree):
        lay = CuartLayout(medium_tree)
        for k in (1, 2, 3):
            t = RootTable(lay, k=k)
            assert int(t.depths.max()) <= k


class TestDispatch:
    def test_entries_refine_with_depth(self):
        # two-level tree: byte-0 fans out, so at k=2 the table should
        # dispatch past the root for covered prefixes
        pairs = [(bytes([b, b2, 7]), b * 256 + b2) for b in range(8) for b2 in (1, 9)]
        lay = CuartLayout(make_tree(pairs))
        t = RootTable(lay, k=2)
        mat, lens = keys_to_matrix([pairs[0][0]])
        links, depths, covered = t.start_links(mat, lens)
        assert covered.all()
        assert int(depths[0]) == 2  # skipped two levels

    def test_uncovered_short_keys(self):
        pairs = [(bytes([1, 2, 3, 4]), 1)]
        lay = CuartLayout(make_tree(pairs))
        t = RootTable(lay, k=3)
        mat, lens = keys_to_matrix([bytes([1, 2])], width=4)
        links, depths, covered = t.start_links(mat, lens)
        assert not covered[0]

    def test_log_accounting(self, medium_tree, medium_keys):
        lay = CuartLayout(medium_tree)
        t = RootTable(lay, k=2)
        log = TransactionLog()
        mat, lens = keys_to_matrix(medium_keys[:64])
        t.start_links(mat, lens, log)
        assert log.total_transactions == 64
        assert log.rounds[-1].distinct_bytes > 0

    def test_stale_layout_rejected(self, medium_tree):
        lay = CuartLayout(medium_tree)
        medium_tree.insert(b"\x01\x02\x03\x04\x05\x06\x07\x99", 1)
        from repro.errors import StaleLayoutError

        with pytest.raises(StaleLayoutError):
            RootTable(lay, k=2)
        medium_tree.delete(b"\x01\x02\x03\x04\x05\x06\x07\x99")


# -- built from the device buffers, equal to the host-tree walk ---------


def host_walk_table(layout, k):
    """The table as the host-tree walk built it: every host node's link
    re-derived from the map's pre-order index assignment, then the host
    tree walked to depth ``k`` through the host nodes' own prefixes and
    children.  The reference for tables read from the buffers."""
    tree = layout._source
    link_of = {}
    nxt = dict.fromkeys(NODE_TYPE_CODES + LEAF_TYPE_CODES, 0)
    host = dyn = 0
    stack = [tree.root] if tree.root is not None else []
    while stack:
        node = stack.pop()
        if not isinstance(node, Leaf):
            code = node.TYPE
            stack.extend(c for _, c in reversed(list(node.children_items())))
        elif len(node.key) <= MAX_SHORT_KEY:
            code = leaf_type_for_key(len(node.key))
        elif layout.long_keys is LongKeyStrategy.HOST_LINK:
            link_of[id(node)] = pack_link(LINK_HOST, host)
            host += 1
            continue
        else:
            link_of[id(node)] = pack_link(LINK_DYNLEAF, dyn)
            dyn += _DynLeafHeap.HEADER + len(node.key)
            continue
        link_of[id(node)] = pack_link(code, nxt[code])
        nxt[code] += 1

    links = np.zeros(256**k, dtype=np.uint64)
    depths = np.zeros(256**k, dtype=np.uint8)

    def fill(node, depth, prefix_value):
        span = 256 ** (k - depth)
        start = prefix_value * span
        links[start : start + span] = link_of[id(node)]
        depths[start : start + span] = depth
        if isinstance(node, Leaf):
            return
        child_depth = depth + len(node.prefix) + 1
        if child_depth > k:
            return
        base = prefix_value
        for b in node.prefix:
            base = (base << 8) | b
        for byte, child in node.children_items():
            fill(child, child_depth, (base << 8) | byte)

    if tree.root is not None:
        fill(tree.root, 0, 0)
    return links, depths


def _long_key_pairs():
    short = random_keys(300, 8, seed=5)
    long = ([bytes([0xF0 + i]) + b"L" * 47 for i in range(4)]
            + [b"\xee" + bytes([i]) + b"M" * 46 for i in range(5)])
    return [(k, i + 1) for i, k in enumerate(short + long)]


def _thinned_tree():
    keys = random_keys(20_000, 8, seed=6)
    tree = bulk_load(keys)
    for key in keys[::3]:
        tree.delete(key)
    return tree


def _remapped_engine_layout():
    keys = random_keys(2_000, 8, seed=7)
    eng = CuartEngine(batch_size=256, spare=0.5)
    eng.populate((key, i + 1) for i, key in enumerate(keys))
    eng.map_to_device()
    eng.insert([(key, 7) for key in random_keys(300, 8, seed=8)
                if key not in set(keys)])
    eng.delete(keys[::4])
    eng.map_to_device()
    return eng.layout


def _both_builds(name, pairs):
    keys, values = zip(*pairs)
    return {
        f"{name}-bulk": lambda: CuartLayout(bulk_load(keys, values)),
        f"{name}-inserted": lambda: CuartLayout(make_tree(pairs)),
    }


def _numbered(keys):
    return [(key, i + 1) for i, key in enumerate(keys)]


SHAPES = {
    **_both_builds("random12", _numbered(random_keys(3_000, 12, seed=1))),
    **_both_builds("random8", _numbered(random_keys(3_000, 8, seed=2))),
    **_both_builds("btc32", _numbered(btc_like_keys(2_000, seed=3))),
    **_both_builds("three", [(b"ab\x01xyz", 1), (b"ab\x02x", 2),
                             (b"ab\x03", 3)]),
    **_both_builds("one", [(b"only-key", 1)]),
    "thinned-walk": lambda: CuartLayout(_thinned_tree()),
    "long-host": lambda: CuartLayout(
        make_tree(_long_key_pairs()), long_keys=LongKeyStrategy.HOST_LINK),
    "long-dynamic": lambda: CuartLayout(
        make_tree(_long_key_pairs()), long_keys=LongKeyStrategy.DYNAMIC),
    "empty": lambda: CuartLayout(AdaptiveRadixTree()),
    "engine-remapped": _remapped_engine_layout,
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_table_from_buffers_equals_host_walk(shape, k):
    layout = SHAPES[shape]()
    table = RootTable(layout, k=k)
    want_links, want_depths = host_walk_table(layout, k)
    assert np.array_equal(table.links, want_links)
    assert np.array_equal(table.depths, want_depths)


def test_prefix_beyond_the_stored_window_ends_the_path():
    """With a one-byte stored window, a two-byte root prefix keeps every
    entry at the root; lookups still resolve through the table."""
    pairs = [(b"ab" + bytes([i]) + b"tail", i + 1) for i in range(20)]
    lay = CuartLayout(make_tree(pairs), prefix_window=1)
    table = RootTable(lay, k=3)
    assert (table.links == np.uint64(lay.root_link)).all()
    assert (table.depths == 0).all()
    mat, lens = keys_to_matrix([k for k, _ in pairs] + [b"ax\x01tail"])
    res = lookup_batch(lay, mat, lens, root_table=table)
    assert res.values.tolist()[:20] == [v for _, v in pairs]
    assert int(res.values[20]) == NIL_VALUE
