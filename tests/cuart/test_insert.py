"""Unit + property tests for device-side structural inserts (§5.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import LINK_LEAF8, LINK_N4, LINK_N16, NIL_VALUE
from repro.cuart.insert import InsertEngine
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import MissReason, lookup_batch
from repro.cuart.root_table import RootTable
from repro.errors import SimulationError
from repro.util.keys import keys_to_matrix
from repro.workloads import build_tree, random_keys

from tests.conftest import batch_of, make_tree


def apply_inserts(layout, items, *, table=None, slots=1 << 10):
    eng = InsertEngine(layout, root_table=table, hash_slots=slots)
    mat, lens = keys_to_matrix([k for k, _ in items])
    vals = np.array([v for _, v in items], dtype=np.uint64)
    return eng.apply(mat, lens, vals)


def lookup_values(layout, keys, table=None):
    mat, lens = batch_of(keys)
    return lookup_batch(layout, mat, lens, root_table=table).values


class TestSimpleInserts:
    def test_insert_into_empty_slot(self):
        t = make_tree([(b"\x01\x01", 1), (b"\x02\x02", 2)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(b"\x03\x03", 3)])
        assert res.n_inserted == 1 and res.n_deferred == 0
        assert lookup_values(lay, [b"\x03\x03"]).tolist() == [3]

    def test_existing_key_becomes_update(self):
        t = make_tree([(b"\x01\x01", 1), (b"\x02\x02", 2)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(b"\x01\x01", 99)])
        assert res.n_updated == 1 and res.n_inserted == 0
        assert lookup_values(lay, [b"\x01\x01"]).tolist() == [99]

    def test_no_spare_capacity_defers(self):
        t = make_tree([(b"\x01\x01", 1), (b"\x02\x02", 2)])
        lay = CuartLayout(t, spare=0.0)
        res = apply_inserts(lay, [(b"\x03\x03", 3)])
        assert res.n_deferred == 1 and res.n_inserted == 0
        # the layout is untouched
        assert int(lookup_values(lay, [b"\x03\x03"])[0]) == NIL_VALUE

    def test_reuses_freed_leaf_slots(self):
        from repro.cuart.delete import delete_batch

        t = make_tree([(bytes([b, 9]), b) for b in range(6)])
        lay = CuartLayout(t, spare=0.0)  # no spare: only the free list
        mat, lens = batch_of([bytes([2, 9])])
        delete_batch(lay, mat, lens, hash_slots=256)
        assert lay.free_leaves[LINK_LEAF8]
        res = apply_inserts(lay, [(bytes([200, 9]), 77)])
        assert res.n_inserted == 1
        assert lookup_values(lay, [bytes([200, 9])]).tolist() == [77]
        assert not lay.free_leaves[LINK_LEAF8]  # slot consumed

    def test_prefix_split_on_device(self):
        t = make_tree([(b"commonAA", 1), (b"commonBB", 2)])
        lay = CuartLayout(t, spare=1.0)
        # diverges inside the compressed "common" prefix (in-window)
        res = apply_inserts(lay, [(b"comXotAA", 3)])
        assert res.n_inserted == 1
        got = lookup_values(lay, [b"commonAA", b"commonBB", b"comXotAA"])
        assert got.tolist() == [1, 2, 3]

    def test_prefix_split_beyond_window_defers(self):
        p = b"q" * 20  # compressed prefix longer than the 15B window
        t = make_tree([(p + b"AA", 1), (p + b"BB", 2)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(b"q" * 17 + b"XCC", 3)])
        # divergence at byte 17 is invisible on-device: host work
        assert res.n_deferred == 1

    def test_leaf_split_on_device(self):
        t = make_tree([(b"k1234567", 1)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(b"k1234568", 2)])
        assert res.n_inserted == 1
        got = lookup_values(lay, [b"k1234567", b"k1234568"])
        assert got.tolist() == [1, 2]

    def test_leaf_split_root_repointed(self):
        t = make_tree([(b"k1234567", 1)])
        lay = CuartLayout(t, spare=1.0)
        old_root = lay.root_link
        apply_inserts(lay, [(b"k1234568", 2)])
        assert lay.root_link != old_root

    def test_leaf_split_prefix_of_existing_defers(self):
        t = make_tree([(b"abcdef", 1), (b"zzzzzz", 2)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(b"abc", 3)])
        # proper prefix of an existing key: rejected to host (which will
        # also reject it, with KeyPrefixError)
        assert res.n_deferred == 1

    def test_empty_tree_root_install(self):
        from repro.art.tree import AdaptiveRadixTree

        lay = CuartLayout(AdaptiveRadixTree(), spare=1.0)
        # spare floors give the empty layout allocatable rows
        res = apply_inserts(lay, [(b"first", 1), (b"first", 2)])
        assert res.n_inserted == 1
        assert lookup_values(lay, [b"first"]).tolist() == [2]  # last wins

    def test_deep_split_chain(self):
        # split, then insert under the new branch, then split again
        t = make_tree([(b"root-A-11", 1), (b"root-B-22", 2)])
        lay = CuartLayout(t, spare=2.0)
        r1 = apply_inserts(lay, [(b"root-A-99", 3)])
        assert r1.n_inserted == 1
        r2 = apply_inserts(lay, [(b"root-A-9x", 4)])
        assert r2.n_inserted == 1
        got = lookup_values(
            lay, [b"root-A-11", b"root-B-22", b"root-A-99", b"root-A-9x"]
        )
        assert got.tolist() == [1, 2, 3, 4]

    def test_long_key_defers(self):
        t = make_tree([(b"\x01\x01", 1), (b"\x02\x02", 2)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(b"\x03" + b"x" * 40, 3)])
        assert res.n_deferred == 1

    def test_nil_value_rejected(self):
        t = make_tree([(b"\x01\x01", 1), (b"\x02\x02", 2)])
        lay = CuartLayout(t, spare=1.0)
        with pytest.raises(SimulationError):
            apply_inserts(lay, [(b"\x03\x03", NIL_VALUE)])


class TestGrowth:
    def test_full_n4_grows_to_n16(self):
        t = make_tree([(bytes([b, 1]), b) for b in range(4)])
        lay = CuartLayout(t, spare=1.0)
        assert lay.node_count(LINK_N4) >= 1
        res = apply_inserts(lay, [(bytes([100, 1]), 100)])
        assert res.n_inserted == 1
        assert res.grown_nodes == 1
        # everything still findable (old children + the new one)
        keys = [bytes([b, 1]) for b in range(4)] + [bytes([100, 1])]
        assert lookup_values(lay, keys).tolist() == [0, 1, 2, 3, 100]
        # the old N4 row was recycled
        assert lay.free_nodes[LINK_N4]

    def test_growth_repoints_root_link(self):
        t = make_tree([(bytes([b, 1]), b) for b in range(4)])
        lay = CuartLayout(t, spare=1.0)
        old_root = lay.root_link
        apply_inserts(lay, [(bytes([100, 1]), 100)])
        assert lay.root_link != old_root

    def test_growth_chain_n16_to_n48(self):
        t = make_tree([(bytes([b, 1]), b) for b in range(16)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(bytes([100, 1]), 100)])
        assert res.grown_nodes == 1
        keys = [bytes([b, 1]) for b in range(16)] + [bytes([100, 1])]
        assert lookup_values(lay, keys).tolist() == list(range(16)) + [100]

    def test_growth_n48_to_n256(self):
        t = make_tree([(bytes([b, 1]), b) for b in range(48)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(bytes([100, 1]), 100)])
        assert res.grown_nodes == 1
        keys = [bytes([b, 1]) for b in range(48)] + [bytes([100, 1])]
        assert lookup_values(lay, keys).tolist() == list(range(48)) + [100]

    def test_growth_patches_root_table(self):
        # deep node reached via the table must stay reachable post-growth
        keys = [bytes([7, 7, b, 1]) for b in range(4)]
        t = make_tree((k, i) for i, k in enumerate(keys))
        lay = CuartLayout(t, spare=1.0)
        table = RootTable(lay, k=2)
        eng = InsertEngine(lay, root_table=table, hash_slots=256)
        mat, lens = keys_to_matrix([bytes([7, 7, 200, 1])])
        res = eng.apply(mat, lens, np.array([50], dtype=np.uint64))
        assert res.n_inserted == 1
        got = lookup_values(lay, keys + [bytes([7, 7, 200, 1])], table=table)
        assert got.tolist() == [0, 1, 2, 3, 50]


class TestBatchSemantics:
    def test_duplicate_new_key_single_winner(self):
        t = make_tree([(b"\x01\x01", 1), (b"\x02\x02", 2)])
        lay = CuartLayout(t, spare=1.0)
        res = apply_inserts(lay, [(b"\x05\x05", 10), (b"\x05\x05", 20)])
        assert res.n_inserted == 1
        assert bool(res.inserted[1])  # highest thread id wins
        assert res.n_deferred == 1  # the loser retries
        assert lookup_values(lay, [b"\x05\x05"]).tolist() == [20]

    def test_second_round_converges(self):
        t = make_tree([(b"\x01\x01", 1), (b"\x02\x02", 2)])
        lay = CuartLayout(t, spare=1.0)
        eng = InsertEngine(lay, hash_slots=256)
        mat, lens = keys_to_matrix([b"\x05\x05", b"\x05\x05"])
        vals = np.array([10, 20], dtype=np.uint64)
        eng.apply(mat, lens, vals)
        res2 = eng.apply(mat, lens, vals)
        assert res2.n_inserted == 0
        assert res2.n_updated == 1  # winner updates; value stays 20
        assert lookup_values(lay, [b"\x05\x05"]).tolist() == [20]

    def test_mass_insert_then_lookup(self):
        base = random_keys(1500, 8, seed=21)
        tree = build_tree(base)
        lay = CuartLayout(tree, spare=0.6)
        extra = [k for k in random_keys(600, 8, seed=22) if tree.search(k) is None]
        res = apply_inserts(
            lay, [(k, 5000 + i) for i, k in enumerate(extra)], slots=1 << 11
        )
        assert res.n_inserted + res.n_deferred == len(extra)
        got = lookup_values(lay, extra)
        for i, k in enumerate(extra):
            if res.inserted[i]:
                assert int(got[i]) == 5000 + i
        # pre-existing keys untouched
        base_vals = lookup_values(lay, base)
        assert base_vals.tolist() == list(range(len(base)))

    def test_range_query_sees_inserted_keys(self):
        from repro.cuart.range_query import range_query

        base = [bytes([b, 0]) for b in range(0, 40, 2)]
        tree = build_tree(base)
        lay = CuartLayout(tree, spare=1.0)
        apply_inserts(lay, [(bytes([5, 0]), 500)])
        res = range_query(lay, bytes([0, 0]), bytes([10, 0]))
        assert bytes([5, 0]) in res.keys
        assert sorted(res.keys) == res.keys


class TestEngineInsert:
    def test_engine_insert_device_path(self):
        from repro.host.engine import CuartEngine

        keys = random_keys(800, 8, seed=31)
        eng = CuartEngine(batch_size=512, spare=0.5, root_table_depth=2)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        extra = [k for k in random_keys(200, 8, seed=32)
                 if k not in set(keys)]
        out = eng.insert([(k, 9000 + i) for i, k in enumerate(extra)])
        s = out.summary
        assert s["device_inserted"] + s["deferred"] == len(extra)
        got = eng.lookup(extra)
        assert got == [9000 + i for i in range(len(extra))]

    def test_engine_insert_remap_fallback(self):
        from repro.host.engine import CuartEngine

        eng = CuartEngine(batch_size=512, spare=0.0)
        eng.populate([(b"commonAA", 1), (b"commonBB", 2)])
        eng.map_to_device()
        out = eng.insert([(b"comXotCC", 3)])  # prefix split: host work
        assert out.summary["remapped"]
        assert eng.lookup([b"comXotCC", b"commonAA"]) == [3, 1]

    def test_engine_mirrors_keep_remap_consistent(self):
        from repro.host.engine import CuartEngine

        keys = random_keys(300, 8, seed=33)
        eng = CuartEngine(batch_size=512, spare=0.5)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        eng.update([(keys[0], 777)])
        eng.delete([keys[1]])
        eng.insert([(b"\xfe" * 8, 888)])
        # force a full re-map: nothing may be resurrected or lost
        eng.map_to_device()
        assert eng.lookup([keys[0], keys[1], b"\xfe" * 8]) == [777, None, 888]

    def test_new_byte_skips_a_delete_cleared_n48_slot(self):
        """A delete clears an N48 link but keeps its byte's index entry;
        a new byte inserted in the same batch as that key's re-insert
        must not take the cleared slot, or the re-insert overwrites
        the new key's link."""
        from repro.host.engine import CuartEngine

        keys = [bytes([16 + 8 * i]) + b"-key-%05d" % i for i in range(20)]
        eng = CuartEngine()
        eng.populate([(k, i + 1) for i, k in enumerate(keys)])
        eng.map_to_device()
        eng.delete([keys[3]])
        new = bytes([17]) + b"-new-00000"
        out = eng.insert([(new, 500), (keys[3], 600)])
        assert out.summary["device_inserted"] == 2
        assert eng.lookup([new, keys[3], keys[4]]) == [500, 600, 5]


@settings(max_examples=20, deadline=None)
@given(
    st.dictionaries(st.binary(min_size=3, max_size=3), st.integers(0, 2**30),
                    min_size=4, max_size=60),
    st.dictionaries(st.binary(min_size=3, max_size=3), st.integers(0, 2**30),
                    min_size=1, max_size=40),
)
def test_insert_matches_model(base, extra):
    tree = make_tree(base.items())
    lay = CuartLayout(tree, spare=1.0)
    items = list(extra.items())
    res = apply_inserts(lay, items, slots=1 << 9)
    got = lookup_values(lay, [k for k, _ in items])
    for i, (k, v) in enumerate(items):
        if res.inserted[i] or res.updated[i]:
            assert int(got[i]) == v
    # base keys that were not re-inserted keep their values
    base_keys = [k for k in base if k not in extra]
    if base_keys:
        vals = lookup_values(lay, base_keys)
        assert [int(x) for x in vals] == [base[k] for k in base_keys]
