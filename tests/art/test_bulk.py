"""Unit + property tests: bulk loading equals incremental insertion."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import bulk as bulk_mod
from repro.art.bulk import bulk_load
from repro.art.verify import verify_tree
from repro.errors import KeyEncodingError, KeyPrefixError, ReproError
from repro.host.engine import CuartEngine
from repro.util.keys import encode_int
from repro.workloads import random_keys

from tests.conftest import make_tree


class TestBulkLoad:
    def test_empty(self):
        t = bulk_load([])
        assert len(t) == 0

    def test_single(self):
        t = bulk_load([b"only"], [7])
        assert t.search(b"only") == 7

    def test_values_default_to_input_positions(self):
        t = bulk_load([b"beta", b"alpha"])  # unsorted input order kept
        assert t.search(b"beta") == 0
        assert t.search(b"alpha") == 1

    def test_duplicate_rejected(self):
        with pytest.raises(ReproError):
            bulk_load([b"x", b"x"])

    def test_prefix_key_rejected(self):
        with pytest.raises(KeyPrefixError):
            bulk_load([b"ab", b"abc"])

    @pytest.mark.parametrize("pos", [0, 1], ids=["first", "second"])
    def test_non_bytes_key_rejected_anywhere(self, pos):
        keys = [b"ab", b"cd"]
        keys[pos] = memoryview(keys[pos])
        with pytest.raises(KeyEncodingError, match="memoryview"):
            bulk_load(keys)

    def test_populate_rejects_non_first_buffer_key(self):
        # as the insert path does; no tree holds a memoryview leaf key
        with pytest.raises(KeyEncodingError, match="memoryview"):
            CuartEngine().populate([(b"ab", 1), (memoryview(b"cd"), 2)])

    def test_large_random_set(self):
        keys = random_keys(5000, 8, seed=151)
        t = bulk_load(keys)
        assert len(t) == 5000
        assert verify_tree(t) == []
        for i in (0, 777, 4999):
            assert t.search(keys[i]) == i

    def test_node_types_adapt(self):
        from repro.art.nodes import Node256

        keys = [bytes([b, 1]) for b in range(200)]
        t = bulk_load(keys)
        assert isinstance(t.root, Node256)

    def test_compressed_prefixes_built(self):
        t = bulk_load([b"commonA", b"commonB"])
        assert t.root.prefix == b"common"

    def test_device_mapping_identical_to_incremental(self):
        from repro.cuart.layout import CuartLayout

        keys = random_keys(800, 8, seed=152)
        stale = bulk_load(keys)
        # an insert of an equal value drops the plan and keeps the tree,
        # so this map sweeps a new plan from the items of the pointer
        # tree that the first read of root builds
        stale.insert(keys[0], 0)
        incr = CuartLayout(make_tree((k, i) for i, k in enumerate(keys)))
        # identical structure -> identical buffers, from the bulk load's
        # plan or from the tree's items
        for bulk in (CuartLayout(bulk_load(keys)), CuartLayout(stale)):
            for code in (1, 2, 3, 4):
                assert bulk.node_count(code) == incr.node_count(code)
                assert (bulk.nodes[code].children
                        == incr.nodes[code].children).all()
            for code in (5, 6, 7):
                assert (bulk.leaves[code].keys == incr.leaves[code].keys).all()
                assert (bulk.leaves[code].values
                        == incr.leaves[code].values).all()


@pytest.fixture
def restore_collector():
    """Hand the collector setting back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.usefixtures("restore_collector")
class TestCollectorPause:
    """The build — the first read of a bulk load's ``root`` — pauses the
    cyclic collector (its tree is acyclic and every object survives) and
    always hands the caller's setting back."""

    def test_build_makes_at_most_two_passes(self):
        keys = random_keys(20_000, 8, seed=153)
        values = list(range(len(keys)))
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.enable()
        gc.callbacks.append(count)
        try:
            bulk_load(keys, values).root
        finally:
            gc.callbacks.remove(count)
        assert len(passes) <= 2, passes

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_caller_setting_survives(self, enabled):
        (gc.enable if enabled else gc.disable)()
        bulk_load(random_keys(500, 8, seed=154)).root
        assert gc.isenabled() == enabled

    def test_failing_build_restores_collector(self, monkeypatch):
        def boom(*args):
            assert not gc.isenabled()  # raised inside the paused section
            raise RuntimeError("build failed")

        monkeypatch.setattr(bulk_mod, "_build_nodes", boom)
        gc.enable()
        tree = bulk_load(random_keys(500, 8, seed=156))
        with pytest.raises(RuntimeError, match="build failed"):
            tree.root
        assert gc.isenabled()


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.binary(min_size=3, max_size=3), st.integers(0, 2**40),
                    max_size=200)
)
def test_bulk_equals_incremental_property(pairs):
    keys = list(pairs)
    incremental = make_tree(pairs.items())
    bulk = bulk_load(keys, [pairs[k] for k in keys])
    assert len(bulk) == len(incremental)
    assert verify_tree(bulk) == []
    assert list(bulk.items()) == list(incremental.items())
