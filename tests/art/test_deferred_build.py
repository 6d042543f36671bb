"""The pointer tree of a bulk load is built on first use.

:func:`repro.art.bulk.bulk_load` validates the keys and builds the plan;
the pointer nodes wait for the first read of ``AdaptiveRadixTree.root``
(:func:`repro.art.bulk.build_pointer_tree`).  An engine session of
device lookups, updates and deletes, membership probes, listing and size
never builds them: ``search`` bisects the plan's sorted keys and the
mirror flush of updates and deletes patches the plan
(:func:`repro.art.bulk.absorb_writes`).  Every reader gets the answers,
items and layout an eager build gives, and every reader of ``root`` the
same tree.
"""

import gc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import bulk as bulk_mod
from repro.art.bulk import absorb_writes, bulk_load, tree_plan
from repro.art.nodes import InnerNode, Leaf
from repro.art.stats import collect_stats
from repro.art.verify import verify_tree
from repro.cuart.layout import CuartLayout
from repro.cuart.serialize import save_layout
from repro.host.engine import CuartEngine
from repro.host.sharding import ShardedEngine, ShardingConfig
from repro.workloads import random_keys

#: random 8-byte keys, a compressed path to an N48 (``\xefshared`` + one
#: byte) and an N256 of 6-byte keys (``\xee`` + every byte + ``tail``).
KEYS = (
    random_keys(600, 8, seed=161)
    + [b"\xefshared" + bytes([i]) for i in range(40)]
    + [b"\xee" + bytes([i]) + b"tail" for i in range(256)]
)
VALUES = list(range(len(KEYS)))
SORTED = sorted(KEYS)


@contextmanager
def counting_builds():
    """Count the pointer-tree builds made inside the block."""
    real = bulk_mod.build_pointer_tree
    with mock.patch.object(bulk_mod, "build_pointer_tree",
                           wraps=real) as build:
        yield build


def eager():
    """A bulk load whose pointer tree is built before any reader runs."""
    tree = bulk_load(KEYS, VALUES)
    tree.root
    return tree


def shape(tree):
    return list(tree.items()), collect_stats(tree.root), verify_tree(tree)


def layout_bytes(layout, path) -> bytes:
    save_layout(layout, path)
    return path.read_bytes()


class TestReadOnlySession:
    """Populate, map, device lookups (direct and submitted), listing and
    size: no host node is built."""

    @staticmethod
    def serve(eng, keys):
        eng.map_to_device()
        assert eng.lookup(keys[:50]).to_list() == list(range(50))
        eng.submit("lookup", keys[50:100])
        eng.drain()
        assert len(eng) == len(keys)

    def test_cuart_engine(self):
        keys = random_keys(2_000, 12, seed=162)
        with counting_builds() as build:
            eng = CuartEngine(batch_size=256)
            eng.populate((k, i) for i, k in enumerate(keys))
            self.serve(eng, keys)
            listed = list(eng.tree.items())
            assert build.call_count == 0
        assert listed == sorted((k, i) for i, k in enumerate(keys))

    def test_every_shard(self):
        keys = random_keys(2_000, 12, seed=163)
        with counting_builds() as build:
            eng = ShardedEngine(sharding=ShardingConfig(n_shards=4),
                                batch_size=64)
            eng.populate((k, i) for i, k in enumerate(keys))
            self.serve(eng, keys)
            listed = eng.items()
            assert build.call_count == 0
        assert all(len(shard) for shard in eng.shards)
        assert listed == sorted((k, i) for i, k in enumerate(keys))

    def test_after_load(self, tmp_path):
        keys = random_keys(2_000, 12, seed=164)
        path = tmp_path / "engine.npz"
        with counting_builds() as build:
            eng = CuartEngine(batch_size=256)
            eng.populate((k, i) for i, k in enumerate(keys))
            eng.map_to_device()
            eng.save(path)
            loaded = CuartEngine.load(path, batch_size=256)
            assert loaded.lookup(keys[:50]).to_list() == list(range(50))
            listed = list(loaded.tree.items())
            assert len(loaded) == len(keys)
            assert build.call_count == 0
        assert listed == sorted((k, i) for i, k in enumerate(keys))


READERS = {
    "search": lambda t: [t.search(k) for k in KEYS[::7]]
    + [t.search(b"\x01absent")],
    "insert": lambda t: t.insert(b"\xefsharedZZ", 7),
    "delete": lambda t: t.delete(KEYS[5]),
    "range_query": lambda t: list(t.range_query(SORTED[100], SORTED[300])),
    "prefix_query": lambda t: list(t.prefix_query(b"\xefshared")),
    "minimum": lambda t: t.minimum(),
    "maximum": lambda t: t.maximum(),
    "collect_stats": lambda t: collect_stats(t.root),
    "verify": verify_tree,
}


#: readers that answer from an unbuilt tree's plan.
PLAN_READERS = {"search"}


@pytest.mark.parametrize("reader", READERS)
def test_reader_gets_the_eager_tree(reader, tmp_path):
    want = eager()
    tree = bulk_load(KEYS, VALUES)
    with counting_builds() as build:
        got = READERS[reader](tree)
        if reader in PLAN_READERS:
            assert list(tree.items()) == list(want.items())
            assert layout_bytes(CuartLayout(tree), tmp_path / "got.npz") \
                == layout_bytes(CuartLayout(want), tmp_path / "want.npz")
        assert build.call_count == (reader not in PLAN_READERS)
    assert got == READERS[reader](want)
    assert shape(tree) == shape(want)  # a later reader of root builds


def test_mirror_flush_gets_the_eager_tree(tmp_path):
    """An engine's update and delete defer their host mirror.  The flush
    on the next read of ``tree`` patches an unbuilt tree's plan without
    building it, and applies the rows to a built tree: both then answer,
    list and re-map alike, and a later reader of ``root`` builds the
    same tree."""
    engines = []
    for build_first in (True, False):
        eng = CuartEngine(batch_size=256)
        eng.populate(zip(KEYS, VALUES))
        if build_first:
            eng.tree.root
        eng.map_to_device()
        with counting_builds() as build:
            eng.update([(KEYS[3], 999), (KEYS[650], 5)])
            eng.delete([KEYS[4]])
            assert eng.tree.search(KEYS[3]) == 999
            assert eng.tree.search(KEYS[4]) is None
            items = list(eng.tree.items())
            eng.map_to_device()
            remapped = layout_bytes(eng.layout,
                                    tmp_path / f"{build_first}.npz")
            assert build.call_count == 0
        engines.append((items, remapped, eng))
    (want_items, want_bytes, want), (got_items, got_bytes, got) = engines
    assert got_items == want_items
    assert len(got_items) == len(KEYS) - 1
    assert got_bytes == want_bytes
    assert shape(got.tree) == shape(want.tree)


def test_stale_plan_remap_reads_the_eager_tree(tmp_path):
    """A mutation drops the plan; the next map sweeps a new plan from
    the items of the pointer tree, which the mutation built first."""
    extra = b"\xefsharedZZ"
    want = eager()
    tree = bulk_load(KEYS, VALUES)
    with counting_builds() as build:
        tree.insert(extra, 7)
        assert build.call_count == 1
    want.insert(extra, 7)
    fresh = bulk_load(KEYS + [extra], VALUES + [7])  # maps from its plan
    remapped = layout_bytes(CuartLayout(tree), tmp_path / "remapped.npz")
    assert remapped == layout_bytes(CuartLayout(want), tmp_path / "want.npz")
    assert remapped == layout_bytes(CuartLayout(fresh), tmp_path / "fresh.npz")


def test_failing_build_leaves_the_tree_unbuilt(monkeypatch):
    """A build that raises restores the collector, keeps the content
    listed from the plan, and is retried by the next read of ``root``."""
    calls = []

    def boom(*args):
        calls.append(gc.isenabled())
        raise RuntimeError("build failed")

    tree = bulk_load(KEYS, VALUES)
    monkeypatch.setattr(bulk_mod, "_build_nodes", boom)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        for attempt in (1, 2):
            with pytest.raises(RuntimeError, match="build failed"):
                tree.root
            assert gc.isenabled()
            assert calls == [False] * attempt  # paused inside, retried
            assert len(tree) == len(KEYS)
            assert list(tree.items()) == list(zip(SORTED, map(
                dict(zip(KEYS, VALUES)).__getitem__, SORTED)))
    finally:
        (gc.enable if was_enabled else gc.disable)()
    monkeypatch.undo()
    assert tree.root is not None
    assert shape(tree) == shape(eager())


def test_assigning_root_discards_the_pending_build():
    tree = bulk_load(KEYS, VALUES)
    with counting_builds() as build:
        tree.root = None
        assert tree.root is None
        assert build.call_count == 0


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.binary(max_size=6).filter(lambda b: b"\x00" not in b)
    .map(lambda b: b + b"\x00"),  # terminated: prefix-free, mixed lengths
    st.integers(0, 2**40), min_size=1, max_size=150,
))
def test_items_from_the_plan_equal_items_after_the_build(pairs):
    tree = bulk_load(list(pairs), list(pairs.values()))
    with counting_builds() as build:
        listed = list(tree.items())
        assert build.call_count == 0
        assert verify_tree(tree) == []
        assert build.call_count == 1
    assert listed == list(tree.items()) == sorted(pairs.items())


def plan_arrays(plan) -> list:
    return [plan.mat, plan.lens, plan.values] + [
        a for lv in plan.levels for a in vars(lv).values()]


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(
    st.binary(min_size=1, max_size=5).filter(lambda b: b"\x00" not in b)
    .map(lambda b: b + b"\x00"),  # terminated: prefix-free, mixed lengths
    st.integers(0, 2**40), min_size=1, max_size=120,
), st.data())
def test_absorbed_writes_equal_the_per_key_mirror(pairs, data):
    """Patching an unbuilt tree's plan with update and delete rows gives
    the content, answers, plan and pointer tree that applying the rows
    key by key to the built tree gives; an update of an absent key is an
    insert, which the plan leaves to the pointer tree."""
    keys = list(pairs)
    rows = data.draw(st.dictionaries(
        st.sampled_from(keys + [b"\xffabsent\x00"]),
        st.none() | st.integers(0, 2**40)))
    if not rows:
        return
    want = bulk_load(keys, list(pairs.values()))
    want.root
    for k, v in rows.items():
        if v is None:
            want.delete(k)
        else:
            want.insert(k, v)
    tree = bulk_load(keys, list(pairs.values()))
    version = tree.version
    with counting_builds() as build:
        absorbed = absorb_writes(tree, rows)
        assert build.call_count == 0
    if not absorbed:  # the absent key was updated
        assert rows.get(b"\xffabsent\x00") is not None
        assert tree.version == version and len(tree) == len(pairs)
        return
    with counting_builds() as build:
        assert list(tree.items()) == list(want.items())
        assert len(tree) == len(want)
        assert [tree.search(k) for k in rows] == [want.search(k)
                                                  for k in rows]
        plan = tree_plan(tree)
        assert plan is tree._bulk_plan and plan.version == tree.version
        assert build.call_count == 0
    swept = tree_plan(want)
    assert len(plan.levels) == len(swept.levels)
    assert all(a.shape == b.shape and (a == b).all()
               for a, b in zip(plan_arrays(plan), plan_arrays(swept)))
    assert shape(tree) == shape(want)


def live_nodes() -> int:
    """Live host-tree nodes (leaves and inner nodes) in the process."""
    return sum(isinstance(o, (Leaf, InnerNode)) for o in gc.get_objects())


class TestSetupGate:
    """A read-only engine session allocates no host node, and neither do
    membership probes nor the mirror flush after an update (which
    defers its host mirror).  The first reader of ``root`` builds the
    whole tree once: 65,536 leaves and 17,688 inner nodes for these
    keys."""

    N_NODES = 83_224

    @pytest.fixture(scope="class")
    def keys(self):
        return random_keys(65_536, 12, seed=1)

    def engine(self, keys):
        eng = CuartEngine()
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        eng.submit("lookup", keys[:8_192])
        eng.drain()
        assert len(eng) == len(keys)
        assert next(iter(eng.tree.items())) == min(
            (k, i) for i, k in enumerate(keys))
        return eng

    def test_read_only_session_allocates_no_host_node(self, keys):
        gc.collect()
        before = live_nodes()
        eng = self.engine(keys)
        assert live_nodes() - before == 0
        assert eng.layout is not None  # the engine is alive while counted

    @pytest.mark.parametrize("first", ["contains", "update"])
    def test_first_reader_builds_the_tree_once(self, keys, first, tmp_path):
        gc.collect()
        before = live_nodes()
        eng = self.engine(keys)
        want = dict(zip(keys, range(len(keys))))
        for i in (1, 2):
            if first == "contains":
                assert eng.contains(keys[i])
            else:
                eng.update([(keys[i], 7)])
                want[keys[i]] = 7
                assert eng.tree.search(keys[i]) == 7  # flushes the mirror
            assert live_nodes() - before == 0
        assert list(eng.tree.items()) == sorted(want.items())
        eng.map_to_device()
        got_bytes = layout_bytes(eng.layout, tmp_path / "got.npz")
        assert live_nodes() - before == 0
        stats = collect_stats(eng.tree.root)  # the first reader of root
        assert live_nodes() - before == self.N_NODES
        assert stats.total_inner_nodes + stats.num_keys == self.N_NODES
        eager_tree = bulk_load(list(want), list(want.values()))
        assert stats == collect_stats(eager_tree.root)
        want_layout = CuartLayout(eager_tree, long_keys=eng.long_keys,
                                  spare=eng.spare)
        assert got_bytes == layout_bytes(want_layout, tmp_path / "want.npz")


class TestWriteSession:
    """Device updates and deletes on every shard, membership probes,
    device lookups, size and listing allocate no host node; the content
    is a dict's, and a re-map equals a fresh bulk load of it."""

    def test_sharded_session_allocates_no_host_node(self, tmp_path):
        keys = random_keys(6_000, 12, seed=165)
        model = {k: i for i, k in enumerate(keys)}
        gc.collect()
        before = live_nodes()
        eng = ShardedEngine(sharding=ShardingConfig(n_shards=4),
                            batch_size=256)
        eng.populate(model.items())
        eng.map_to_device()
        emptied = [k for k in keys if eng.router.shard_of(k) == 0]
        probes = keys[::37] + [b"\x01absent0000"]
        rounds = [
            ([(k, 10_000 + i) for i, k in enumerate(keys[::3])],
             keys[1::50]),
            ([(k, 20_000 + i) for i, k in enumerate(keys[::7])],
             emptied + keys[2::41]),
            ([(k, 30_000 + i) for i, k in enumerate(keys[::5])], keys[4::9]),
        ]
        for updates, deletes in rounds:
            eng.update(updates)
            model.update((k, v) for k, v in updates if k in model)
            eng.delete(deletes)
            for k in deletes:
                model.pop(k, None)
            assert eng.lookup(probes).to_list() == [model.get(k)
                                                    for k in probes]
            assert [eng.contains(k) for k in probes] == [k in model
                                                         for k in probes]
            assert len(eng) == len(model)
            assert eng.items() == sorted(model.items())
        assert len(eng.shards[0]) == 0
        eng.map_to_device()
        assert live_nodes() - before == 0
        for i, shard in enumerate(eng.shards):
            content = list(shard.tree.items())
            fresh = CuartLayout(
                bulk_load([k for k, _ in content], [v for _, v in content]),
                long_keys=shard.long_keys, spare=shard.spare,
            )
            assert layout_bytes(shard.layout, tmp_path / f"{i}.npz") == \
                layout_bytes(fresh, tmp_path / f"fresh{i}.npz")
