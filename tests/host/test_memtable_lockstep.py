"""Lockstep oracle tests for the log-structured write-absorption layer.

The memtable acks writes host-side in O(1), folds them per key with
last-writer-wins semantics, and merge-compacts sealed segments into the
device layout in the background — and the batch pipeline launches its
queued lookups before each install, so a compaction never changes a
queued lookup's answer.  These tests pin the whole stack — absorb,
seal, fold, classify, scatter, the lookup barrier — against the
one-op-at-a-time scalar oracle:

* update/delete traffic must leave **byte-identical serialized device
  layouts** (updates scatter in place, deletes clear leaves without
  restructuring, and class batches dispatch in absorb order so
  free-list push order matches the serial history);
* insert / delete-then-reinsert traffic may legitimately reuse leaf
  slots in a different order, so it is compared through a canonical
  re-serialization of the surviving content;
* a lookup queued before a compaction reads the pre-install state, on
  both doors, even when a debt-triggered compaction races mid-batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuart.serialize import save_layout
from repro.host.cache import HotKeyCache
from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine
from repro.host.memtable import Memtable, MemtableConfig
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.results import OpStatus
from repro.host.sharding import (
    ShardedEngine,
    ShardedMixedExecutor,
    ShardingConfig,
)
from repro.serve import ServerCore, VirtualClock
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import random_keys
from tests.cuart.test_write_path_lockstep import _assert_layouts_equal

SEEDS = [3, 17, 91]

#: tiny segments + minimal debt budget: compactions race mid-stream
#: instead of only firing at the end-of-run drain.
RACY = MemtableConfig(segment_ops=8, max_debt=1)

#: each seed with the hot-key cache off, then on: the cache mirrors
#: installed state, so it must not change a single answer.
CACHED_SEEDS = (
    [pytest.param(s, 0, id=str(s)) for s in SEEDS]
    + [pytest.param(s, 64, id=f"cache64-{s}") for s in SEEDS]
)


def _engine(keys, *, batch_size=16, cache_size=0) -> CuartEngine:
    eng = CuartEngine(EngineConfig(
        batch_size=batch_size, cache_size=cache_size,
    ))
    eng.populate([(k, i + 1) for i, k in enumerate(keys)])
    eng.map_to_device()
    return eng


def _scalar_oracle(eng: CuartEngine, stream) -> list:
    out = []
    for kind, payload in stream:
        if kind == "lookup":
            out.append(eng.lookup([payload])[0])
        elif kind == "update":
            eng.update([payload])
        elif kind == "delete":
            eng.delete([payload])
        elif kind == "insert":
            eng.insert([payload])
        else:  # pragma: no cover - streams below never emit scans
            raise AssertionError(kind)
    return out


def _canonical_engine(eng) -> CuartEngine:
    canon = CuartEngine(batch_size=64)
    items = eng.items() if hasattr(eng, "items") else eng.tree.items()
    canon.populate(sorted(items))
    canon.map_to_device()
    return canon


def _assert_lockstep(keys, stream, *, config=RACY, tmp_path=None,
                     cache_size=0):
    """Memtable-path run vs scalar oracle: identical per-op results and
    byte-identical serialized layouts (only valid for streams without
    inserts — slot reuse is order-free for update/delete traffic)."""
    absorbed = _engine(keys, cache_size=cache_size)
    scalar = _engine(keys)
    ex = MixedWorkloadExecutor(absorbed, memtable=config)
    results, report = ex.run(stream)
    oracle = _scalar_oracle(scalar, stream)

    assert results == oracle, "per-op lookup results diverged from serial"
    _assert_layouts_equal(absorbed.layout, scalar.layout)
    if tmp_path is not None:
        a, b = tmp_path / "absorbed.npz", tmp_path / "scalar.npz"
        save_layout(absorbed.layout, a)
        save_layout(scalar.layout, b)
        assert a.read_bytes() == b.read_bytes(), (
            "serialized layouts are not byte-identical"
        )
    return ex, report


class TestMemtableLockstep:
    @pytest.mark.parametrize("seed,cache_size", CACHED_SEEDS)
    def test_generated_mixed_stream(self, seed, cache_size, tmp_path):
        keys = random_keys(256, 12, seed=seed)
        mix = QueryMix(lookups=0.5, updates=0.35, deletes=0.15)
        stream = mixed_queries(keys, 600, mix, seed=seed + 1)
        ex, report = _assert_lockstep(keys, stream, tmp_path=tmp_path,
                                      cache_size=cache_size)
        assert report.operations == 600
        # every write acked host-side; debt fully drained at end of run
        assert sum(report.absorbed.values()) == (
            report.updates + report.deletes + report.inserts
        )
        assert ex.memtable.debt == 0
        assert ex.memtable.pending_ops() == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_hot_key_raw_waw(self, seed, tmp_path):
        """RAW / WAW chains concentrated on a tiny hot set: reads must
        come from the delta (read-your-writes) while the folded device
        rows trail behind in compaction batches."""
        rng = np.random.default_rng(seed)
        keys = random_keys(64, 12, seed=seed)
        hot = keys[:6]
        stream = []
        for i in range(500):
            k = hot[int(rng.integers(len(hot)))]
            r = int(rng.integers(5))
            if r == 0:
                stream.append(("update", (k, 10_000 + i)))  # WAW chains
            elif r == 1:
                stream.append(("update", (k, 20_000 + i)))
                stream.append(("lookup", k))  # immediate RAW
            elif r == 2:
                stream.append(("delete", k))
                stream.append(("lookup", k))  # read-after-delete
            else:
                stream.append(("lookup", k))
        ex, report = _assert_lockstep(keys, stream, tmp_path=tmp_path)
        # hot-key LWW folding must actually shrink the device batches
        assert ex.memtable.folded_away > 0
        assert ex.memtable.absorbed_write_ratio() > 0.0

    @pytest.mark.parametrize("seed,cache_size", CACHED_SEEDS)
    def test_compaction_races_mid_stream(self, seed, cache_size, tmp_path):
        """Debt-triggered compactions must fire *during* the stream (not
        just at the final drain) and still stay lockstep with serial."""
        mix = QueryMix(lookups=0.3, updates=0.5, deletes=0.2)
        keys = random_keys(128, 12, seed=seed)
        stream = mixed_queries(keys, 800, mix, seed=seed + 5)
        ex, report = _assert_lockstep(keys, stream, tmp_path=tmp_path,
                                      cache_size=cache_size)
        # > 1: at least one mid-stream install plus the end-of-run drain
        assert report.compactions > 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delete_reinsert_serves_serial_content(self, seed, tmp_path):
        """Delete → insert → read chains: slot reuse order may differ,
        so compare per-op results plus canonical re-serialization."""
        rng = np.random.default_rng(seed + 7)
        keys = random_keys(64, 12, seed=seed)
        hot = keys[:8]
        stream = []
        for i in range(300):
            k = hot[int(rng.integers(len(hot)))]
            r = int(rng.integers(4))
            if r == 0:
                stream.append(("delete", k))
            elif r == 1:
                stream.append(("insert", (k, 30_000 + i)))
                stream.append(("lookup", k))
            elif r == 2:
                stream.append(("update", (k, 40_000 + i)))
            else:
                stream.append(("lookup", k))
        absorbed = _engine(keys)
        scalar = _engine(keys)
        results, _ = MixedWorkloadExecutor(
            absorbed, memtable=RACY
        ).run(stream)
        oracle = _scalar_oracle(scalar, stream)
        assert results == oracle
        ca, cb = _canonical_engine(absorbed), _canonical_engine(scalar)
        _assert_layouts_equal(ca.layout, cb.layout)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        save_layout(ca.layout, pa)
        save_layout(cb.layout, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicate_key_bursts(self, seed, tmp_path):
        """Bursts of identical ops on one key: duplicate deletes report
        exactly one hit, duplicate updates are last-writer-wins, and the
        memtable folds each burst to at most one device row."""
        rng = np.random.default_rng(seed + 40)
        keys = random_keys(48, 12, seed=seed)
        stream = []
        for i in range(120):
            k = keys[int(rng.integers(len(keys)))]
            burst = int(rng.integers(2, 5))
            r = int(rng.integers(3))
            if r == 0:
                stream.extend([("delete", k)] * burst)
            elif r == 1:
                stream.extend(
                    ("update", (k, 1_000 * i + j)) for j in range(burst)
                )
            else:
                stream.extend([("lookup", k)] * burst)
            stream.append(("lookup", keys[int(rng.integers(len(keys)))]))
        _assert_lockstep(keys, stream, tmp_path=tmp_path)

    def test_report_tallies_match_oracle(self):
        """Absorb-time hit/miss resolution agrees with a serial replay,
        and absorbed + forwarded + statuses account for every op."""
        keys = random_keys(128, 12, seed=9)
        mix = QueryMix(lookups=0.6, updates=0.25, deletes=0.15)
        stream = mixed_queries(keys, 400, mix, seed=10)
        eng = _engine(keys)
        _, report = MixedWorkloadExecutor(eng, memtable=RACY).run(stream)

        state = {k: i + 1 for i, k in enumerate(keys)}
        hits = misses = upd_miss = del_miss = 0
        for kind, payload in stream:
            if kind == "lookup":
                if payload in state:
                    hits += 1
                else:
                    misses += 1
            elif kind == "update":
                if payload[0] in state:
                    state[payload[0]] = payload[1]
                else:
                    upd_miss += 1
            elif kind == "delete":
                if payload in state:
                    del state[payload]
                else:
                    del_miss += 1
        assert (report.hits, report.misses) == (hits, misses)
        assert report.update_misses == upd_miss
        assert report.delete_misses == del_miss
        assert sum(report.ops_by_status.values()) == report.operations


class TestCompactionBarrier:
    """A compaction launches the queued lookups first: each reads the
    state before the install, by launch order, as a serial run does."""

    @pytest.mark.parametrize("door", ["executor", "server-core"])
    def test_queued_lookup_launches_before_the_install(self, door):
        keys = random_keys(32, 12, seed=21)
        k = keys[5]
        # one-op segments and a debt budget of 1: the second write seals
        # a second segment, and the compaction that fires installs both
        config = MemtableConfig(segment_ops=1, max_debt=1)
        stream = [("lookup", k), ("update", (k, 701)), ("update", (k, 702))]
        eng = _engine(keys)
        if door == "executor":
            dispatch = MixedWorkloadExecutor(eng, memtable=config)
            results, report = dispatch.run(stream)
            events = dispatch.last_overlap_stats.events
        else:
            dispatch = ServerCore(eng, clock=VirtualClock(), memtable=config)
            lookup = dispatch.offer(*stream[0])
            dispatch.offer(*stream[1])
            assert not lookup.done  # queued: no compaction due yet
            dispatch.offer(*stream[2])
            assert dispatch.report.compactions == 1
            assert lookup.done and lookup.status == int(OpStatus.OK)
            dispatch.flush()
            results, report = [lookup.value], dispatch.report_snapshot()
            events = dispatch.overlap.events
        # the lookup reads the value from before the writes …
        assert results == _scalar_oracle(_engine(keys), stream) == [6]
        assert eng.lookup([k]) == [702]
        # … because its launch precedes the compaction's write launch
        assert [ev.op for ev in events] == ["lookup", "write"]
        assert report.compactions == 1
        assert report.batches_by_op == {"lookup": 1, "compact-write": 1}
        assert report.flush_reasons["drain"] == 1
        assert sum(report.flush_reasons.values()) == 1


class TestCacheCoherence:
    """The hot-key cache mirrors *installed* state: an absorbed write
    reaches it when compaction installs the write (the engine's write
    path refreshes resident keys), and until then the pipeline answers
    the key from the delta."""

    def test_direct_reads_see_installed_state_until_compaction(self):
        """Cached and uncached keys alike: a direct engine read returns
        the installed value while the write sits in the memtable, and
        the new one once compaction installs it."""
        keys = random_keys(32, 12, seed=12)
        eng = _engine(keys, cache_size=16)
        cached, cold = keys[0], keys[9]
        assert eng.lookup([cached]) == [1]  # now LRU-resident
        mt = Memtable(eng, MemtableConfig(segment_ops=64, max_debt=4))
        assert mt.absorb_update(cached, 111) is True
        assert mt.absorb_update(cold, 222) is True
        assert mt.absorb_delete(keys[1]) is True
        assert mt.debt == 0 and mt.compactions == 0
        assert eng.lookup([cached, cold, keys[1]]) == [1, 10, 2]
        assert mt.compact(force=True) is not None
        assert eng.lookup([cached, cold, keys[1]]) == [111, 222, None]

    @pytest.mark.parametrize("door", ["executor", "server-core"])
    def test_door_reads_give_the_serial_answer(self, door):
        """A lookup queued before an absorbed write of its key reads
        the state before the write, the lookup after it reads the
        write, with the key resident in the cache."""
        keys = random_keys(32, 12, seed=13)
        k = keys[3]
        eng = _engine(keys, cache_size=16)
        assert eng.lookup([k]) == [4]  # now LRU-resident
        stream = [("lookup", k), ("update", (k, 999)), ("lookup", k)]
        if door == "executor":
            dispatch = MixedWorkloadExecutor(eng, memtable=MemtableConfig())
        else:
            dispatch = ServerCore(eng, clock=VirtualClock(),
                                  memtable=MemtableConfig())
        results, _ = dispatch.run(stream)
        assert results == _scalar_oracle(_engine(keys), stream) == [4, 999]
        assert eng.lookup([k]) == [999]  # installed at the end-of-run drain

    def test_cold_keys_never_pollute_the_lru(self):
        """update_if_cached semantics carry over: absorbing a write to a
        key that is not resident must not insert it."""
        keys = random_keys(32, 12, seed=14)
        eng = _engine(keys, cache_size=16)
        mt = Memtable(eng, MemtableConfig())
        cold = keys[5]
        mt.absorb_update(cold, 99)
        assert cold not in eng.cache._data


class TestShardedMemtable:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_sharded_memtable_matches_single_oracle(self, seed, tmp_path):
        """Per-shard memtables: same per-op results and canonical bytes
        as a single-engine serial oracle."""
        keys = random_keys(192, 12, seed=seed)
        items = [(k, i + 1) for i, k in enumerate(keys)]
        sharded = ShardedEngine(
            sharding=ShardingConfig(n_shards=4), batch_size=16
        )
        sharded.populate(items)
        sharded.map_to_device()
        single = _engine(keys)
        rng = np.random.default_rng(seed + 3)
        stream = []
        for i in range(500):
            k = keys[int(rng.integers(len(keys)))]
            r = float(rng.random())
            if r < 0.4:
                stream.append(("lookup", k))
            elif r < 0.75:
                stream.append(("update", (k, 50_000 + i)))
            elif r < 0.9:
                stream.append(("delete", k))
            else:
                stream.append(("insert", (k, 60_000 + i)))
        got, rep = ShardedMixedExecutor(sharded, memtable=RACY).run(stream)
        want = _scalar_oracle(single, stream)
        assert got == want
        ca, cb = _canonical_engine(sharded), _canonical_engine(single)
        _assert_layouts_equal(ca.layout, cb.layout)
        pa, pb = tmp_path / "sharded.npz", tmp_path / "single.npz"
        save_layout(ca.layout, pa)
        save_layout(cb.layout, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert sum(rep.absorbed.values()) > 0

    def test_sharded_server_core_makes_no_direct_lookups(self, monkeypatch):
        """Compactions race the queued lookups on a 2-shard server: the
        lookups launch first, so no direct ``ShardedEngine.lookup``
        outside the scheduled launches reads a key's pre-install value,
        and the answers are a single engine's serial ones."""
        keys = random_keys(512, 8, seed=4)
        items = [(k, i + 1) for i, k in enumerate(keys)]
        sharded = ShardedEngine(
            sharding=ShardingConfig(n_shards=2), batch_size=64
        )
        sharded.populate(items)
        sharded.map_to_device()
        direct = []
        real_lookup = sharded.lookup

        def counted_lookup(ks):
            direct.append(ks)
            return real_lookup(ks)

        monkeypatch.setattr(sharded, "lookup", counted_lookup)
        stream = mixed_queries(
            keys, 4000, QueryMix(lookups=0.5, updates=0.4, deletes=0.1),
            seed=5,
        )
        core = ServerCore(
            sharded, clock=VirtualClock(),
            memtable=MemtableConfig(segment_ops=64, max_debt=1),
        )
        got, rep = core.run(stream)
        assert rep.compactions > 1  # mid-stream installs, not just the end
        assert direct == []
        assert got == _scalar_oracle(_engine(keys, batch_size=64), stream)
