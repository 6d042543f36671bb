"""The log-structured write-absorption layer.

The memtable acks writes host-side in O(1), folds them per key with
last-writer-wins semantics and merge-compacts sealed segments into the
device layout, and the batch pipeline hands its queued lookups to each
install's write launch as stage 0, so a compaction never changes a
queued lookup's answer.  The lockstep classes are fixed scenarios of the
serving-contract machine (:mod:`tests.integration.
test_serving_contract`, memtable ``segment_ops=4, max_debt=1``, so
compactions race mid-stream), which checks every answer against a dict
and the layouts against a serial engine's: byte-identical for
update/delete traffic, canonical once inserts reuse slots.  The barrier
and cache-coherence classes pin one rule each.
"""

from __future__ import annotations

import pytest

from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine
from repro.host.memtable import Memtable, MemtableConfig
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.results import OpStatus
from repro.serve import ServerCore, VirtualClock
from repro.workloads.synthetic import random_keys
from tests.integration.test_serving_contract import (
    MIX,
    POOL,
    drive,
    random_steps,
)

SEEDS = [3, 17, 91]

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
        else:
            getattr(eng, kind)([payload])
    return out


class TestMemtableLockstep:
    @pytest.mark.parametrize("seed,cache_size", CACHED_SEEDS)
    def test_generated_mixed_stream(self, seed, cache_size):
        m = drive(*random_steps(seed, 150, MIX), memtable=True,
                  cache=cache_size)
        rep = m.core.report
        # every write acked host-side; the teardown drained the debt
        assert sum(rep.absorbed.values()) == rep.updates + rep.deletes

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_hot_key_raw_waw(self, seed):
        """RAW and WAW chains on a tiny hot set read the delta while
        the folded device rows trail behind in compaction batches."""
        m = drive(*random_steps(seed, 100, ("update", "lookup", "delete",
                                            "hot_burst"), pool=POOL[:6]),
                  memtable=True)
        mt = m.core.memtable
        assert mt.folded_away > 0
        assert mt.absorbed_write_ratio() > 0.0

    @pytest.mark.parametrize("seed,cache_size", CACHED_SEEDS)
    def test_compaction_races_mid_stream(self, seed, cache_size):
        m = drive(*random_steps(seed + 5, 150, ("lookup", "update",
                                                "update", "delete")),
                  memtable=True, cache=cache_size)
        # > 1: at least one mid-stream install plus the end-of-run drain
        assert m.core.report.compactions > 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delete_reinsert_serves_serial_content(self, seed):
        drive(*random_steps(seed + 7, 100, ("delete", "insert", "update",
                                            "lookup"), pool=POOL[:8]),
              memtable=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicate_key_bursts(self, seed):
        """A run of one op on one key folds to at most one device row."""
        drive(*random_steps(seed + 40, 60, ("delete", "update", "lookup"),
                            burst=4), memtable=True)

    def test_report_tallies_match_oracle(self):
        m = drive(*random_steps(9, 200, MIX), memtable=True)
        rep = m.core.report
        assert sum(rep.ops_by_status.values()) == rep.operations


class TestCompactionBarrier:
    """A compaction's write launch carries the queued lookups as its
    stage 0: each reads the state before the install, as a serial run
    does."""

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
        # … because it rides the compaction's write launch as stage 0
        assert [ev.op for ev in events] == ["write"]
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
    def test_sharded_memtable_matches_single_oracle(self, seed):
        """A memtable per shard: same answers and canonical bytes as a
        serial single engine."""
        m = drive(*random_steps(seed + 3, 150, ("lookup", "update",
                                                "delete", "insert")),
                  memtable=True, devices=4)
        assert sum(m.core.report.absorbed.values()) > 0

    def test_sharded_server_core_makes_no_direct_lookups(self, monkeypatch):
        """Compactions race the queued lookups on a 2-shard server: the
        lookups ride the install's launch as stage 0, so nothing reads
        a key's pre-install value with a direct ``ShardedEngine.lookup``
        outside the scheduled launches; the one direct lookup is the
        teardown's check of the whole key pool."""
        from repro.host.sharding import ShardedEngine

        direct = []
        real = ShardedEngine.lookup

        def counted(self, keys):
            direct.append(list(keys))
            return real(self, keys)

        monkeypatch.setattr(ShardedEngine, "lookup", counted)
        m = drive(*random_steps(5, 300, ("lookup", "lookup", "update",
                                         "update", "delete")),
                  memtable=True, devices=2)
        assert m.core.report.compactions > 1
        assert direct == [POOL]
