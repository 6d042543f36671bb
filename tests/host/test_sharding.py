"""Unit tests for the key-space-sharded serving layer.

Router determinism and balance, config validation, per-shard metric
labeling through :class:`~repro.obs.metrics.ScopedRegistry`, heat-driven
rebalancing and the parallel stream-overlap merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError, SimulationError
from repro.gpusim.streams import StreamOverlapStats
from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine
from repro.host.mixed import BatchPipeline, MixedWorkloadExecutor
from repro.host.sharding import (
    ShardedEngine,
    ShardedMixedExecutor,
    ShardingConfig,
    ShardRouter,
)
from repro.obs.metrics import LATENCY_US_BUCKETS, Histogram, MetricsRegistry
from repro.workloads.distributions import uniform_indices, zipf_indices
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import random_keys

N_KEYS = 4_000


@pytest.fixture(scope="module")
def keys():
    return random_keys(N_KEYS, 12, seed=7)


def _sharded(keys, n_shards, *, mode="hash", partition_bytes=1,
             batch_size=256, **kwargs) -> ShardedEngine:
    eng = ShardedEngine(
        sharding=ShardingConfig(
            n_shards=n_shards, mode=mode, partition_bytes=partition_bytes,
        ),
        batch_size=batch_size, **kwargs,
    )
    eng.populate([(k, i + 1) for i, k in enumerate(keys)])
    eng.map_to_device()
    return eng


class TestRouter:
    def test_config_validation(self):
        with pytest.raises(SimulationError):
            ShardingConfig(n_shards=0)
        with pytest.raises(SimulationError):
            ShardingConfig(mode="modulo")
        with pytest.raises(SimulationError):
            ShardingConfig(partition_bytes=3)

    @pytest.mark.parametrize("mode", ["hash", "range"])
    @pytest.mark.parametrize("partition_bytes", [1, 2])
    def test_assignment_is_exactly_balanced(self, mode, partition_bytes):
        cfg = ShardingConfig(
            n_shards=4, mode=mode, partition_bytes=partition_bytes
        )
        router = ShardRouter(cfg)
        counts = np.bincount(router.assignment, minlength=4)
        assert counts.sum() == cfg.n_partitions
        assert counts.max() - counts.min() <= 1

    def test_range_mode_is_contiguous(self):
        router = ShardRouter(ShardingConfig(n_shards=4, mode="range"))
        # a contiguous assignment never decreases along the key axis
        assert (np.diff(router.assignment) >= 0).all()

    def test_routing_deterministic_and_heat_recorded(self, keys):
        router = ShardRouter(ShardingConfig(n_shards=4))
        a = router.route(keys[:100])
        b = router.route(keys[:100])
        assert np.array_equal(a, b)
        assert router.heat.sum() == 200
        assert all(
            router.shard_of(k) == int(s) for k, s in zip(keys[:100], a)
        )

    def test_balanced_assignment_moves_hot_partitions(self):
        router = ShardRouter(ShardingConfig(n_shards=2, mode="range"))
        # pile heat onto the low half of the key space (all on shard 0)
        router.heat[:64] = 100
        before = router.imbalance()
        new_assignment, moves = router.balanced_assignment()
        assert before == pytest.approx(2.0)
        assert moves, "skewed heat must produce a move plan"
        per_shard = np.bincount(new_assignment, weights=router.heat,
                                minlength=2)
        assert per_shard.max() / per_shard.mean() < before
        # the router's own table is untouched until the engine applies it
        assert router.imbalance() == pytest.approx(before)

    def test_balanced_assignment_noop_when_uniform(self):
        router = ShardRouter(ShardingConfig(n_shards=4))
        router.heat[:] = 5
        _, moves = router.balanced_assignment()
        assert moves == []


class TestShardedEngineOps:
    @pytest.fixture(scope="class")
    def pair(self, keys):
        sharded = _sharded(keys, 4)
        single = CuartEngine(batch_size=256)
        single.populate([(k, i + 1) for i, k in enumerate(keys)])
        single.map_to_device()
        return sharded, single

    def test_lookup_matches_single_engine(self, pair, keys):
        sharded, single = pair
        probe = keys[:300] + [b"missing-key\x00"]
        assert sharded.lookup(probe) == single.lookup(probe)

    def test_update_routes_and_applies(self, pair, keys):
        sharded, single = pair
        items = [(keys[i], 9_000 + i) for i in range(0, 600, 3)]
        res_s = sharded.update(items)
        res_o = single.update(items)
        assert res_s == res_o
        assert res_s.found_array.all()
        probe = [k for k, _ in items]
        assert sharded.lookup(probe) == single.lookup(probe)

    def test_range_merges_across_shards(self, pair, keys):
        sharded, single = pair
        lo, hi = keys[100], keys[900]
        assert sharded.range(lo, hi) == single.range(lo, hi)

    def test_contains_and_len(self, pair, keys):
        sharded, single = pair
        assert len(sharded) == len(single)
        assert sharded.contains(keys[5])
        assert not sharded.contains(b"definitely-missing\x00")

    def test_submit_drain_merges_parallel_windows(self, keys):
        eng = _sharded(keys, 4)
        upd = [(keys[i], 77) for i in uniform_indices(
            len(keys), 2_000, seed=3
        )]
        eng.submit("update", upd)
        stats = eng.drain()
        assert stats.batches > 0
        # four concurrent devices: combined makespan is the slowest
        # shard's, so well under the summed serial cost
        assert stats.makespan_s < stats.serial_s / 2
        assert stats.streams == 4 * eng.config.streams

    def test_drain_leaves_each_shards_window_alone(self, keys,
                                                   monkeypatch):
        """The merged window is a fresh record: whoever holds a shard's
        own drained window (a tracer recording every
        ``CuartEngine.drain``) sees it unchanged."""
        eng = _sharded(keys, 4)
        eng.submit("update", [(k, 9) for k in keys[:2_000]])
        held = []
        drain = eng.shards[0].drain

        def keep():
            window = drain()
            held.append((window, window.as_dict(), window.events))
            return window

        monkeypatch.setattr(eng.shards[0], "drain", keep)
        merged = eng.drain()
        ((window, as_dict, events),) = held
        assert merged is not window
        assert window.as_dict() == as_dict
        assert window.events == events
        assert [len(w) for w in window.windows] == [1]
        assert [len(w) for w in merged.windows] == [4]
        assert merged.batches > window.batches > 0

    def test_single_shard_drain_matches_plain_engine(self, keys):
        sharded = _sharded(keys, 1)
        single = CuartEngine(batch_size=256)
        single.populate([(k, i + 1) for i, k in enumerate(keys)])
        single.map_to_device()
        upd = [(keys[i], 5) for i in range(1_000)]
        sharded.submit("update", upd)
        single.submit("update", upd)
        a, b = sharded.drain(), single.drain()
        assert a.batches == b.batches
        assert a.makespan_s == pytest.approx(b.makespan_s)


class TestShardedObservability:
    def test_metrics_labeled_per_shard(self, keys):
        metrics = MetricsRegistry()
        eng = _sharded(keys, 2, metrics=metrics)
        eng.lookup(keys[:200])
        # the shared engine counter now carries a shard label per series
        fam = metrics.get("engine_queries_total")
        assert fam.label_names == ("op", "shard")
        per_shard = [
            metrics.value("engine_queries_total", op="lookup", shard=str(i))
            for i in range(2)
        ]
        assert all(v and v > 0 for v in per_shard)
        assert sum(per_shard) == 200

    def test_imbalance_gauge_published(self, keys):
        metrics = MetricsRegistry()
        eng = _sharded(keys, 2, metrics=metrics)
        eng.lookup(keys[:500])
        ratio = eng.publish_shard_stats()
        assert metrics.value("shard_imbalance_ratio") == pytest.approx(ratio)
        heat = [
            metrics.value("shard_heat", shard=str(i)) for i in range(2)
        ]
        assert sum(heat) == 500

    def test_rebalance_emits_span_and_counters(self, keys):
        from repro.obs.tracing import Tracer

        metrics = MetricsRegistry()
        tracer = Tracer()
        eng = _sharded(
            keys, 2, mode="range", partition_bytes=2,
            metrics=metrics, tracer=tracer,
        )
        # hammer the low end of the key space: range mode owns it all
        # on shard 0, so the plan must move partitions
        hot = [keys[i] for i in range(200)]
        eng.lookup(hot * 5)
        summary = eng.rebalance()
        assert summary["moved_partitions"] > 0
        assert metrics.value("shard_rebalances_total") == 1
        assert metrics.value("shard_keys_migrated_total") == \
            summary["moved_keys"]
        assert any(
            ev.get("name") == "shard.rebalance" for ev in tracer.events
        )


class TestRebalance:
    def test_rebalance_preserves_content_and_reduces_imbalance(self, keys):
        eng = _sharded(keys, 4, mode="range", partition_bytes=2)
        before = eng.items()
        # zipf traffic over the sorted key list concentrates on the low
        # key range — all owned by shard 0 under range placement
        idx = zipf_indices(len(keys), 8_000, a=1.2, seed=13)
        eng.update([(keys[i], 50_000 + j) for j, i in enumerate(idx)])
        imb = eng.imbalance()
        assert imb > 1.5, "zipf-over-range must be imbalanced"
        summary = eng.rebalance()
        assert summary["moved_keys"] > 0
        assert summary["sim_transfer_s"] > 0
        assert summary["imbalance_after"] < summary["imbalance_before"]
        # migration moved subtrees, never mutated content
        after = dict(eng.items())
        expect = dict(before)
        for j, i in enumerate(idx):
            expect[keys[i]] = 50_000 + j
        assert after == expect
        # serving still works after the re-map, routed by the new table
        assert eng.lookup(keys[:100]) == [
            expect[k] for k in keys[:100]
        ]

    def test_rebalance_noop_under_uniform_traffic(self, keys):
        eng = _sharded(keys, 4)
        eng.lookup([keys[i] for i in uniform_indices(
            len(keys), 4_000, seed=5
        )])
        summary = eng.rebalance(max_moves=64)
        # hash placement already spreads uniform traffic: nothing worth
        # moving, or at most a marginal touch-up
        assert summary["imbalance_after"] <= summary["imbalance_before"]

    def test_heat_resets_after_rebalance(self, keys):
        eng = _sharded(keys, 2, mode="range", partition_bytes=2)
        eng.lookup([keys[i] for i in range(100)] * 3)
        assert eng.router.heat.sum() == 300
        summary = eng.rebalance()
        assert summary["moved_partitions"] > 0
        assert eng.router.heat.sum() == 0


class TestPipelineRebalance:
    """``BatchPipeline.rebalance`` under a long-lived online door."""

    @staticmethod
    def _core(keys, n_shards):
        from repro.serve.core import ServerCore, VirtualClock

        eng = _sharded(keys, n_shards, mode="range", batch_size=64)
        return ServerCore(eng, clock=VirtualClock(), deadline_us=1e9)

    def test_queued_writes_land_before_partitions_move(self):
        keys = [bytes([4 * i]) + b"-%03d" % i for i in range(64)]
        core = self._core(keys, 4)
        hot = keys[:16]  # shard 0's range
        want = {}
        for j in range(30):
            want[hot[j % 16]] = 1_000 + j
            core.offer("update", (hot[j % 16], 1_000 + j))
        assert core.backlog == 30
        assert core.rebalance()["moved_partitions"] > 0
        assert core.backlog == 0
        assert core.engine.lookup(list(want)) == list(want.values())

    def test_a_key_that_moves_back_reads_its_last_write(self):
        k, near, far, far2 = (b"\x01-k", b"\x02-n", b"\xc8-f", b"\xc9-g")
        core = self._core([k, near, far, far2], 2)
        router = core.engine.router

        def move_k(heat):
            router.reset_heat()
            for key, n in heat.items():
                for _ in range(n):
                    router.shard_of(key, record=True)
            return core.rebalance()["moved_partitions"]

        core.offer("update", (k, 111))
        core.flush()
        assert move_k({k: 1, near: 10, far: 2}) == 1  # to shard 1
        core.offer("update", (k, 222))
        core.flush()
        assert move_k({k: 1, far2: 10, near: 2}) == 1  # back to shard 0
        assert router.shard_of(k) == 0
        op = core.offer("lookup", k)
        core.flush()
        assert op.value == 222


class TestStreamOverlapMergeParallel:
    def test_parallel_merge_takes_max_makespan(self):
        a = StreamOverlapStats(batches=4, serial_s=4.0, makespan_s=2.0,
                               streams=2)
        b = StreamOverlapStats(batches=4, serial_s=4.0, makespan_s=3.0,
                               streams=2)
        a.merge_parallel(b)
        assert a.batches == 8
        assert a.serial_s == 8.0
        assert a.makespan_s == 3.0
        assert a.streams == 4

    def test_sequential_merge_adds_makespans(self):
        a = StreamOverlapStats(batches=4, serial_s=4.0, makespan_s=2.0)
        b = StreamOverlapStats(batches=4, serial_s=4.0, makespan_s=3.0)
        a.add_window(b)
        assert a.makespan_s == 5.0


class TestShardedMixedExecutor:
    def test_mixed_stream_with_scans(self, keys):
        eng = _sharded(keys, 4)
        single = CuartEngine(batch_size=256)
        single.populate([(k, i + 1) for i, k in enumerate(keys)])
        single.map_to_device()

        mix = QueryMix(lookups=0.5, updates=0.3, deletes=0.2)
        stream = list(mixed_queries(keys, 3_000, mix, seed=21))
        # splice in scans: global barriers crossing every shard
        stream.insert(1_000, ("scan", (keys[10], keys[600])))
        stream.insert(2_000, ("scan", (keys[100], keys[1_500])))

        res_s, rep_s = ShardedMixedExecutor(eng).run(stream)
        res_o, rep_o = MixedWorkloadExecutor(single).run(list(stream))
        assert res_s == res_o
        assert rep_s.operations == rep_o.operations == len(stream)
        assert rep_s.scans == 2
        assert rep_s.records_scanned == rep_o.records_scanned
        assert (rep_s.hits, rep_s.misses) == (rep_o.hits, rep_o.misses)
        assert rep_s.stream_overlap["batches"] > 0
        assert set(rep_s.latency_percentiles_by_op) == set(rep_s.wall_s)

    def test_report_percentiles_present(self, keys):
        eng = _sharded(keys, 2)
        stream = list(mixed_queries(keys, 1_000, QueryMix(), seed=5))
        _, rep = ShardedMixedExecutor(eng).run(stream)
        assert rep.latency_percentiles_by_op
        for summary in rep.latency_percentiles_by_op.values():
            assert summary["count"] > 0
            assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_merged_percentiles_are_exact(self, keys, monkeypatch):
        """The merged per-op summary is the one a single histogram fed
        every shard's observations gives, not a count-weighted blend
        of the shards' percentiles."""
        fed: dict = {}
        account = BatchPipeline._account

        def spy(pipe, label, n, dt):
            fed.setdefault(label, Histogram(LATENCY_US_BUCKETS)).observe(
                dt / n * 1e6, n)
            account(pipe, label, n, dt)

        monkeypatch.setattr(BatchPipeline, "_account", spy)
        eng = _sharded(keys, 4)
        stream = list(mixed_queries(keys, 2_000, QueryMix(), seed=6))
        _, rep = ShardedMixedExecutor(eng).run(stream)
        assert set(rep.latency_percentiles_by_op) == set(fed)
        for op, summary in rep.latency_percentiles_by_op.items():
            want = fed[op].summary()
            assert summary.pop("mean") == pytest.approx(want.pop("mean"))
            assert summary == want, op

    def test_config_kwargs_conflict_rejected(self):
        with pytest.raises(TypeError):
            ShardedEngine(EngineConfig(), batch_size=64)
