"""Critical-path attribution tests: the backtracking walk must charge
stage intervals that partition [0, makespan] exactly, for kernel-bound,
transfer-bound, serial and sharded timelines, and for every window both
serving doors record."""

import pytest

from repro.gpusim.streams import StreamOverlapStats, StreamScheduler
from repro.host.engine import CuartEngine
from repro.host.memtable import MemtableConfig
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.sharding import ShardedEngine, ShardingConfig
from repro.obs.critical_path import (
    attribute_stats,
    attribute_window,
    stage_breakdown,
)
from repro.serve import ServerCore, VirtualClock
from repro.workloads import QueryMix, mixed_queries, random_keys


def _run(n, *, streams=2, h2d=1.0, kernel=3.0, d2h=0.5, op="lookup"):
    sched = StreamScheduler(streams)
    for _ in range(n):
        sched.submit(op, h2d_s=h2d, kernel_s=kernel, d2h_s=d2h)
    return sched.drain()


def _reconciles(attr, makespan):
    assert attr.total_stage_s == pytest.approx(makespan, rel=1e-9), (
        f"stages {attr.stage_s} sum to {attr.total_stage_s}, "
        f"makespan {makespan}"
    )


class TestAttributeWindow:
    def test_empty_window(self):
        attr = attribute_window([], 2)
        assert attr.makespan_s == 0.0
        assert attr.stage_s == {} and attr.bottleneck == "idle"

    def test_kernel_bound_window(self):
        """kernel > h2d: after the first staging the compute engine
        never goes idle, so the path is h2d + n*kernel + d2h."""
        stats = _run(5, h2d=1.0, kernel=3.0, d2h=0.5)
        attr = attribute_window(stats.events, 2)
        _reconciles(attr, stats.makespan_s)
        assert attr.bottleneck == "kernel"
        assert attr.stage_s["kernel"] == pytest.approx(15.0)
        assert attr.stage_s["h2d"] == pytest.approx(1.0)
        assert attr.stage_s["d2h"] == pytest.approx(0.5)

    def test_transfer_bound_window(self):
        """h2d > kernel: the copy engine bounds progress, so the path
        is n*h2d + the final kernel + final d2h."""
        stats = _run(5, h2d=3.0, kernel=1.0, d2h=0.0)
        attr = attribute_window(stats.events, 2)
        _reconciles(attr, stats.makespan_s)
        assert attr.bottleneck == "h2d"
        assert attr.stage_s["h2d"] == pytest.approx(15.0)
        assert attr.stage_s["kernel"] == pytest.approx(1.0)

    def test_single_stream_serial_chain(self):
        """n_streams=1 degenerates to the full serial sum: every stage
        of every batch is on the critical path."""
        stats = _run(4, streams=1, h2d=1.0, kernel=3.0, d2h=0.5)
        attr = attribute_window(stats.events, 1)
        _reconciles(attr, stats.makespan_s)
        assert attr.stage_s["h2d"] == pytest.approx(4 * 1.0)
        assert attr.stage_s["kernel"] == pytest.approx(4 * 3.0)
        assert attr.stage_s["d2h"] == pytest.approx(4 * 0.5)

    def test_buffer_reuse_charges_older_d2h(self):
        """Big d2h + few buffers: staging of batch i waits on batch
        i - n_streams' return DMA, so d2h lands on the critical path
        beyond just the final event's tail."""
        stats = _run(6, streams=2, h2d=0.1, kernel=0.2, d2h=5.0)
        attr = attribute_window(stats.events, 2)
        _reconciles(attr, stats.makespan_s)
        assert attr.bottleneck == "d2h"
        assert attr.stage_s["d2h"] > 5.0  # more than one event's DMA

    def test_by_op_partitions_stage_totals(self):
        sched = StreamScheduler(2)
        for i in range(6):
            sched.submit("lookup" if i % 2 else "update",
                         h2d_s=1.0, kernel_s=2.0, d2h_s=0.1)
        stats = sched.drain()
        attr = attribute_window(stats.events, 2)
        _reconciles(attr, stats.makespan_s)
        for stage, total in attr.stage_s.items():
            by_op = sum(
                st.get(stage, 0.0) for st in attr.by_op.values()
            )
            assert by_op == pytest.approx(total)

    def test_random_timelines_always_reconcile(self):
        """Property: any timeline's stage intervals partition the
        makespan — over random stage times and stream counts."""
        import random

        rng = random.Random(42)
        for _ in range(50):
            streams = rng.choice([1, 2, 3, 8])
            sched = StreamScheduler(streams)
            for _ in range(rng.randint(1, 20)):
                sched.submit(
                    rng.choice(["lookup", "update", "delete"]),
                    h2d_s=rng.uniform(0.01, 5.0),
                    kernel_s=rng.uniform(0.01, 5.0),
                    d2h_s=rng.uniform(0.0, 5.0),
                )
            stats = sched.drain()
            attr = attribute_window(stats.events, streams)
            _reconciles(attr, stats.makespan_s)


class TestAttributeStats:
    def test_sequential_windows_sum(self):
        sched = StreamScheduler(2)
        for _ in range(3):
            sched.submit("lookup", h2d_s=1.0, kernel_s=3.0, d2h_s=0.5)
        a = sched.drain()
        for _ in range(2):
            sched.submit("update", h2d_s=1.0, kernel_s=3.0, d2h_s=0.5)
        a.add_window(sched.drain())
        rep = attribute_stats(a)
        assert len(rep.windows) == 2
        assert rep.total_stage_s == pytest.approx(a.makespan_s, rel=1e-9)
        assert rep.bottleneck == "kernel"
        # the op split survives the fold
        assert "lookup" in rep.by_op and "update" in rep.by_op

    def test_empty_stats(self):
        rep = attribute_stats(StreamOverlapStats())
        assert rep.bottleneck == "idle"
        assert rep.stage_s == {} and rep.windows == []

    def test_sharded_skew_attribution(self):
        """Parallel fold: the slowest shard's chain is the critical
        path; faster shards contribute their idle gap as shard-skew."""
        fast = _run(2, kernel=1.0)
        slow = _run(6, kernel=2.0)
        slow_span = slow.makespan_s
        merged = fast
        merged.merge_parallel(slow)
        rep = attribute_stats(merged)
        assert rep.makespan_s == pytest.approx(slow_span)
        # the slowest shard's stages reconcile with the merged makespan
        assert rep.total_stage_s == pytest.approx(slow_span, rel=1e-9)
        assert rep.shard_skew_s == pytest.approx(
            slow_span - _run(2, kernel=1.0).makespan_s
        )
        assert rep.stage_s["shard-skew"] == pytest.approx(rep.shard_skew_s)
        assert len(rep.shards) == 2
        skews = {s["shard"]: s["skew_s"] for s in rep.shards}
        assert skews[1] == 0.0 and skews[0] > 0.0

    def test_sharded_windows_sum(self):
        """Two barrier-separated windows of two devices each: every
        window is attributed on its own devices (slowest chain plus
        skew), and the windows sum."""
        stats = StreamOverlapStats(streams=4)
        for fast_kernel, slow_kernel in ((1.0, 2.0), (3.0, 0.5)):
            window = _run(2, kernel=fast_kernel)
            window.merge_parallel(_run(5, kernel=slow_kernel))
            stats.add_window(window)
        rep = attribute_stats(stats)
        assert [w.batches for w in rep.windows] == [7, 7]
        spans = [max(d.makespan_s for d in w) for w in stats.windows]
        assert [w.makespan_s for w in rep.windows] == spans
        assert rep.total_stage_s == pytest.approx(sum(spans), rel=1e-9)
        assert stats.makespan_s == pytest.approx(sum(spans))
        skews = [sum(span - d.makespan_s for d in w)
                 for span, w in zip(spans, stats.windows)]
        assert rep.shard_skew_s == pytest.approx(sum(skews))
        assert [w.stage_s["shard-skew"] for w in rep.windows] == \
            pytest.approx(skews)
        assert [row["shard"] for row in rep.shards] == [0, 1, 0, 1]

    def test_balanced_shards_no_skew(self):
        a, b = _run(4), _run(4)
        a.merge_parallel(b)
        rep = attribute_stats(a)
        assert rep.shard_skew_s == pytest.approx(0.0)
        assert "shard-skew" not in rep.stage_s

    def test_as_dict_json_shape(self):
        import json

        a, b = _run(2), _run(3)
        a.merge_parallel(b)
        doc = attribute_stats(a).as_dict()
        json.dumps(doc)
        assert {"makespan_s", "bottleneck", "stage_s", "by_op",
                "windows", "shards", "shard_skew_s"} <= set(doc)


class TestStageBreakdown:
    def test_per_op_rows(self):
        sched = StreamScheduler(2)
        for i in range(4):
            sched.submit("lookup" if i % 2 else "update",
                         h2d_s=1.0, kernel_s=2.0, d2h_s=0.5)
        table = stage_breakdown(sched.drain())
        assert set(table) == {"lookup", "update"}
        for row in table.values():
            assert row["batches"] == 2
            assert row["h2d_s"] == pytest.approx(2.0)
            assert row["kernel_s"] == pytest.approx(4.0)

    def test_flight_summary_columns(self):
        stats = _run(3)
        table = stage_breakdown(stats, flight_summary={
            "by_op": {"lookup": {
                "queue_wait_us_sum": 12.5, "queue_wait_us_max": 7.0,
                "count": 40, "forwarded": 3,
            }},
        })
        row = table["lookup"]
        assert row["queue_wait_us_sum"] == 12.5
        assert row["sampled_ops"] == 40 and row["forwarded"] == 3

    def test_sharded_breakdown_covers_all_parts(self):
        a, b = _run(2), _run(3)
        a.merge_parallel(b)
        table = stage_breakdown(a)
        assert table["lookup"]["batches"] == 5


DOOR_KEYS = random_keys(2000, 8, seed=3)
DOOR_STREAM = mixed_queries(
    DOOR_KEYS, 4000, QueryMix(lookups=0.70, updates=0.25, deletes=0.05),
    seed=11)


class TestDoorsReconcile:
    """Both doors, one device or 4 shards, memtable off or on, with and
    without a scan barrier: the overlap record holds one event per
    device launch, every window's critical path (shard-skew excluded)
    sums to its makespan, and the server's device timelines, released
    at a clock held at 0, end at the record's makespan.  The 4-shard
    executor with a scan is the case whose later windows' device
    timelines a fold once dropped."""

    @pytest.mark.parametrize("scan", [False, True], ids=["no-scan", "scan"])
    @pytest.mark.parametrize("memtable", [None, MemtableConfig(
        segment_ops=64, max_debt=1)], ids=["memtable-off", "memtable-on"])
    @pytest.mark.parametrize("shards", [1, 4], ids=["1-device", "4-shard"])
    @pytest.mark.parametrize("door", ["executor", "server"])
    def test_every_window_reconciles(self, door, shards, memtable, scan):
        if shards == 1:
            eng = CuartEngine(batch_size=64)
        else:
            eng = ShardedEngine(sharding=ShardingConfig(n_shards=shards),
                                batch_size=64)
        eng.populate((k, i) for i, k in enumerate(DOOR_KEYS))
        eng.map_to_device()
        stream = list(DOOR_STREAM)
        if scan:
            stream.insert(2000, ("scan", (DOOR_KEYS[10], DOOR_KEYS[600])))
        if door == "executor":
            ex = MixedWorkloadExecutor(eng, memtable=memtable)
            ex.run(stream)
            stats = ex.last_overlap_stats
        else:
            core = ServerCore(eng, max_batch=64, queue_depth=len(stream),
                              clock=VirtualClock(), memtable=memtable)
            core.run(stream)
            stats = core.overlap
        assert stats.batches == len(stats.events) > 0
        assert len(stats.windows) == (2 if scan else 1)
        assert {len(w) for w in stats.windows} == {shards}
        rep = attribute_stats(stats)
        assert len(rep.windows) == len(stats.windows)
        for window, attr in zip(stats.windows, rep.windows):
            span = max(dev.makespan_s for dev in window)
            assert attr.makespan_s == span
            assert attr.batches == sum(len(dev.events) for dev in window)
            stages = sum(v for k, v in attr.stage_s.items()
                         if k != "shard-skew")
            assert stages == pytest.approx(span, rel=1e-9)
        assert rep.total_stage_s == pytest.approx(stats.makespan_s,
                                                  rel=1e-9)
        if door == "server" and not scan:
            assert core.device_free_us == pytest.approx(
                stats.makespan_s * 1e6, rel=1e-9)
