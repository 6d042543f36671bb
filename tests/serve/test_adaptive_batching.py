"""Deterministic batch-close behaviour on a simulated clock.

Every scenario drives :class:`~repro.serve.core.ServerCore` with a
:class:`~repro.serve.core.VirtualClock` — time moves only when a test
advances it, so deadline-vs-size races, partial-batch timer flushes,
shed ordering and tenant fairness are exact, with zero wall-clock
sleeps anywhere.
"""

import pytest

from repro.errors import ReproError
from repro.host.engine import CuartEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.results import OpStatus
from repro.host.sharding import ShardedEngine, ShardingConfig
from repro.serve import ServerConfig, ServerCore, VirtualClock
from repro.workloads import QueryMix, mixed_queries, random_keys

KEYS = random_keys(256, 8, seed=21)


def build_engine(**kwargs):
    eng = CuartEngine(batch_size=128, **kwargs)
    eng.populate((k, i) for i, k in enumerate(KEYS))
    eng.map_to_device()
    return eng


def make_core(**kwargs):
    clock = VirtualClock()
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("deadline_us", 100.0)
    core = ServerCore(build_engine(), clock=clock, **kwargs)
    return core, clock


class TestDeadlinePartialBatch:
    def test_partial_batch_flushes_only_at_deadline(self):
        core, clock = make_core()
        got = []
        for k in KEYS[:3]:  # 3 < batch_close of 8
            core.offer("lookup", k, on_done=lambda op: got.append(op.value))
        assert got == []  # nothing closed: under size, before deadline
        assert core.backlog == 3

        clock.advance(99.0)
        assert core.poll() == 0  # one µs early: still waiting
        assert got == []

        clock.advance(1.0)
        assert core.poll() == 3  # exactly at the deadline
        assert got == [0, 1, 2]
        assert core.backlog == 0
        assert core.report_snapshot().flush_reasons["deadline"] == 1

    def test_deadline_is_measured_from_oldest_op(self):
        core, clock = make_core()
        core.offer("lookup", KEYS[0])
        clock.advance(60.0)
        core.offer("lookup", KEYS[1])  # younger op must not reset the timer
        assert core.next_deadline_us() == pytest.approx(100.0)
        clock.advance(40.0)
        assert core.poll() == 2

    def test_deadline_flush_respects_write_ordering(self):
        # a queued update and a younger same-key lookup: the timer fires
        # on the lookup's class but its write ancestor must flush first
        core, clock = make_core(max_batch=8)
        order = []
        core.offer("update", (KEYS[0], 777),
                   on_done=lambda op: order.append("update"))
        core.offer("lookup", KEYS[1],
                   on_done=lambda op: order.append("lookup"))
        clock.advance(100.0)
        core.poll()
        assert order == ["update", "lookup"]


class TestSizeBeforeDeadline:
    def test_full_batch_closes_without_any_clock_advance(self):
        core, clock = make_core(max_batch=8)
        got = []
        for k in KEYS[:8]:
            core.offer("lookup", k, on_done=lambda op: got.append(op.value))
        assert got == list(range(8))  # closed on size, clock never moved
        assert core.backlog == 0
        assert core.report_snapshot().flush_reasons["size-full"] == 1

    def test_overflow_stays_queued_for_the_next_window(self):
        core, clock = make_core(max_batch=8)
        for k in KEYS[:11]:
            core.offer("lookup", k)
        assert core.backlog == 3  # 8 flushed on size, 3 await a close
        assert core.next_deadline_us() == pytest.approx(100.0)
        clock.advance(100.0)
        assert core.poll() == 3

    def test_retuned_batch_close_takes_effect_immediately(self):
        core, clock = make_core(max_batch=8)
        core.set_batch_close(4)
        got = []
        for k in KEYS[:4]:
            core.offer("lookup", k, on_done=lambda op: got.append(op.value))
        assert len(got) == 4  # the smaller close applied to live queues


class TestEmptyQueueTimerRace:
    def test_poll_on_empty_queue_is_a_noop(self):
        core, clock = make_core()
        assert core.next_deadline_us() is None
        assert core.poll() == 0
        clock.advance(10_000.0)
        assert core.poll() == 0  # stale timer firing late: harmless

    def test_op_arriving_after_stale_deadline_gets_fresh_window(self):
        # the race: a timer armed for an op that a size-close already
        # served fires late, after a new op arrived — the new op must
        # keep its own full deadline, not inherit the stale one
        core, clock = make_core(max_batch=2)
        core.offer("lookup", KEYS[0])
        core.offer("lookup", KEYS[1])  # size close; queue now empty
        assert core.backlog == 0
        clock.advance(100.0)  # the armed timer would fire about now
        got = []
        core.offer("lookup", KEYS[2], on_done=lambda op: got.append(op.value))
        assert core.poll() == 0  # stale fire: the new op is not due yet
        assert got == []
        assert core.next_deadline_us() == pytest.approx(200.0)
        clock.advance(100.0)
        assert core.poll() == 1
        assert got == [2]

    def test_deadline_advances_per_window_not_per_op(self):
        core, clock = make_core(max_batch=8)
        core.offer("lookup", KEYS[0])
        first = core.next_deadline_us()
        clock.advance(100.0)
        core.poll()
        clock.advance(50.0)
        core.offer("lookup", KEYS[1])
        assert core.next_deadline_us() == pytest.approx(first + 150.0)


class TestShedOrdering:
    def test_hard_depth_sheds_newest_first_come_first_kept(self):
        core, clock = make_core(max_batch=1024, deadline_us=1e6,
                                queue_depth=4, high_water=1.0)
        ops = [core.offer("lookup", KEYS[i]) for i in range(6)]
        kept, shed = ops[:4], ops[4:]
        assert all(not op.shed for op in kept)
        assert all(op.shed for op in shed)
        assert all(op.status == int(OpStatus.SHED) for op in shed)
        assert core.sheds == 2

    def test_shed_carries_retry_after(self):
        core, clock = make_core(max_batch=1024, deadline_us=500.0,
                                queue_depth=2, high_water=1.0)
        core.offer("lookup", KEYS[0])
        core.offer("lookup", KEYS[1])
        op = core.offer("lookup", KEYS[2])
        assert op.shed
        assert op.retry_after_us >= 500.0  # at least one close window

    def test_shed_ops_complete_synchronously_with_callback(self):
        core, clock = make_core(max_batch=1024, deadline_us=1e6,
                                queue_depth=1, high_water=1.0)
        core.offer("lookup", KEYS[0])
        seen = []
        op = core.offer("lookup", KEYS[1], on_done=lambda o: seen.append(o))
        assert op.done and seen == [op]

    def test_shed_write_leaves_no_pending_overlay_effect(self):
        # a shed update must be invisible: later reads serve the device
        # value, not the refused write's
        core, clock = make_core(max_batch=1024, deadline_us=1e6,
                                queue_depth=1, high_water=1.0)
        core.offer("lookup", KEYS[5])  # fills the queue
        op = core.offer("update", (KEYS[5], 999_999))
        assert op.shed
        assert core.overlay.read(KEYS[5]) is None
        got = []
        clock.advance(1e6)
        core.poll()
        core.offer("lookup", KEYS[5], on_done=lambda o: got.append(o.value))
        clock.advance(1e6)
        core.poll()
        assert got == [5]  # the original value, not 999999

    def test_open_circuit_shrinks_effective_depth(self):
        core, clock = make_core(max_batch=1024, deadline_us=1e6,
                                queue_depth=8, high_water=1.0,
                                degraded_depth_factor=0.25)

        class _OpenCircuit:
            healthy = False

        # a stand-in dispatcher: device_health reads engine._dispatcher
        core.engine._dispatcher = type(
            "D", (), {"health": _OpenCircuit()}
        )()
        assert core._effective_depth() == 2  # 8 * 0.25
        ops = [core.offer("lookup", KEYS[i]) for i in range(4)]
        assert [op.shed for op in ops] == [False, False, True, True]


class TestTwoTenantFairness:
    def test_over_share_tenant_sheds_first_above_high_water(self):
        core, clock = make_core(
            max_batch=1024, deadline_us=1e6, queue_depth=8,
            high_water=0.5, tenant_weights={"a": 3.0, "b": 1.0},
        )
        outcomes = []
        for i in range(12):
            tenant = "a" if i % 2 else "b"
            op = core.offer("lookup", KEYS[i], tenant=tenant)
            outcomes.append((tenant, op.shed))
        # below high water (backlog < 4) everyone is admitted
        assert all(not shed for _, shed in outcomes[:4])
        # above it, b (weight 1, fair share 8*1/4=2) sheds while a
        # (weight 3, fair share 6) keeps admitting
        b_after = [shed for t, shed in outcomes[4:] if t == "b"]
        a_after = [shed for t, shed in outcomes[4:] if t == "a"]
        assert all(b_after)
        assert not all(a_after)
        assert core.tenant_backlog["a"] > core.tenant_backlog["b"]

    def test_equal_weights_share_equally(self):
        core, clock = make_core(
            max_batch=1024, deadline_us=1e6, queue_depth=8, high_water=0.5,
        )
        for i in range(4):  # fill to the high-water mark with tenant a
            core.offer("lookup", KEYS[i], tenant="a")
        # b enters under its share (8/2 = 4); a is already at its share
        assert not core.offer("lookup", KEYS[4], tenant="b").shed
        assert core.offer("lookup", KEYS[5], tenant="a").shed

    def test_lone_tenant_keeps_the_whole_depth(self):
        # fairness is work-conserving: with nobody else queued, one
        # tenant's share is the full depth (only the hard bound sheds)
        core, clock = make_core(
            max_batch=1024, deadline_us=1e6, queue_depth=8, high_water=0.5,
        )
        ops = [core.offer("lookup", KEYS[i], tenant="a") for i in range(9)]
        assert [op.shed for op in ops] == [False] * 8 + [True]

    def test_fairness_resets_when_backlog_drains(self):
        core, clock = make_core(
            max_batch=1024, deadline_us=200.0, queue_depth=8, high_water=0.5,
        )
        for i in range(4):
            core.offer("lookup", KEYS[i], tenant="a")
        core.offer("lookup", KEYS[4], tenant="b")
        assert core.offer("lookup", KEYS[5], tenant="a").shed
        clock.advance(200.0)
        core.poll()  # drains the backlog
        assert not core.offer("lookup", KEYS[6], tenant="a").shed


class TestOfferValidation:
    @pytest.mark.parametrize("memtable", [None, True])
    def test_update_without_value_rejected(self, memtable):
        """A None value marks a delete row in a write batch, so an update
        carrying one is refused at the front door and the key stays."""
        core, _ = make_core(memtable=memtable)
        with pytest.raises(ReproError):
            core.offer("update", (KEYS[2], None))
        core.flush()
        assert core.backlog == 0
        assert core.engine.lookup([KEYS[2]]) == [2]


class TestConfigValidation:
    def test_rejects_non_power_of_two_batch(self):
        with pytest.raises(ReproError):
            ServerConfig(max_batch=1000)

    def test_rejects_bad_high_water(self):
        with pytest.raises(ReproError):
            ServerConfig(high_water=0.0)

    def test_rejects_negative_deadline(self):
        with pytest.raises(ReproError):
            ServerConfig(deadline_us=-1.0)

    def test_bounds_clamp_to_starting_values(self):
        cfg = ServerConfig(max_batch=8, deadline_us=10.0)
        assert cfg.min_batch <= 8
        assert cfg.min_deadline_us <= 10.0
        assert cfg.max_deadline_us >= 10.0

    def test_virtual_clock_rejects_rewind(self):
        with pytest.raises(ReproError):
            VirtualClock().advance(-1.0)


class TestVirtualDeviceCursor:
    def test_fused_group_advances_the_cursor_once(self):
        """A full write batch flushes the lookup batch it depends on
        first (``dep-order``), in one flush group: the two are one
        launch, so the virtual device cursor advances once, by that
        launch's simulated time, and both batches complete when it
        ends.  The lookups read the state before the writes."""
        core, clock = make_core(max_batch=8)
        clock.advance(10.0)
        lookups = [core.offer("lookup", k) for k in KEYS[:3]]
        writes = [core.offer("update", (k, 500)) for k in KEYS[:7]]
        assert core.backlog == 10
        writes.append(core.offer("delete", KEYS[20]))  # write batch full
        (ev,) = core.engine.last_events
        done = 10.0 + (ev.h2d_s + ev.kernel_s + ev.d2h_s) * 1e6
        assert core.device_free_us == pytest.approx(done)
        assert {op.t_done_us for op in lookups + writes} == {
            core.device_free_us}
        assert [op.value for op in lookups] == [0, 1, 2]
        assert all(op.value is True for op in writes)
        rep = core.report_snapshot()
        assert rep.batches_by_op == {"lookup": 1, "write": 1}
        assert rep.flush_reasons["size-full"] == 1
        assert rep.flush_reasons["dep-order"] == 1
        assert core.engine.lookup(list(KEYS[:3])) == [500] * 3

    @pytest.mark.parametrize("memtable", [None, True],
                             ids=["memtable-off", "memtable-on"])
    def test_sharded_launch_advances_only_its_own_device(self, memtable):
        """Over a 2-shard engine the server keeps one virtual cursor per
        device: each launch, compactions included, advances only its own
        shard's cursor, by the serial time of that shard's stream events
        (the clock stays at 0, so one device's launches queue back to
        back).  The shards' launches overlap in virtual time, and
        ``device_free_us`` is the latest cursor.  Results equal the
        single-engine executor's."""
        stream = mixed_queries(KEYS, 600, QueryMix(), seed=23)
        single = build_engine()
        expected, _ = MixedWorkloadExecutor(single).run(list(stream))

        eng = ShardedEngine(sharding=ShardingConfig(n_shards=2),
                            batch_size=64)
        eng.populate((k, i) for i, k in enumerate(KEYS))
        eng.map_to_device()
        core = ServerCore(eng, max_batch=64, clock=VirtualClock(),
                          memtable=memtable)
        launches = []  # (shard, cursors before, its events' serial µs)

        def spy_on(i, shard):
            submit = shard.submit

            def spy(kind, rows, **kw):
                cursors = list(core.lane_free_us)
                res = submit(kind, rows, **kw)
                launches.append((i, cursors, sum(
                    (ev.h2d_s + ev.kernel_s + ev.d2h_s) * 1e6
                    for ev in shard.last_events)))
                return res
            shard.submit = spy

        for i, shard in enumerate(eng.shards):
            spy_on(i, shard)
        results, _ = core.run(list(stream))
        assert results == expected
        assert {i for i, _, _ in launches} == {0, 1}
        ends = [c for _, c, _ in launches[1:]] + [core.lane_free_us]
        busy = [0.0, 0.0]
        for (i, before, sim_us), after in zip(launches, ends):
            assert sim_us > 0
            assert after[i] == pytest.approx(before[i] + sim_us)
            assert after[1 - i] == before[1 - i]
            busy[i] += sim_us
        assert core.lane_free_us == pytest.approx(busy)
        assert core.device_free_us == max(core.lane_free_us)
        assert core.device_free_us < sum(busy)

    def test_cache_hit_batch_costs_the_device_nothing(self):
        """A lookup batch the hot-key cache answers entirely launches
        nothing, so it advances the cursor by 0: its ops complete at
        their dispatch time."""
        eng = build_engine(cache_size=64)
        assert eng.lookup(list(KEYS[:8])) == list(range(8))  # warm
        clock = VirtualClock(10.0)
        core = ServerCore(eng, clock=clock, max_batch=8, deadline_us=100.0)
        ops = [core.offer("lookup", k) for k in KEYS[:8]]  # size-full
        assert all(op.done for op in ops)
        assert [op.value for op in ops] == list(range(8))
        assert core.engine.last_events == []
        assert core.device_free_us == 10.0
        assert {op.t_done_us for op in ops} == {10.0}
