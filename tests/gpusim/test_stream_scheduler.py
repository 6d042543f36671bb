"""Unit tests for the double-buffered stream scheduler (§4.1/4.3) and
the overlapped-batch closed form in the cost model."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.gpusim.cost_model import overlapped_batch_time
from repro.gpusim.streams import (
    DevicePlacement,
    StreamOverlapStats,
    StreamScheduler,
)
from repro.host.config import EngineConfig
from repro.obs.metrics import MetricsRegistry

H2D, KERNEL, D2H = 1.0, 3.0, 0.5


def _submit_n(sched, n, *, h2d=H2D, kernel=KERNEL, d2h=D2H):
    return [
        sched.submit("lookup", h2d_s=h2d, kernel_s=kernel, d2h_s=d2h)
        for _ in range(n)
    ]


class TestStreamScheduler:
    def test_single_stream_fully_serializes(self):
        sched = StreamScheduler(1)
        _submit_n(sched, 4)
        stats = sched.drain()
        assert stats.makespan_s == pytest.approx(4 * (H2D + KERNEL + D2H))
        assert stats.saved_s == 0.0
        assert stats.overlap_ratio == 0.0

    def test_double_buffering_hides_transfers_kernel_bound(self):
        """Kernel-bound: steady state pays max(kernel, h2d) = kernel per
        batch; only the first h2d and last d2h stick out."""
        sched = StreamScheduler(2)
        events = _submit_n(sched, 5)
        stats = sched.drain()
        assert stats.makespan_s == pytest.approx(H2D + 5 * KERNEL + D2H)
        assert stats.serial_s == pytest.approx(5 * (H2D + KERNEL + D2H))
        assert stats.saved_s > 0
        # batch i+1's staging starts while batch i's kernel runs
        assert events[1].copy_start_s < events[0].done_s

    def test_transfer_bound_pipeline(self):
        """h2d > kernel: the copy engine is the bottleneck."""
        sched = StreamScheduler(2)
        _submit_n(sched, 5, h2d=3.0, kernel=1.0, d2h=0.0)
        stats = sched.drain()
        assert stats.makespan_s == pytest.approx(5 * 3.0 + 1.0)

    def test_buffer_limit_blocks_copy(self):
        """With n_streams buffers, batch i+n_streams cannot stage before
        batch i completes — more streams admit earlier staging."""
        few = StreamScheduler(2)
        many = StreamScheduler(8)
        ev_few = _submit_n(few, 6, h2d=0.1, kernel=2.0, d2h=1.0)
        ev_many = _submit_n(many, 6, h2d=0.1, kernel=2.0, d2h=1.0)
        assert ev_few[4].copy_start_s > ev_many[4].copy_start_s
        assert ev_few[2].copy_start_s >= ev_few[0].done_s

    def test_kernels_never_overlap_each_other(self):
        sched = StreamScheduler(4)
        events = _submit_n(sched, 6)
        for a, b in zip(events, events[1:]):
            assert b.kernel_start_s >= a.kernel_start_s + a.kernel_s

    def test_drain_resets_clocks(self):
        sched = StreamScheduler(2)
        _submit_n(sched, 3)
        first = sched.drain()
        assert first.batches == 3
        assert sched.pending == 0
        _submit_n(sched, 2)
        second = sched.drain()
        # a fresh window starts at t=0 again
        assert second.makespan_s == pytest.approx(H2D + 2 * KERNEL + D2H)

    def test_add_window_folds_sequential_windows(self):
        a = StreamOverlapStats(batches=2, serial_s=4.0, makespan_s=3.0)
        b = StreamOverlapStats(batches=1, serial_s=2.0, makespan_s=2.0)
        a.add_window(b)
        assert a.batches == 3
        assert a.serial_s == pytest.approx(6.0)
        assert a.makespan_s == pytest.approx(5.0)
        assert a.saved_s == pytest.approx(1.0)
        d = a.as_dict()
        assert d["batches"] == 3 and d["overlap_ratio"] > 0

    def test_metrics_counters(self):
        reg = MetricsRegistry()
        sched = StreamScheduler(2, metrics=reg)
        _submit_n(sched, 4)
        stats = sched.drain()
        assert reg.value("stream_batches_total") == 4
        assert reg.value("stream_overlap_saved_us_total") == pytest.approx(
            stats.saved_s * 1e6
        )

    def test_invalid_stream_count_rejected(self):
        with pytest.raises(ValueError):
            StreamScheduler(0)


class TestDevicePlacement:
    def test_release_zero_is_the_schedulers_placement(self):
        sched = StreamScheduler(2)
        dev = DevicePlacement(2)
        for ev in _submit_n(sched, 5, h2d=0.1, kernel=2.0, d2h=1.0):
            assert dev.place(0.1, 2.0, 1.0) == (
                ev.copy_start_s, ev.kernel_start_s, ev.done_s)
        assert dev.free_s == sched.drain().makespan_s

    def test_release_time_delays_staging_only_on_an_idle_device(self):
        """A batch released while its device is busy waits for the
        engines; one released after the device went idle starts at its
        release."""
        dev = DevicePlacement(2)
        assert dev.free_s == 0.0
        assert dev.place(H2D, KERNEL, D2H, 10.0) == (10.0, 11.0, 14.5)
        # released at 10.5: staging waits for the copy engine (11.0),
        # the kernel for the compute engine (14.0)
        assert dev.place(H2D, KERNEL, D2H, 10.5) == (11.0, 14.0, 17.5)
        assert dev.free_s == 17.5
        assert dev.place(H2D, KERNEL, D2H, 40.0) == (40.0, 41.0, 44.5)


class TestStatsFolds:
    """Edge cases of the two fold directions: sequential
    (``add_window``) and concurrent (``merge_parallel``), including the
    window / device-timeline bookkeeping the critical-path layer
    depends on."""

    def test_add_window_empty_into_empty(self):
        a, b = StreamOverlapStats(), StreamOverlapStats()
        a.add_window(b)
        assert a.batches == 0 and a.makespan_s == 0.0
        assert a.events == () and a.windows == []

    def test_add_window_empty_window_adds_no_boundary(self):
        sched = StreamScheduler(2)
        _submit_n(sched, 2)
        a = sched.drain()
        a.add_window(StreamOverlapStats())  # barrier with no submissions
        _submit_n(sched, 3)
        a.add_window(sched.drain())
        # two windows: the empty middle window holds no timeline, so it
        # adds no window of its own
        assert [[len(dev.events) for dev in w] for w in a.windows] == [
            [2], [3]]
        assert len(a.events) == 5

    def test_add_window_event_offsets(self):
        sched = StreamScheduler(2)
        _submit_n(sched, 2)
        a = sched.drain()
        _submit_n(sched, 1)
        a.add_window(sched.drain())
        _submit_n(sched, 3)
        a.add_window(sched.drain())
        assert [len(w[0].events) for w in a.windows] == [2, 1, 3]
        assert len(a.events) == 6
        # each window keeps its own relative clock: every window's first
        # event stages at t=0, and ``events`` reads them in window order
        for (dev,) in a.windows:
            assert dev.events[0].copy_start_s == 0.0
        assert a.events == tuple(ev for (dev,) in a.windows
                                 for ev in dev.events)

    def test_add_window_leaves_the_folded_record_alone(self):
        """A sequential fold copies the other record's window lists, so
        a later parallel fold into the last window cannot grow the
        record it came from."""
        sched = StreamScheduler(2)
        _submit_n(sched, 2)
        window = sched.drain()
        a = StreamOverlapStats(streams=2)
        a.add_window(window)
        _submit_n(sched, 3)
        a.merge_parallel(sched.drain())
        assert [len(w) for w in a.windows] == [2]
        assert [len(w) for w in window.windows] == [1]

    def test_merge_parallel_zero_submission_sides(self):
        sched = StreamScheduler(2)
        _submit_n(sched, 3)
        a = sched.drain()
        span = a.makespan_s
        a.merge_parallel(StreamOverlapStats(streams=2))  # idle device
        assert a.makespan_s == pytest.approx(span)
        assert a.batches == 3
        # the idle side contributes no timeline — only real ones
        assert [len(w) for w in a.windows] == [1]

        empty = StreamOverlapStats(streams=2)
        sched2 = StreamScheduler(2)
        _submit_n(sched2, 2)
        b = sched2.drain()
        empty.merge_parallel(b)
        assert empty.makespan_s == pytest.approx(b.makespan_s)
        assert empty.windows == [b.windows[0]]
        assert empty.events == b.events

    def test_merge_parallel_single_stream_degenerate(self):
        """n_streams=1 shards: the fold still maxes makespans and the
        window keeps each device's serial timeline."""
        parts = []
        for n in (2, 4):
            sched = StreamScheduler(1)
            _submit_n(sched, n)
            parts.append(sched.drain())
        merged = parts[0]
        merged.merge_parallel(parts[1])
        assert merged.makespan_s == pytest.approx(4 * (H2D + KERNEL + D2H))
        assert merged.streams == 2
        (window,) = merged.windows
        assert [dev.streams for dev in window] == [1, 1]
        assert [len(dev.events) for dev in window] == [2, 4]

    def test_merge_parallel_fold_associativity(self):
        """(a || b) || c and a || (b || c) agree numerically and
        hold the same device timelines in the same order."""

        def _mk(n, kernel):
            sched = StreamScheduler(2)
            _submit_n(sched, n, kernel=kernel)
            return sched.drain()

        left = _mk(2, 1.0)
        left.merge_parallel(_mk(3, 2.0))
        left.merge_parallel(_mk(4, 3.0))

        right_tail = _mk(3, 2.0)
        right_tail.merge_parallel(_mk(4, 3.0))
        right = _mk(2, 1.0)
        right.merge_parallel(right_tail)

        assert left.makespan_s == pytest.approx(right.makespan_s)
        assert left.serial_s == pytest.approx(right.serial_s)
        assert left.batches == right.batches == 9
        assert left.streams == right.streams == 6
        lw, rw = left.windows[0], right.windows[0]
        assert [len(d.events) for d in lw] == [2, 3, 4]
        assert [len(d.events) for d in rw] == [2, 3, 4]
        for ld, rd in zip(lw, rw):
            assert ld.makespan_s == pytest.approx(rd.makespan_s)

    def test_merge_parallel_resets_own_timeline(self):
        """After a parallel fold the record's own timeline is the first
        device of its one window; a later sequential fold opens a new
        window, so it cannot mix clocks across devices, and a record of
        several windows is refused as a parallel side."""
        sched = StreamScheduler(2)
        _submit_n(sched, 2)
        a = sched.drain()
        own = a.windows[0][0]
        sched2 = StreamScheduler(2)
        _submit_n(sched2, 2)
        a.merge_parallel(sched2.drain())
        assert [len(w) for w in a.windows] == [2]
        assert a.windows[0][0] is own
        _submit_n(sched, 3)
        a.add_window(sched.drain())
        assert [[len(d.events) for d in w] for w in a.windows] == [
            [2, 2], [3]]
        with pytest.raises(ValueError):
            StreamOverlapStats().merge_parallel(a)

    def test_as_dict_schema_unchanged_by_timelines(self):
        """The BENCH schema must not grow raw event lists."""
        sched = StreamScheduler(2)
        _submit_n(sched, 3)
        d = sched.drain().as_dict()
        assert sorted(d) == ["batches", "makespan_s", "overlap_ratio",
                             "saved_s", "serial_s", "streams"]


class TestOverlappedBatchTime:
    def test_serial_when_single_stream(self):
        assert overlapped_batch_time(3.0, 1.0, 0.5, streams=1) == \
            pytest.approx(4.5)

    def test_max_rule_with_streams(self):
        assert overlapped_batch_time(3.0, 1.0, 0.5) == pytest.approx(3.0)
        assert overlapped_batch_time(1.0, 3.0, 0.5) == pytest.approx(3.0)
        assert overlapped_batch_time(1.0, 0.5, 3.0) == pytest.approx(3.0)

    def test_agrees_with_scheduler_steady_state(self):
        """The closed form is the scheduler's asymptotic per-batch cost."""
        sched = StreamScheduler(2)
        n = 200
        _submit_n(sched, n)
        stats = sched.drain()
        per_batch = stats.makespan_s / n
        assert per_batch == pytest.approx(
            overlapped_batch_time(KERNEL, H2D, D2H, streams=2), rel=0.05
        )


class TestEngineConfigStreams:
    def test_default_is_double_buffered(self):
        assert EngineConfig().streams == 2

    def test_zero_streams_rejected(self):
        with pytest.raises(SimulationError):
            EngineConfig(streams=0)
