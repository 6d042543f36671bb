"""Per-window critical-path attribution over the stream pipeline.

:class:`~repro.gpusim.streams.StreamScheduler` models two serial
engines (PCIe copy, compute) with ``n_streams`` batch buffers in
flight.  Every timestamp it assigns is the max of a small set of
recomputable predecessors, so given a window's ordered
:class:`~repro.gpusim.streams.StreamEvent` list we can walk the binding
chain *backwards* from the makespan-defining event to t=0 and charge
every instant of the window to exactly one stage:

* ``h2d``    — the copy engine bound progress (PCIe host->device)
* ``kernel`` — the compute engine bound progress (device kernels,
  including the dedup hash table for write batches)
* ``d2h``    — a return DMA bound progress (only via buffer-reuse
  waits or the final event's tail)

The chain decomposes ``[0, makespan]`` exactly — stage totals sum to
the window makespan to float precision, which is how the <1%
reconciliation gate in ``benchmarks/perf_smoke.py`` holds trivially.

Window structure comes from :class:`~repro.gpusim.streams.
StreamOverlapStats`: a list of windows (``add_window`` appends one, and
barrier-separated windows add), each a list of per-device timelines
(``merge_parallel`` joins concurrent devices into one window).  Within
a window the slowest device's chain *is* the critical path and every
other device contributes **shard-skew** (device-idle time under the
imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: attribution stage names (superset of the device stages: shard-skew
#: only appears for windows of several devices, idle only for empty
#: windows).
CP_STAGES = ("h2d", "kernel", "d2h", "shard-skew")


@dataclass
class WindowAttribution:
    """Stage attribution of one submit/drain window."""

    makespan_s: float = 0.0
    batches: int = 0
    stage_s: dict = field(default_factory=dict)
    #: per-op-class share of the critical path, stage -> seconds
    by_op: dict = field(default_factory=dict)

    @property
    def total_stage_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def bottleneck(self) -> str:
        if not self.stage_s:
            return "idle"
        return max(self.stage_s, key=self.stage_s.get)

    def add(self, other: "WindowAttribution") -> None:
        self.makespan_s += other.makespan_s
        self.batches += other.batches
        for k, v in other.stage_s.items():
            self.stage_s[k] = self.stage_s.get(k, 0.0) + v
        for op, stages in other.by_op.items():
            mine = self.by_op.setdefault(op, {})
            for k, v in stages.items():
                mine[k] = mine.get(k, 0.0) + v

    def as_dict(self) -> dict:
        return {
            "makespan_s": round(self.makespan_s, 9),
            "batches": self.batches,
            "bottleneck": self.bottleneck,
            "stage_s": {k: round(v, 9) for k, v in self.stage_s.items()},
            "by_op": {
                op: {k: round(v, 9) for k, v in st.items()}
                for op, st in self.by_op.items()
            },
        }


def attribute_window(events, n_streams: int) -> WindowAttribution:
    """Walk the binding chain of one window backwards from its
    makespan-defining event, charging each interval to (stage, op).

    Predecessor rules mirror ``StreamScheduler.submit`` exactly:

    * ``kernel_start[i] = max(copy_done[i], kernel_done[i-1])``
    * ``copy_start[i]   = max(copy_done[i-1], wait)`` where ``wait`` is
      ``done[i - n_streams]`` once all batch buffers are busy (with one
      buffer, the previous batch: full serialization) — a buffer-reuse
      wait, charged to the older event's return DMA.
    """
    attr = WindowAttribution(batches=len(events))
    if not events:
        return attr

    stage_s = attr.stage_s
    by_op = attr.by_op

    def charge(stage: str, op: str, dt: float) -> None:
        if dt <= 0.0:
            return
        stage_s[stage] = stage_s.get(stage, 0.0) + dt
        d = by_op.setdefault(op, {})
        d[stage] = d.get(stage, 0.0) + dt

    i = max(range(len(events)), key=lambda j: events[j].done_s)
    attr.makespan_s = events[i].done_s
    state = "done"
    while True:
        ev = events[i]
        if state == "done":
            # at ev.done_s: the return DMA is the binding tail
            charge("d2h", ev.op, ev.d2h_s)
            t = ev.done_s - ev.d2h_s
            state = "kernel_done"
        elif state == "kernel_done":
            # at kernel_done: the kernel itself, then its start bound
            charge("kernel", ev.op, ev.kernel_s)
            t = ev.kernel_start_s
            copy_done = ev.copy_start_s + ev.h2d_s
            prev_kd = (
                events[i - 1].done_s - events[i - 1].d2h_s if i > 0 else 0.0
            )
            if copy_done >= prev_kd:
                state = "copy_done"  # own staging bound the start
            else:
                i -= 1               # compute engine was busy
                state = "kernel_done"
        else:  # state == "copy_done"
            # at copy_start + h2d: the H2D copy, then its start bound
            charge("h2d", ev.op, ev.h2d_s)
            t = ev.copy_start_s
            if i == 0:
                break  # the first copy starts at the window epoch
            prev_cd = events[i - 1].copy_start_s + events[i - 1].h2d_s
            if i >= n_streams:
                j, wait = i - n_streams, events[i - n_streams].done_s
            else:
                j, wait = -1, -1.0
            if wait >= prev_cd and j >= 0:
                i = j          # buffer-reuse: older batch's completion
                state = "done"
            else:
                i -= 1         # copy engine was busy
                state = "copy_done"
        if t <= 0.0:
            break
    return attr


@dataclass
class CriticalPathReport:
    """Attribution of a full :class:`StreamOverlapStats` fold."""

    makespan_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    by_op: dict = field(default_factory=dict)
    bottleneck: str = "idle"
    #: one :class:`WindowAttribution` per window of the stats.
    windows: list = field(default_factory=list)
    #: one row per device of every window of several devices, window by
    #: window (``shard`` is the device's index in its window).
    shards: list = field(default_factory=list)
    shard_skew_s: float = 0.0

    @property
    def total_stage_s(self) -> float:
        return sum(
            v for k, v in self.stage_s.items() if k != "shard-skew"
        )

    def as_dict(self) -> dict:
        doc = {
            "makespan_s": round(self.makespan_s, 9),
            "bottleneck": self.bottleneck,
            "stage_s": {k: round(v, 9) for k, v in self.stage_s.items()},
            "by_op": {
                op: {k: round(v, 9) for k, v in st.items()}
                for op, st in self.by_op.items()
            },
            "windows": [w.as_dict() for w in self.windows],
        }
        if self.shards:
            doc["shards"] = self.shards
            doc["shard_skew_s"] = round(self.shard_skew_s, 9)
        return doc


def attribute_stats(stats) -> CriticalPathReport:
    """Attribute a drained/folded ``StreamOverlapStats`` window by
    window.  In each window :func:`attribute_window` walks every
    device's chain; the slowest device's chain is the window's critical
    path, and every other device adds ``window makespan - its
    makespan`` of shard-skew (idle device time).  Windows are
    barrier-separated, so their attributions sum: stage totals,
    shard-skew excluded, reconcile with ``stats.makespan_s``."""
    rep = CriticalPathReport(makespan_s=stats.makespan_s)
    total = WindowAttribution()
    for window in stats.windows:
        attrs = [attribute_window(dev.events, dev.streams) for dev in window]
        spans = [dev.makespan_s for dev in window]
        span = max(spans)
        slowest = attrs[spans.index(span)]
        attr = WindowAttribution(
            makespan_s=span, batches=sum(a.batches for a in attrs),
            stage_s=dict(slowest.stage_s),
            by_op={op: dict(st) for op, st in slowest.by_op.items()},
        )
        skew = sum(span - dev_span for dev_span in spans)
        if skew > 0.0:
            attr.stage_s["shard-skew"] = skew
        if len(window) > 1:
            for idx, (dev_span, dev) in enumerate(zip(spans, attrs)):
                rep.shards.append({
                    "shard": idx,
                    "makespan_s": round(dev_span, 9),
                    "skew_s": round(span - dev_span, 9),
                    "bottleneck": dev.bottleneck,
                    "stage_s": {
                        k: round(v, 9) for k, v in dev.stage_s.items()
                    },
                })
        rep.windows.append(attr)
        total.add(attr)
    rep.stage_s = total.stage_s
    rep.by_op = total.by_op
    rep.shard_skew_s = rep.stage_s.get("shard-skew", 0.0)
    rep.bottleneck = total.bottleneck
    return rep


def stage_breakdown(stats, flight_summary: dict | None = None) -> dict:
    """Per-op-class stage-breakdown table: device-stage seconds summed
    over *all* events (not just the critical path) plus, when a flight
    summary is supplied, host-side queue-wait.  Columns:

    ``queue_wait_us`` (coalescer residence, flight records) |
    ``h2d_s`` / ``d2h_s`` (PCIe) | ``kernel_s`` (device) |
    ``compute_wait_s`` (staging done -> kernel start: time a batch sat
    ready while the compute engine served an earlier batch).
    """

    table: dict = {}
    for ev in stats.events:
        row = table.setdefault(ev.op, {
            "batches": 0, "h2d_s": 0.0, "kernel_s": 0.0, "d2h_s": 0.0,
            "compute_wait_s": 0.0,
        })
        row["batches"] += 1
        row["h2d_s"] += ev.h2d_s
        row["kernel_s"] += ev.kernel_s
        row["d2h_s"] += ev.d2h_s
        row["compute_wait_s"] += max(
            ev.kernel_start_s - (ev.copy_start_s + ev.h2d_s), 0.0
        )
    if flight_summary:
        for op, agg in flight_summary.get("by_op", {}).items():
            row = table.setdefault(op, {
                "batches": 0, "h2d_s": 0.0, "kernel_s": 0.0,
                "d2h_s": 0.0, "compute_wait_s": 0.0,
            })
            row["queue_wait_us_sum"] = agg.get("queue_wait_us_sum", 0.0)
            row["queue_wait_us_max"] = agg.get("queue_wait_us_max", 0.0)
            row["sampled_ops"] = agg.get("count", 0)
            row["forwarded"] = agg.get("forwarded", 0)
    for row in table.values():
        for k, v in row.items():
            if isinstance(v, float):
                row[k] = round(v, 9)
    return table
