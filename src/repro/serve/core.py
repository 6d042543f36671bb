"""Deterministic heart of the async serving front-end.

:class:`ServerCore` is the online door of the batch pipeline
(:class:`repro.host.mixed.BatchPipeline`, which forwards, absorbs,
coalesces, dispatches and reports for the offline executor too).  It
adds the serving policy — admission control, tenant fairness, adaptive
batch close, the virtual device timeline — as a plain synchronous
object driven by an injectable microsecond clock.  The asyncio wrapper
(:class:`repro.serve.server.CuartServer`) owns *when* ``poll`` runs;
this module owns *what happens*, so every queueing decision is testable
against a :class:`VirtualClock` with zero wall-clock sleeps.

Batching model (the paper's fig. 8 trade-off, made adaptive): ops
accumulate per device and class in an
:class:`~repro.host.batching.OpClassCoalescer` (``lookup`` / ``write`` /
``insert``; updates and deletes share one device launch) and a batch
closes on whichever comes first —

- **size**: the class queue reaches ``batch_close`` ops (throughput
  side of the trade-off), or
- **deadline**: the oldest queued op has waited ``deadline_us``
  (latency side; the timer flush honours the coalescer's cross-class
  dependency DAG, so a read never jumps its write).

Both knobs are live-tunable; when :attr:`ServerConfig.slo_p99_us` is
set, an :class:`~repro.serve.slo.SloController` retunes them against the
windowed p99 of the ``server_slo_latency_us`` histogram.

Admission control: the bounded queue sheds with
:attr:`~repro.host.results.OpStatus.SHED` plus a ``retry_after_us``
hint when the backlog hits ``queue_depth`` — and earlier, above the
``high_water`` mark, for tenants exceeding their weighted fair share.
An open device circuit (:attr:`~repro.host.engine.CuartEngine.device_health`)
shrinks the effective depth so backpressure engages before degraded CPU
serving piles up latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ReproError
from repro.host.mixed import BatchPipeline, MixedReport, split_op
from repro.host.results import OpStatus
from repro.util.validation import require_power_of_two

__all__ = [
    "ServedOp",
    "ServerConfig",
    "ServerCore",
    "ServerOverloadedError",
    "VirtualClock",
]

_STATUS_NAMES = {int(s): s.name for s in OpStatus}


class ServerOverloadedError(ReproError):
    """Raised by the convenience coroutines when admission control shed
    the op; ``retry_after_us`` carries the backoff hint."""

    def __init__(self, tenant: str, retry_after_us: float):
        super().__init__(
            f"queue full for tenant {tenant!r}; "
            f"retry after ~{retry_after_us:.0f}us"
        )
        self.tenant = tenant
        self.retry_after_us = retry_after_us


class VirtualClock:
    """A manually advanced microsecond clock.

    The deterministic test double for the server's time axis: tests
    ``advance()`` it past batch deadlines instead of sleeping, so timer
    behaviour (partial-batch flushes, the empty-queue race, shed
    ordering) is exact and instant.  Instances are callables returning
    the current time in µs — the shape :class:`ServerCore` expects —
    and convert to the flight recorder's nanosecond clock via
    :meth:`now_ns`.
    """

    __slots__ = ("_now_us",)

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = float(start_us)

    def __call__(self) -> float:
        return self._now_us

    def now_us(self) -> float:
        return self._now_us

    def now_ns(self) -> int:
        """For ``FlightRecorder(clock=vclock.now_ns)``: flight records
        then share the server's virtual time axis, making queue-wait
        attribution exact in simulated time."""
        return int(self._now_us * 1e3)

    def advance(self, dt_us: float) -> float:
        if dt_us < 0:
            raise ReproError(f"cannot rewind the clock by {dt_us}us")
        self._now_us += dt_us
        return self._now_us


def _wall_clock_us() -> float:
    return time.perf_counter() * 1e6


@dataclass
class ServerConfig:
    """Serving policy knobs (see the module docstring for the model)."""

    #: batch-close size — a class queue reaching this many ops flushes.
    #: This is the *initial* value; the SLO controller may retune it.
    max_batch: int = 1024
    #: batch-close deadline — the oldest queued op waits at most this
    #: long (µs) before its class (and ordering ancestors) flush.
    deadline_us: float = 200.0
    #: admission bound: total ops queued-but-undispatched across all
    #: classes and tenants before hard shedding.
    queue_depth: int = 8192
    #: fraction of the depth above which per-tenant weighted fair
    #: shares are enforced (soft shedding of over-share tenants).
    high_water: float = 0.75
    #: per-tenant scheduling weights; unlisted tenants weigh 1.0.
    tenant_weights: dict = field(default_factory=dict)
    #: an open device circuit multiplies the effective depth by this,
    #: so backpressure engages while the device is degraded.
    degraded_depth_factor: float = 0.25
    #: p99 latency objective (µs) — set to enable the closed SLO
    #: feedback loop (:class:`repro.serve.slo.SloController`).
    slo_p99_us: Optional[float] = None
    #: ops between SLO retune decisions (the p99 window size).
    retune_interval: int = 1024
    #: retune bounds for the batch-close size …
    min_batch: int = 32
    batch_cap: Optional[int] = None
    #: … and the deadline (µs).
    min_deadline_us: float = 25.0
    max_deadline_us: float = 5_000.0
    #: an autotune sweep (:class:`~repro.host.autotune.TuneResult`):
    #: when present, relax steps land on the throughput-optimal probed
    #: batch size under the cap (``tune.best_under``) instead of blind
    #: doubling.
    tune: object = None
    #: write-absorption policy (:class:`~repro.host.memtable.
    #: MemtableConfig`, or ``True`` for the defaults): writes ack O(1)
    #: host-side and merge-compact in the background instead of paying
    #: a device batch per coalesced flush.  ``None`` keeps the
    #: synchronous write path.
    memtable: object = None

    def __post_init__(self) -> None:
        # the coalescer (and every halve/double retune step) keeps
        # batch sizes on the power-of-two grid of the paper's sweep
        require_power_of_two(self.max_batch, "max_batch")
        if self.batch_cap is not None:
            require_power_of_two(self.batch_cap, "batch_cap")
        require_power_of_two(self.min_batch, "min_batch")
        if self.deadline_us <= 0:
            raise ReproError(
                f"deadline_us must be positive, got {self.deadline_us}"
            )
        if self.queue_depth < 1:
            raise ReproError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if not 0.0 < self.high_water <= 1.0:
            raise ReproError(
                f"high_water must be in (0, 1], got {self.high_water}"
            )
        if not 0.0 < self.degraded_depth_factor <= 1.0:
            raise ReproError(
                "degraded_depth_factor must be in (0, 1], got "
                f"{self.degraded_depth_factor}"
            )
        if self.slo_p99_us is not None and self.slo_p99_us <= 0:
            raise ReproError(
                f"slo_p99_us must be positive, got {self.slo_p99_us}"
            )
        if self.min_batch < 1:
            raise ReproError(
                f"min_batch must be >= 1, got {self.min_batch}"
            )
        # the retune floor never exceeds the starting batch size
        self.min_batch = min(self.min_batch, self.max_batch)
        if self.batch_cap is not None and self.batch_cap < self.max_batch:
            raise ReproError(
                f"batch_cap must be >= max_batch, got {self.batch_cap}"
            )
        if self.min_deadline_us <= 0:
            raise ReproError(
                f"min_deadline_us must be positive, got "
                f"{self.min_deadline_us}"
            )
        # retune bounds bracket the starting deadline
        self.min_deadline_us = min(self.min_deadline_us, self.deadline_us)
        self.max_deadline_us = max(self.max_deadline_us, self.deadline_us)


class ServedOp:
    """One in-flight operation through the server.

    Completion is signalled through :attr:`done` and the optional
    :attr:`on_done` callback (the asyncio layer resolves its future
    there); :attr:`status` is an :class:`~repro.host.results.OpStatus`
    code, with :attr:`retry_after_us` set only for ``SHED``.
    """

    __slots__ = (
        "op", "key", "value_arg", "tenant", "t_enqueue_us", "t_done_us",
        "status", "value", "retry_after_us", "done", "on_done",
    )

    def __init__(self, op, key, value_arg, tenant, t_enqueue_us, on_done):
        self.op = op
        self.key = key
        self.value_arg = value_arg
        self.tenant = tenant
        self.t_enqueue_us = t_enqueue_us
        self.t_done_us = 0.0
        self.status = int(OpStatus.OK)
        self.value = None
        self.retry_after_us = 0.0
        self.done = False
        self.on_done = on_done

    @property
    def latency_us(self) -> float:
        """Enqueue-to-completion latency on the server's clock (device
        queueing included via its device's virtual cursor)."""
        return max(self.t_done_us - self.t_enqueue_us, 0.0)

    @property
    def shed(self) -> bool:
        return self.status == int(OpStatus.SHED)

    def __repr__(self) -> str:
        state = _STATUS_NAMES.get(self.status, "?") if self.done else "PENDING"
        return f"<ServedOp {self.op} tenant={self.tenant} {state}>"


class ServerCore(BatchPipeline):
    """Synchronous, clock-driven serving engine (see module docstring).

    The front-end contract is three calls:

    - :meth:`offer` admits (or sheds) one op and dispatches any batches
      its arrival closed (size / dependency cuts);
    - :meth:`next_deadline_us` tells the event loop when the oldest
      queued op's deadline expires;
    - :meth:`poll` fires expired deadlines.

    Forwarding, write absorption, coalescing, dispatch, compaction and
    the report are the :class:`~repro.host.mixed.BatchPipeline` the
    offline executor drives too; this class adds what is online —
    admission with SHED and tenant fairness, deadline close, the SLO
    controller, :class:`ServedOp` completion and one virtual device
    cursor per device (:attr:`lane_free_us`: each launch advances only
    its own device's, so shards run side by side in virtual time).
    :meth:`run` implements the offline
    :class:`~repro.serve.dispatch.Dispatch` protocol, so a
    ``ServerCore`` drops into any benchmark slot an executor fits.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServerConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
        **kwargs,
    ) -> None:
        if config is None:
            config = ServerConfig(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either config=ServerConfig(...) or individual "
                "keyword arguments, not both"
            )
        super().__init__(engine, config.max_batch, config.memtable)
        self.config = config
        self.clock = clock if clock is not None else _wall_clock_us

        #: live batch-close knobs (the SLO controller retunes these
        #: through :meth:`set_batch_close` / :meth:`set_deadline`).
        self.batch_close = config.max_batch
        self.deadline_us = config.deadline_us

        #: queued-but-undispatched ops, total and per tenant.
        self.backlog = 0
        self.tenant_backlog: dict = {}
        #: per lane (device, :attr:`lanes` order), the simulated time
        #: it is busy through: its virtual device cursor, which that
        #: device's launches serialize behind.
        self.lane_free_us = [0.0] * len(self.lanes)
        #: clock time the launch being dispatched left its queues, and
        #: the virtual time it completes.
        self._t_dispatch = 0.0
        self._t_done = 0.0
        #: EWMA of simulated per-op service time, for retry-after hints.
        self.service_ewma_us = 0.0
        self.admitted = 0
        self.sheds = 0
        self.completed = 0

        m = self.metrics
        self._m_served_latency = m.histogram(
            "server_op_latency_us",
            "enqueue-to-completion latency through the serving front-end",
            labels=("op",),
        )
        #: unlabeled: the SLO controller reads windowed p99 straight
        #: from this child's bucket counts.
        self.slo_histogram = m.histogram(
            "server_slo_latency_us",
            "all-op serving latency, the SLO feedback-loop source",
        )
        self._m_queue_wait = m.histogram(
            "server_queue_wait_us",
            "enqueue-to-dispatch wait inside the batch-close window",
        )
        self._m_shed = m.counter(
            "server_shed_total",
            "ops refused by admission control", labels=("tenant",),
        )
        self._m_retunes = m.counter(
            "server_retunes_total",
            "SLO feedback-loop adjustments", labels=("direction",),
        )
        self._g_batch_close = m.gauge(
            "server_batch_close", "current adaptive batch-close size",
        )
        self._g_deadline = m.gauge(
            "server_deadline_us", "current adaptive batch-close deadline",
        )
        self._g_backlog = m.gauge(
            "server_backlog", "ops queued awaiting batch close",
        )
        self._g_batch_close.set(self.batch_close)
        self._g_deadline.set(self.deadline_us)

        self.controller = None
        if config.slo_p99_us is not None:
            from repro.serve.slo import SloController

            self.controller = SloController(
                config.slo_p99_us,
                interval=config.retune_interval,
                min_batch=config.min_batch,
                batch_cap=config.batch_cap or config.max_batch,
                min_deadline_us=config.min_deadline_us,
                max_deadline_us=config.max_deadline_us,
                tune=config.tune,
            )
            self.controller.attach(self)

    # -- tuning surface (the SLO controller's write side) ----------------

    def set_batch_close(self, n: int) -> None:
        n = max(int(n), 1)
        self.batch_close = n
        for lane in self.lanes:
            lane.coal.batch_size = n
        self._g_batch_close.set(n)

    def set_deadline(self, us: float) -> None:
        self.deadline_us = float(us)
        self._g_deadline.set(us)

    # -- admission -------------------------------------------------------

    def _effective_depth(self) -> int:
        depth = self.config.queue_depth
        health = self.engine.device_health
        if health is not None and not health.healthy:
            depth = max(int(depth * self.config.degraded_depth_factor), 1)
        return depth

    def _within_share(self, tenant: str) -> bool:
        depth = self._effective_depth()
        if self.backlog >= depth:
            return False
        if self.backlog >= self.config.high_water * depth:
            weights = self.config.tenant_weights
            active_w = weights.get(tenant, 1.0)
            total_w = active_w
            for t, n in self.tenant_backlog.items():
                if n > 0 and t != tenant:
                    total_w += weights.get(t, 1.0)
            fair_share = depth * active_w / total_w
            if self.tenant_backlog.get(tenant, 0) >= fair_share:
                return False
        return True

    def _admit(self, op: ServedOp) -> bool:
        """Admission control: shed the op, or count it into the
        backlog it will occupy until its batch dispatches."""
        tenant = op.tenant
        if not self._within_share(tenant):
            self._shed(op)
            return False
        self.admitted += 1
        self.backlog += 1
        self.tenant_backlog[tenant] = self.tenant_backlog.get(tenant, 0) + 1
        self._g_backlog.set(self.backlog)
        return True

    def _retry_after_us(self) -> float:
        return self.deadline_us + self.backlog * self.service_ewma_us

    # -- completion ------------------------------------------------------

    def _finish(self, op: ServedOp, status: int, value, t_done: float,
                *, observe: bool = True) -> None:
        op.status = status
        op.value = value
        op.t_done_us = t_done
        op.done = True
        self.completed += 1
        if observe:
            lat = op.latency_us
            self._m_served_latency.labels(op=op.op).observe(lat)
            self.slo_histogram.observe(lat)
        cb = op.on_done
        if cb is not None:
            cb(op)

    def _shed(self, op: ServedOp) -> None:
        self.sheds += 1
        self._m_shed.labels(tenant=op.tenant).inc()
        op.retry_after_us = self._retry_after_us()
        by = self.report.ops_by_status
        by["SHED"] = by.get("SHED", 0) + 1
        self._finish(op, int(OpStatus.SHED), None, op.t_enqueue_us,
                     observe=False)

    # -- the front door --------------------------------------------------

    def offer(self, kind: str, payload, *, tenant: str = "default",
              on_done: Optional[Callable] = None) -> ServedOp:
        """Admit one operation.

        ``payload`` is a key for ``lookup``/``delete``, a
        ``(key, value)`` pair for ``update``/``insert`` (an update's
        value may not be None) and a ``(lo, hi)`` range for ``scan``.
        Returns the op's
        :class:`ServedOp`; when it completed synchronously (forwarded
        host-side, shed, or swept up in a size-triggered batch close)
        ``op.done`` is already True and ``on_done`` has fired.
        """
        key, value_arg = split_op(kind, payload)
        now = self.clock()
        op = ServedOp(kind, key, value_arg, tenant, now, on_done)
        if kind == "scan":
            rows = self._scan(key, value_arg)
            self._finish(op, int(OpStatus.OK), rows, self.clock())
            return op
        ans = self._route(kind, key, value_arg, op)
        if ans is not None:
            status = OpStatus.OK if ans[0] else OpStatus.NOT_FOUND
            self._finish(op, int(status), ans[1], now)
        return op

    # -- the timer side --------------------------------------------------

    def next_deadline_us(self) -> Optional[float]:
        """Absolute clock time the oldest queued op's batch-close
        deadline expires, or None when nothing is queued — the event
        loop's wait bound."""
        queued = [op.t_enqueue_us for _, _, op in self._oldest_queued()]
        return min(queued) + self.deadline_us if queued else None

    def poll(self) -> int:
        """Fire every expired batch-close deadline; returns the number
        of ops dispatched."""
        now = self.clock()
        dispatched = 0
        for lane, kind, oldest in self._oldest_queued():
            if now >= oldest.t_enqueue_us + self.deadline_us:
                dispatched += self._dispatch_group(
                    lane, lane.coal.flush_due(kind))
        return dispatched

    def _oldest_queued(self):
        """Yield ``(lane, class, oldest queued op)`` per non-empty class
        queue, lane by lane in first-arrival order; each queue is read
        when its turn comes, so a class an earlier deadline flushed as
        an ancestor is skipped."""
        for lane in self.lanes:
            coal = lane.coal
            for kind in coal.pending_kinds():
                oldest = coal.peek_oldest(kind)
                if oldest is not None:
                    yield lane, kind, oldest

    # -- batch dispatch --------------------------------------------------

    def _rows(self, kind: str, ops: list) -> list:
        if kind == "lookup":
            return [o.key for o in ops]
        return [(o.key, o.value_arg) for o in ops]

    def _dispatch(self, lane, kind: str, ops: list, lookups=None) -> None:
        # the launch's batches leave their queues now, on the server clock
        self._t_dispatch = self.clock()
        super()._dispatch(lane, kind, ops, lookups)

    @property
    def device_free_us(self) -> float:
        """Simulated time the last busy device is busy through: the
        latest of the per-device cursors (:attr:`lane_free_us`)."""
        return max(self.lane_free_us)

    @staticmethod
    def _sim_us(lane) -> float:
        """Simulated service time (µs) of the launch just submitted on
        ``lane``: the serial time of its device's stream events for it
        (:attr:`~repro.host.engine.CuartEngine.last_events`).  A batch
        with no launch — all cache hits, or served by the CPU while
        degraded — costs the device nothing."""
        sim_us = 0.0
        for ev in lane.engine.last_events:
            sim_us += (ev.h2d_s + ev.kernel_s + ev.d2h_s) * 1e6
        return sim_us

    def _occupy(self, lane, t_us: float, sim_us: float) -> float:
        """Serialize a launch of ``sim_us`` reaching ``lane``'s device at
        clock time ``t_us`` behind that device's cursor alone; returns
        when it ends."""
        free = self.lane_free_us
        free[lane.index] = max(t_us, free[lane.index]) + sim_us
        return free[lane.index]

    def _launched(self, lane, n: int) -> None:
        """Occupy ``lane``'s virtual device cursor with the launch just
        submitted (``n`` ops), once per launch: every batch it carries
        completes when it ends."""
        sim_us = self._sim_us(lane)
        self._t_done = self._occupy(lane, self._t_dispatch, sim_us)
        per_op = sim_us / n
        self.service_ewma_us = (
            per_op if self.service_ewma_us == 0.0
            else 0.8 * self.service_ewma_us + 0.2 * per_op
        )

    def _complete(self, kind: str, ops: list, res) -> None:
        """Complete a dispatched batch's ServedOps when its launch ends
        on its device's virtual cursor (:meth:`_launched`)."""
        n = len(ops)
        td = self._t_dispatch
        t_done = self._t_done
        self.backlog -= n
        tb = self.tenant_backlog
        codes = res.status
        found = res.found_array
        values = res.to_list() if kind == "lookup" else None
        for i, op in enumerate(ops):
            tb[op.tenant] -= 1
            self._m_queue_wait.observe(max(td - op.t_enqueue_us, 0.0))
            status = int(codes[i])
            if kind == "lookup":
                value = values[i]
            elif kind == "insert":
                value = status != int(OpStatus.FAILED)
            else:
                value = bool(found[i])
            self._finish(op, status, value, t_done)
        self._g_backlog.set(self.backlog)
        if self.controller is not None:
            self.controller.maybe_retune(self)

    def _compact_dispatch(self, lane, kind: str, rows: list):
        """A compaction batch completes no ServedOps — their outcomes
        were resolved at absorb time — but it occupies its device's
        virtual cursor like any batch, so that device's foreground
        lookups queue behind it the way they would behind a second
        stream's transfer."""
        td = self.clock()
        res = super()._compact_dispatch(lane, kind, rows)
        self._occupy(lane, td, self._sim_us(lane))
        return res

    # -- offline Dispatch conformance ------------------------------------

    def run(self, stream) -> tuple[list, MixedReport]:
        """Execute one interleaved stream offline — the
        :class:`~repro.serve.dispatch.Dispatch` contract.  Batches close
        on size, key conflict and drain only (no deadline fires), so
        the result and report are the same on every clock."""
        lookups = []
        for kind, payload in stream:
            op = self.offer(kind, payload)
            if kind == "lookup":
                lookups.append(op)
        self.flush()
        return [op.value for op in lookups], self.report_snapshot()

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        """Serving-side counters for dashboards and the load
        generator's per-step snapshots.  ``memtable`` holds the
        memtable's :meth:`~repro.host.memtable.Memtable.stats` (None
        while absorption is off), and on several devices one such dict
        per device, in shard order."""
        mts = [lane.memtable.stats() for lane in self.lanes
               if lane.memtable is not None]
        return {
            "admitted": self.admitted,
            "sheds": self.sheds,
            "completed": self.completed,
            "forwarded": dict(self.report.forwarded),
            "absorbed": dict(self.report.absorbed),
            "compactions": self.report.compactions,
            "memtable": mts[0] if len(mts) == 1 else (mts or None),
            "backlog": self.backlog,
            "batch_close": self.batch_close,
            "deadline_us": self.deadline_us,
            "device_free_us": self.device_free_us,
            "service_ewma_us": self.service_ewma_us,
            "retunes": (
                self.controller.retunes if self.controller is not None else 0
            ),
            "slo_latency": self.slo_histogram.summary(),
            "queue_wait": self._m_queue_wait.summary(),
        }
