"""Deterministic heart of the async serving front-end.

:class:`ServerCore` is the whole serving policy — admission control,
tenant fairness, adaptive batch close, store-to-load forwarding, the
virtual device timeline — as a plain synchronous object driven by an
injectable microsecond clock.  The asyncio wrapper
(:class:`repro.serve.server.CuartServer`) owns *when* ``poll`` runs;
this module owns *what happens*, so every queueing decision is testable
against a :class:`VirtualClock` with zero wall-clock sleeps.

Batching model (the paper's fig. 8 trade-off, made adaptive): ops
accumulate per class in an :class:`~repro.host.batching.OpClassCoalescer`
(``lookup`` / ``write`` / ``insert``; updates and deletes share one
device launch) and a batch closes on whichever comes first —

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

import numpy as np

from repro.errors import ReproError
from repro.host.batching import OpClassCoalescer
from repro.host.memtable import Memtable, MemtableConfig
from repro.host.mixed import MixedReport
from repro.host.overlay import WriteOverlay
from repro.host.results import OpStatus
from repro.obs.flightrec import NULL_FLIGHT_RECORDER
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.util.validation import require_power_of_two

__all__ = [
    "ServedOp",
    "ServerConfig",
    "ServerCore",
    "ServerOverloadedError",
    "VirtualClock",
]

_STATUS_NAMES = {int(s): s.name for s in OpStatus}

#: op kinds accepted by :meth:`ServerCore.offer`.
_KINDS = ("lookup", "update", "delete", "insert", "scan")


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
        "status", "value", "retry_after_us", "done", "forwarded",
        "on_done", "rec",
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
        self.forwarded = False
        self.on_done = on_done
        self.rec = None

    @property
    def latency_us(self) -> float:
        """Enqueue-to-completion latency on the server's clock (device
        queueing included via the virtual device cursor)."""
        return max(self.t_done_us - self.t_enqueue_us, 0.0)

    @property
    def shed(self) -> bool:
        return self.status == int(OpStatus.SHED)

    def __repr__(self) -> str:
        state = _STATUS_NAMES.get(self.status, "?") if self.done else "PENDING"
        return f"<ServedOp {self.op} tenant={self.tenant} {state}>"


class ServerCore:
    """Synchronous, clock-driven serving engine (see module docstring).

    The front-end contract is three calls:

    - :meth:`offer` admits (or sheds) one op and dispatches any batches
      its arrival closed (size / dependency cuts);
    - :meth:`next_deadline_us` tells the event loop when the oldest
      queued op's deadline expires;
    - :meth:`poll` fires expired deadlines.

    :meth:`run` additionally implements the offline
    :class:`~repro.serve.dispatch.Dispatch` protocol, so a ``ServerCore``
    drops into any benchmark slot an executor fits.
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
        self.engine = engine
        self.config = config
        self.clock = clock if clock is not None else _wall_clock_us
        self.metrics: MetricsRegistry = getattr(
            engine, "metrics", None
        ) or MetricsRegistry()
        self.tracer = getattr(engine, "tracer", None) or NULL_TRACER
        self.flight = getattr(engine, "flight", None) or NULL_FLIGHT_RECORDER

        #: live batch-close knobs (the SLO controller retunes these
        #: through :meth:`set_batch_close` / :meth:`set_deadline`).
        self.batch_close = config.max_batch
        self.deadline_us = config.deadline_us

        self._coal = OpClassCoalescer(self.batch_close, metrics=self.metrics)
        self._reasons_before = self._coal.flush_reasons()
        #: :class:`~repro.host.memtable.Memtable` when write absorption
        #: is on (:attr:`ServerConfig.memtable`): writes ack host-side
        #: in O(1) and never consume queue depth; the overlay below IS
        #: its delta, so forwarding reads stay one dict probe.
        self.memtable = None
        if config.memtable is not None \
                and getattr(engine, "contains", None) is not None:
            mtc = (MemtableConfig() if config.memtable is True
                   else config.memtable)
            self.memtable = Memtable(engine, mtc, metrics=self.metrics)
        self.overlay = (
            self.memtable.delta if self.memtable is not None
            else WriteOverlay(getattr(engine, "contains", None))
        )
        #: snapshot pinned by the oldest queued device lookup (None
        #: while no lookup is in flight): every queued lookup batch is
        #: answered at ONE memtable epoch (released at its dispatch).
        self._read_snap = None
        self._submit = getattr(engine, "submit", None)
        if getattr(engine, "drain", None) is None:
            self._submit = None
        self._overlap = None

        #: queued-but-undispatched ops, total and per tenant.
        self.backlog = 0
        self.tenant_backlog: dict = {}
        #: simulated time the device is busy through (the virtual
        #: device cursor: completions serialize behind it).
        self.device_free_us = 0.0
        #: EWMA of simulated per-op service time, for retry-after hints.
        self.service_ewma_us = 0.0
        self.admitted = 0
        self.sheds = 0
        self.completed = 0
        self.report = MixedReport()

        m = self.metrics
        self._m_latency = m.histogram(
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
        self._m_forwarded = m.counter(
            "server_forwarded_total",
            "ops answered host-side from the write overlay", labels=("op",),
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
        self._coal.batch_size = n
        self._g_batch_close.set(n)

    def set_deadline(self, us: float) -> None:
        self.deadline_us = float(us)
        self._g_deadline.set(us)

    # -- admission -------------------------------------------------------

    def _effective_depth(self) -> int:
        depth = self.config.queue_depth
        health = getattr(self.engine, "device_health", None)
        if health is not None and not health.healthy:
            depth = max(int(depth * self.config.degraded_depth_factor), 1)
        return depth

    def _admit(self, tenant: str) -> bool:
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
            self._m_latency.labels(op=op.op).observe(lat)
            self.slo_histogram.observe(lat)
        by = self.report.ops_by_status
        name = _STATUS_NAMES.get(status, str(status))
        by[name] = by.get(name, 0) + 1
        cb = op.on_done
        if cb is not None:
            cb(op)

    def _shed(self, op: ServedOp, now: float) -> ServedOp:
        self.sheds += 1
        self._m_shed.labels(tenant=op.tenant).inc()
        op.retry_after_us = self._retry_after_us()
        self._finish(op, int(OpStatus.SHED), None, now, observe=False)
        return op

    def _forward(self, op: ServedOp, found: bool, value, now: float
                 ) -> ServedOp:
        op.forwarded = True
        self._m_forwarded.labels(op=op.op).inc()
        rep = self.report
        rep.forwarded[op.op] = rep.forwarded.get(op.op, 0) + 1
        if self.flight.enabled:
            rec = self.flight.begin(op.op, op.key, None)
            if rec is not None:
                self.flight.complete_forwarded(rec, found)
        status = OpStatus.OK if found else OpStatus.NOT_FOUND
        self._finish(op, int(status), value, now)
        return op

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
        if kind not in _KINDS:
            raise ReproError(f"unknown operation {kind!r}")
        now = self.clock()
        rep = self.report
        if kind in ("update", "insert"):
            key, value_arg = payload
            if value_arg is None and kind == "update":
                # a None value marks a delete row in a write batch
                raise ReproError(f"update of {key!r} needs a value")
        elif kind == "scan":
            if not (isinstance(payload, (tuple, list)) and len(payload) == 2):
                raise ReproError(f"malformed scan payload {payload!r}")
            key, value_arg = payload[0], payload[1]
        else:
            key, value_arg = payload, None
        op = ServedOp(kind, key, value_arg, tenant, now, on_done)

        if kind == "scan":
            # unbounded key range: full barrier, served immediately
            # (flush() force-compacts first, so the range observes
            # every absorbed write)
            self.flush()
            rows = self.engine.range(key, value_arg)
            rep.scans += 1
            rep.records_scanned += len(rows)
            self._finish(op, int(OpStatus.OK), rows, self.clock())
            return op

        mt = self.memtable
        if mt is not None and kind != "lookup":
            # log-structured write absorption: the op acks right here —
            # hit/miss resolved against the delta + one memoized base
            # probe — and its folded device row rides a background
            # compaction batch.  Absorbed writes never consume queue
            # depth, so they are never shed.
            if kind == "update":
                ok = mt.absorb_update(key, value_arg)
                rep.updates += 1
                if not ok:
                    rep.update_misses += 1
                value = ok
            elif kind == "delete":
                ok = mt.absorb_delete(key)
                rep.deletes += 1
                if not ok:
                    rep.delete_misses += 1
                value = ok
            else:
                mt.absorb_insert(key, value_arg)
                ok = True
                value = True
                rep.inserts += 1
            rep.absorbed[kind] = rep.absorbed.get(kind, 0) + 1
            if self.flight.enabled:
                rec = self.flight.begin(kind, key, None)
                if rec is not None:
                    self.flight.complete_absorbed(rec, ok)
            status = OpStatus.OK if ok else OpStatus.NOT_FOUND
            self._finish(op, int(status), value, now)
            self._maybe_compact()
            return op

        # store-to-load forwarding through the pending-write overlay:
        # answered host-side, so these never consume queue depth.  Only
        # non-mutating probes run before admission — a shed op must
        # leave no pending effect behind.
        overlay = self.overlay
        entry = overlay.entries.get(key)
        if kind == "lookup":
            if entry is not None:
                found, val = overlay.resolve_read(key, entry)
                rep.lookups += 1
                if found:
                    rep.hits += 1
                else:
                    rep.misses += 1
                return self._forward(op, found, val if found else None, now)
        elif kind in ("update", "delete") and entry is not None \
                and entry[0] == "absent":
            # definitely gone (pending delete): a guaranteed miss, and
            # updates never resurrect — skip the device entirely
            if kind == "update":
                rep.updates += 1
                rep.update_misses += 1
            else:
                rep.deletes += 1
                rep.delete_misses += 1
            return self._forward(op, False, False, now)

        if not self._admit(tenant):
            return self._shed(op, now)

        self.admitted += 1
        if kind == "update":
            overlay.note_update(key, value_arg)
        elif kind == "delete":
            overlay.note_delete(key)
        elif kind == "insert":
            overlay.note_insert(key, value_arg)
        elif mt is not None:
            # snapshot reads: the queued lookup batch is pinned to ONE
            # memtable epoch.  If a compaction installed since the open
            # batch pinned, dispatch that batch at its own epoch (the
            # snapshot's shield keeps its answers exact) before this
            # read opens a new window on the fresh epoch.
            if self._read_snap is not None \
                    and self._read_snap.epoch != mt.epoch:
                for k, ops in self._coal.drain():
                    self._dispatch(k, ops)
            if self._read_snap is None:
                self._read_snap = mt.pin()
        self.backlog += 1
        self.tenant_backlog[tenant] = self.tenant_backlog.get(tenant, 0) + 1
        self._g_backlog.set(self.backlog)
        if self.flight.enabled:
            op.rec = self.flight.begin(kind, key, None)
        for k, ops in self._coal.add(kind, key, op):
            self._dispatch(k, ops)
        return op

    # -- the timer side --------------------------------------------------

    def next_deadline_us(self) -> Optional[float]:
        """Absolute clock time the oldest queued op's batch-close
        deadline expires, or None when nothing is queued — the event
        loop's wait bound."""
        coal = self._coal
        earliest = None
        for kind in coal.pending_kinds():
            oldest = coal.peek_oldest(kind)
            if oldest is None:
                continue
            due = oldest.t_enqueue_us + self.deadline_us
            if earliest is None or due < earliest:
                earliest = due
        return earliest

    def poll(self) -> int:
        """Fire every expired batch-close deadline; returns the number
        of ops dispatched."""
        now = self.clock()
        coal = self._coal
        dispatched = 0
        for kind in coal.pending_kinds():
            oldest = coal.peek_oldest(kind)
            if oldest is None:
                continue  # flushed as an ancestor of an earlier class
            if now >= oldest.t_enqueue_us + self.deadline_us:
                for k, ops in coal.flush_due(kind):
                    dispatched += len(ops)
                    self._dispatch(k, ops)
        return dispatched

    def flush(self) -> int:
        """Dispatch everything queued (shutdown / scan barrier), drain
        the memtable into the device layout, and close the simulated
        stream window."""
        dispatched = 0
        for k, ops in self._coal.drain():
            dispatched += len(ops)
            self._dispatch(k, ops)
        self._maybe_compact(force=True)
        self._close_window()
        return dispatched

    def _close_window(self) -> None:
        if self._submit is None:
            return
        window = self.engine.drain()
        if self._overlap is None:
            self._overlap = window
        else:
            self._overlap.add_window(window)
        self.report.stream_overlap = self._overlap.as_dict()

    # -- batch dispatch --------------------------------------------------

    def _dispatch(self, kind: str, ops: list) -> None:
        """Dispatch one flushed class batch (``lookup`` / ``write`` /
        ``insert``) and complete its ops; a write batch's rows are
        ``(key, value)`` updates and ``(key, None)`` deletes."""
        engine = self.engine
        td = self.clock()
        n = len(ops)
        if kind in ("write", "insert"):
            payloads = [(o.key, o.value_arg) for o in ops]
        else:
            payloads = [o.key for o in ops]
        with self.tracer.span(f"serve.{kind}", {"n": n}):
            if self._submit is not None:
                res = self._submit(kind, payloads)
            else:
                res = getattr(engine, kind)(payloads)

        # virtual device cursor: this batch's simulated service time
        # serializes behind whatever the device is already busy with
        sim_us = 0.0
        for ev in getattr(engine, "last_events", ()) or ():
            sim_us += (ev.h2d_s + ev.kernel_s + ev.d2h_s) * 1e6
        if sim_us == 0.0:
            # engines without the submit/drain event surface (e.g. the
            # sharded wrapper) still report end-to-end MOps/s = ops/µs
            last = getattr(engine, "last_report", None)
            rate = getattr(last, "end_to_end_mops", 0.0) if last else 0.0
            if rate > 0.0:
                sim_us = n / rate
        start = max(td, self.device_free_us)
        t_done = start + sim_us
        self.device_free_us = t_done
        per_op = sim_us / n if n else 0.0
        self.service_ewma_us = (
            per_op if self.service_ewma_us == 0.0
            else 0.8 * self.service_ewma_us + 0.2 * per_op
        )

        # snapshot reads: the batch pinned the memtable epoch its first
        # lookup was enqueued on; if a compaction installed newer writes
        # since, restate those keys from the snapshot's shield / pinned
        # delta so the batch answers at its own epoch
        overrides: dict = {}
        values = list(res) if kind == "lookup" else None
        if kind == "lookup" and self._read_snap is not None:
            snap = self._read_snap
            self._read_snap = None
            shield, pinned = snap.shield, snap.pinned
            if shield or pinned:
                for i, o in enumerate(ops):
                    ent = shield.get(o.key)
                    if ent is None:
                        pe = pinned.get(o.key)
                        if pe is not None:
                            ent = (pe[0] != "absent", pe[1])
                    if ent is not None:
                        overrides[i] = ent
                        values[i] = ent[1] if ent[0] else None
            snap.release()

        # book-keeping mirrors the offline executor's report shape
        rep = self.report
        rep.batches += 1
        rep.batches_by_op[kind] = rep.batches_by_op.get(kind, 0) + 1
        found = getattr(res, "found_array", None)
        hits = int(np.count_nonzero(found)) if found is not None else 0
        if kind == "lookup":
            if overrides:
                hits = sum(1 for v in values if v is not None)
            rep.lookups += n
            rep.hits += hits
            rep.misses += n - hits
        elif kind == "write":
            rep.tally_writes(payloads, res)
        else:
            rep.inserts += n
            summary = getattr(res, "summary", None)
            if summary is not None:
                rep.inserts_deferred += summary["deferred"]
        if engine.last_report is not None:
            rep.simulated_mops[kind] = engine.last_report.end_to_end_mops

        codes = getattr(res, "status", None)
        recs = []
        for i, op in enumerate(ops):
            self.backlog -= 1
            tb = self.tenant_backlog
            tb[op.tenant] = tb.get(op.tenant, 0) - 1
            self._m_queue_wait.observe(max(td - op.t_enqueue_us, 0.0))
            if op.rec is not None:
                op.rec.queue_pos = i
                recs.append(op.rec)
            status = int(codes[i]) if codes is not None else int(OpStatus.OK)
            if kind == "lookup":
                ov = overrides.get(i)
                if ov is not None:
                    # answered from the pinned snapshot, not the device
                    status = int(
                        OpStatus.OK if ov[0] else OpStatus.NOT_FOUND
                    )
                value = values[i]
            elif kind == "insert":
                value = status != int(OpStatus.FAILED)
            else:
                value = bool(found[i]) if found is not None else True
            self._finish(op, status, value, t_done)
        self._g_backlog.set(self.backlog)

        if recs:
            statuses = None
            if codes is not None:
                statuses = [
                    _STATUS_NAMES.get(int(c), str(c)) for c in codes
                ]
            self.flight.complete(
                recs, batch_id=self._coal.batches_flushed,
                t_dispatch_us=self.flight.now_us(), statuses=statuses,
                attempts=getattr(res, "attempts", None),
                sim_events=getattr(engine, "last_events", None),
                batch_size=n,
            )
        if self.controller is not None:
            self.controller.maybe_retune(self)

    # -- background merge-compaction -------------------------------------

    def _compact_dispatch(self, kind: str, payloads: list):
        """Scatter one folded compaction batch.  It occupies the virtual
        device like any foreground batch (the cursor advances) but
        completes no ServedOps — their outcomes were resolved at absorb
        time — so foreground lookups queue behind it exactly the way
        they would behind a second stream's transfer."""
        engine = self.engine
        td = self.clock()
        with self.tracer.span(f"serve.compact.{kind}",
                              {"n": len(payloads)}):
            if self._submit is not None:
                res = self._submit(kind, payloads)
            else:
                res = getattr(engine, kind)(payloads)
        sim_us = 0.0
        for ev in getattr(engine, "last_events", ()) or ():
            sim_us += (ev.h2d_s + ev.kernel_s + ev.d2h_s) * 1e6
        start = max(td, self.device_free_us)
        self.device_free_us = start + sim_us
        rep = self.report
        rep.batches += 1
        bkey = f"compact-{kind}"
        rep.batches_by_op[bkey] = rep.batches_by_op.get(bkey, 0) + 1
        if kind == "insert":
            summary = getattr(res, "summary", None)
            if summary is not None:
                rep.inserts_deferred += summary["deferred"]
        if engine.last_report is not None:
            rep.simulated_mops[kind] = engine.last_report.end_to_end_mops
        return res

    def _maybe_compact(self, force: bool = False) -> None:
        mt = self.memtable
        if mt is None:
            return
        if force or mt.should_compact():
            out = mt.compact(self._compact_dispatch, force=force)
            if out is not None:
                self.report.compactions += 1

    # -- offline Dispatch conformance ------------------------------------

    def run(self, stream) -> tuple[list, MixedReport]:
        """Execute one interleaved stream offline — the
        :class:`~repro.serve.dispatch.Dispatch` contract.  Arrival
        times all read the server clock at call time, so with the
        default wall clock batches close on size exactly like the
        offline executors; a :class:`VirtualClock` advanced between ops
        exercises the deadline path deterministically."""
        results: list = []

        def capture(op: ServedOp, seq: int) -> None:
            results[seq] = op.value

        for kind, payload in stream:
            if kind == "lookup":
                results.append(None)
                seq = len(results) - 1
                self.offer(
                    kind, payload,
                    on_done=lambda op, s=seq: capture(op, s),
                )
            else:
                self.offer(kind, payload)
            self.poll()
        self.flush()
        return results, self.report_snapshot()

    # -- reporting -------------------------------------------------------

    def report_snapshot(self) -> MixedReport:
        """The run's :class:`~repro.host.mixed.MixedReport`, with
        latency percentiles and the flush-reason delta filled in."""
        rep = self.report
        for op in ("lookup", "update", "delete", "insert"):
            summary = self.metrics.value("server_op_latency_us", op=op)
            if summary and summary.get("count"):
                rep.latency_percentiles_by_op[op] = summary
        rep.flush_reasons = {
            reason: count - self._reasons_before.get(reason, 0)
            for reason, count in self._coal.flush_reasons().items()
        }
        return rep

    def stats(self) -> dict:
        """Serving-side counters for dashboards and the load
        generator's per-step snapshots."""
        return {
            "admitted": self.admitted,
            "sheds": self.sheds,
            "completed": self.completed,
            "forwarded": dict(self.report.forwarded),
            "absorbed": dict(self.report.absorbed),
            "compactions": self.report.compactions,
            "memtable": (
                self.memtable.stats() if self.memtable is not None else None
            ),
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
