"""The batch pipeline: mixed OLTP read/write execution (section 3.1).

"Another problem arises when running mixed read/write workloads such as
typical OLTP benchmarks."  An interleaved stream of lookups, updates,
deletes, inserts and scans (:func:`repro.workloads.queries.mixed_queries`,
the YCSB profiles of :mod:`repro.workloads.ycsb`) becomes power-of-two
device batches (§4.1) through one :class:`BatchPipeline`, whichever
front door feeds it: the offline :class:`MixedWorkloadExecutor`
(``run(stream)``) or the online :class:`repro.serve.core.ServerCore`
(``offer`` per op, which subclasses it).

Per op the pipeline answers host-side where it can — a read on a key
with a queued write is forwarded from the pending-write overlay
(:mod:`repro.host.overlay`), a write to a definitely-absent key is a
miss without device work, and with the memtable on
(:mod:`repro.host.memtable`) writes are absorbed in O(1) — and
otherwise queues the op in its class queue
(:class:`repro.host.batching.OpClassCoalescer`: ``lookup``, ``write``
for updates and deletes in one device launch, ``insert``).  With the
memtable on, lookups are the only class queued, and they launch before
each compaction installs: a lookup queued before a compaction reads the
pre-install state, as a serial run does.  Each flushed batch is
submitted to the engine's double-buffered stream pipeline — a lookup
batch that a flush group releases directly before a write batch rides
that batch's launch as its stage 0, so the pair costs one launch — and
its outcomes tallied into a
:class:`MixedReport`: hit/miss counts straight from
:attr:`repro.host.results.BatchResult.found_array`, per-op
:class:`~repro.host.results.OpStatus` codes in
:attr:`MixedReport.ops_by_status` (retried, degraded or failed ops
under fault injection), and the batch's host wall time per row in the
``mixed_op_latency_us{op=...}`` histogram.  Each batch runs under a
``mixed.<class>`` tracer span, so a chrome trace shows the pipeline →
engine → simulated-kernel nesting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.errors import InvalidOperationError
from repro.host.batching import OP_CLASS, OpClassCoalescer, fold_writes
from repro.host.engine import require_serving_engine
from repro.host.memtable import Memtable, MemtableConfig
from repro.host.overlay import WriteOverlay
from repro.host.results import OpStatus

#: OpStatus code -> name.
_STATUS_NAMES = {int(s): s.name for s in OpStatus}

#: host-side ``(found, value)`` answers of a write: hit and miss.
_HIT = (True, True)
_MISS = (False, False)


@dataclass
class MixedReport:
    """Counts and outcomes of one executed stream."""

    lookups: int = 0
    updates: int = 0
    deletes: int = 0
    inserts: int = 0
    scans: int = 0
    hits: int = 0
    misses: int = 0
    update_misses: int = 0
    delete_misses: int = 0
    inserts_deferred: int = 0
    records_scanned: int = 0
    #: device batches dispatched (coalesced per op class).
    batches: int = 0
    #: batches dispatched per op class (fragmentation visibility).
    batches_by_op: dict = field(default_factory=dict)
    #: measured host wall-clock seconds of the pipeline's batches, per
    #: batch class (``lookup`` / ``write`` / ``insert`` / ``scan`` and
    #: ``compact-*`` compaction batches).
    wall_s: dict = field(default_factory=dict)
    #: per-class summaries of that wall time per row, from the
    #: ``mixed_op_latency_us`` histograms — one entry per
    #: :attr:`wall_s` class (``{"lookup": {"count", "mean", "p50",
    #: "p95", "p99", ...}, ...}``).
    latency_percentiles_by_op: dict = field(default_factory=dict)
    #: batches cut per flush reason during this run (``size-full`` /
    #: ``key-conflict`` / ``dep-order`` / ``drain`` / ``deadline``).
    flush_reasons: dict = field(default_factory=dict)
    #: merge-compaction installs run by this dispatch surface (the
    #: memtable write-absorption path; 0 when it is disabled).
    compactions: int = 0
    #: writes acked host-side by the memtable (O(1) absorb), per op
    #: class — their folded device rows ride compaction batches, which
    #: show up as ``compact-*`` entries in :attr:`batches_by_op`.
    absorbed: dict = field(default_factory=dict)
    #: operations per :class:`~repro.host.results.OpStatus` name
    #: (``OK`` / ``NOT_FOUND`` / ``RETRIED`` / ``DEGRADED_CPU`` /
    #: ``FAILED``); scans count as ``OK``.
    ops_by_status: dict = field(default_factory=dict)
    #: simulated multi-stream overlap accounting of the run
    #: (:meth:`repro.gpusim.streams.StreamOverlapStats.as_dict`): serial
    #: vs pipelined makespan, seconds hidden by double-buffering.  The
    #: run's simulated rate is ``operations / makespan_s``.
    stream_overlap: dict = field(default_factory=dict)
    #: update ops whose device row a later write of the same key in the
    #: same batch carried (a write batch launches one row per key, see
    #: :func:`repro.host.batching.fold_writes`); their hit/miss is that
    #: row's and is counted above.
    folded: int = 0
    #: ops served host-side by store-to-load forwarding, per op class —
    #: a read on a key with a queued write is answered from the pending
    #: overlay (and a write on a definitely-absent key short-circuits to
    #: a miss) instead of fragmenting the device batches.
    forwarded: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return (self.lookups + self.updates + self.deletes
                + self.inserts + self.scans)

    def tally_writes(self, payloads: list, result) -> None:
        """Count one write batch by row kind: ``(key, value)`` update
        rows and ``(key, None)`` delete rows, hits from ``result``."""
        dels = np.array([v is None for _, v in payloads], dtype=bool)
        misses = ~result.found_array
        n_del = int(np.count_nonzero(dels))
        del_misses = int(np.count_nonzero(misses & dels))
        self.updates += len(payloads) - n_del
        self.deletes += n_del
        self.update_misses += int(np.count_nonzero(misses)) - del_misses
        self.delete_misses += del_misses


def split_op(kind: str, payload) -> tuple:
    """``(key, value)`` of one stream op, validated alike for both front
    doors: ``lookup`` / ``delete`` payloads are keys, ``update`` /
    ``insert`` payloads ``(key, value)`` pairs and a ``scan`` payload is
    a ``(lo, hi)`` range.  An update's value may not be None: that marks
    a delete row in a write batch."""
    if kind == "lookup" or kind == "delete":
        return payload, None
    if kind == "update" or kind == "insert":
        key, value = payload
        if value is None and kind == "update":
            raise InvalidOperationError(f"update of {key!r} needs a value")
        return key, value
    if kind == "scan":
        if not (isinstance(payload, (tuple, list)) and len(payload) == 2):
            raise InvalidOperationError(f"malformed scan payload {payload!r}")
        return payload[0], payload[1]
    raise InvalidOperationError(f"unknown operation {kind!r}")


class Lane:
    """One device's share of a :class:`BatchPipeline`: the device's
    engine (a :class:`~repro.host.sharding.ShardedEngine`'s shard, or
    the engine itself) and its own coalescer, pending-write overlay,
    memtable and queue of flight records.  Routing is per key, so a
    key conflict only ever cuts its own lane's batches and every launch
    runs on one device."""

    __slots__ = ("index", "shard", "engine", "coal", "reasons_before",
                 "memtable", "overlay", "fr_queued")

    def __init__(self, index: int, shard, engine, batch_size: int,
                 memtable) -> None:
        self.index = index
        #: shard id stamped onto flight records (None on one device).
        self.shard = shard
        self.engine = engine
        # the device's own (on a ShardedEngine, shard-labeled) registry
        self.coal = OpClassCoalescer(batch_size, metrics=engine.metrics)
        self.reasons_before = self.coal.flush_reasons()
        self.memtable = None
        if memtable is not None:
            self.memtable = Memtable(
                engine, MemtableConfig() if memtable is True else memtable,
                metrics=engine.metrics,
            )
        self.overlay = (
            self.memtable.delta if self.memtable is not None
            else WriteOverlay(engine.contains)
        )
        #: per class, the flight records of its queued ops in queue
        #: order (None where sampled out): a flushed batch of n ops
        #: owns the first n.
        self.fr_queued: dict = {}


class BatchPipeline:
    """One batch pipeline over one engine (see the module docstring).

    The pipeline keeps one :class:`Lane` per device: each shard of a
    :class:`~repro.host.sharding.ShardedEngine`, or the engine itself.
    Per op, :meth:`_route` picks the key's lane
    (:meth:`~repro.host.sharding.ShardRouter.shard_of`, recording heat)
    and answers the op host-side or queues it there; per coalescer
    flush group, :meth:`_dispatch_group` sends each device launch
    through :meth:`_dispatch` to its lane's engine, which submits it,
    tallies the report, stamps flight records and records each class's
    host wall time; :meth:`_maybe_compact` launches a lane's queued
    lookups before its compaction installs (no other device can observe
    that install); :meth:`flush` dispatches everything queued, installs
    every memtable and closes the simulated stream window, whose
    makespan on several devices is the slowest one's.

    This class is also the offline door: :meth:`run` queues light
    entries — ``(key, seq)`` for a lookup (``seq`` indexes the results),
    the ``(key, value)`` device row for an update or insert and
    ``(key, None)`` for a delete — closes batches on size, key conflict
    and drain only, and sheds nothing.
    :class:`~repro.serve.core.ServerCore` queues ``ServedOp`` objects
    instead: it overrides :meth:`_rows`, :meth:`_complete` and
    :meth:`run`, and admits ops through :meth:`_admit`.
    """

    #: admission hook ``entry -> bool``; a refused op is not queued.
    #: None here: the offline door admits every op.
    _admit = None

    def __init__(self, engine, batch_size: int, memtable=None) -> None:
        # deferred: repro.host.sharding imports this module
        from repro.host.sharding import ShardedEngine

        require_serving_engine(engine)
        self.engine = engine
        #: the engine's observability surface: pipeline, engine, cache
        #: and write-kernel series land in one registry snapshot.
        self.metrics = engine.metrics
        self.tracer = engine.tracer
        self.flight = engine.flight
        self.report = MixedReport()
        sharded = isinstance(engine, ShardedEngine)
        self._router = engine.router if sharded else None
        #: one :class:`Lane` per device, in shard order.
        self.lanes = [
            Lane(i, i if sharded else None, dev, batch_size, memtable)
            for i, dev in enumerate(engine.shards if sharded else [engine])
        ]
        self._lane = self.lanes[0]
        one = len(self.lanes) == 1
        #: :class:`~repro.host.memtable.Memtable` when write absorption
        #: is on (a :class:`~repro.host.memtable.MemtableConfig`, or
        #: ``True`` for the defaults): writes ack host-side in O(1) and
        #: merge-compact into the device; the overlay is its delta.
        #: Both belong to one device: on several, each lane holds its
        #: own and these are None.
        self.memtable = self._lane.memtable if one else None
        self.overlay = self._lane.overlay if one else None
        #: StreamOverlapStats of the closed stream windows (with their
        #: event timelines, for repro.obs.critical_path.attribute_stats).
        self.overlap = None
        #: hoisted, so the disabled flight path costs one truthiness
        #: check per op (NULL_FLIGHT_RECORDER allocates nothing).
        self._fl_on = self.flight.enabled
        self._m_latency = self.metrics.histogram(
            "mixed_op_latency_us",
            "host wall-clock per row of each batch the pipeline ran",
            labels=("op",),
        )
        self._m_forwarded = self.metrics.counter(
            "mixed_forwarded_total",
            "ops answered host-side by store-to-load forwarding",
            labels=("op",),
        )

    # -- the offline door ------------------------------------------------

    def run(self, stream) -> tuple[list, MixedReport]:
        """Execute one stream; returns (lookup results in stream order,
        report)."""
        results = self._results = []
        route = self._route
        for kind, payload in stream:
            # lookup and delete payloads are bare keys; split_op
            # validates every other kind
            if kind == "lookup":
                results.append(None)
                ans = route(kind, payload, None, (payload, len(results) - 1))
                if ans is not None:
                    results[-1] = ans[1]
            elif kind == "delete":
                route(kind, payload, None, (payload, None))
            else:
                key, value = split_op(kind, payload)
                if kind == "scan":
                    self._scan(key, value)
                else:
                    route(kind, key, value, payload)
        self.flush()
        return results, self.report_snapshot()

    def _rows(self, kind: str, entries: list) -> list:
        """Device rows of one flushed batch's queued entries."""
        return [e[0] for e in entries] if kind == "lookup" else entries

    def _complete(self, kind: str, entries: list, res) -> None:
        """Hand a dispatched batch's outcomes back to its ops: here,
        lookup values into the run's results."""
        if kind == "lookup":
            results = self._results
            for (_, seq), v in zip(entries, res.to_list()):
                results[seq] = v

    # -- per op ----------------------------------------------------------

    def _route(self, kind: str, key, value, entry):
        """Route one ``lookup`` / ``update`` / ``delete`` / ``insert`` to
        its key's lane; returns ``(found, value)`` when it was answered
        host-side, else None (queued, or refused by :meth:`_admit`)."""
        router = self._router
        lane = (self._lane if router is None
                else self.lanes[router.shard_of(key, record=True)])
        mt = lane.memtable
        overlay = lane.overlay
        if kind == "lookup":
            st = overlay.entries.get(key)
            if st is not None:
                ans = overlay.resolve_read(key, st)
                self._answer(lane, kind, key, ans[0], absorbed=False)
                return ans
            if self._admit is not None and not self._admit(entry):
                return None
        elif mt is not None:
            # absorbed: acked here, its folded device row rides a
            # background compaction batch; never queued, never shed
            if kind == "update":
                ok = mt.absorb_update(key, value)
            elif kind == "delete":
                ok = mt.absorb_delete(key)
            else:
                mt.absorb_insert(key, value)
                ok = True
            self._answer(lane, kind, key, ok, absorbed=True)
            self._maybe_compact(lane)
            return _HIT if ok else _MISS
        else:
            if kind != "insert":
                st = overlay.entries.get(key)
                if st is not None and st[0] == "absent":
                    # definitely gone (pending delete): a guaranteed
                    # miss, and updates never resurrect
                    self._answer(lane, kind, key, False, absorbed=False)
                    return _MISS
            # only non-mutating probes run before admission: a refused
            # op leaves no pending effect behind
            if self._admit is not None and not self._admit(entry):
                return None
            if kind == "update":
                overlay.note_update(key, value)
            elif kind == "delete":
                overlay.note_delete(key)
            else:
                overlay.note_insert(key, value)
        if self._fl_on:
            lane.fr_queued.setdefault(OP_CLASS.get(kind, kind), []).append(
                self.flight.begin(kind, key, lane.shard))
        self._dispatch_group(lane, lane.coal.add(kind, key, entry))
        return None

    def _answer(self, lane: Lane, kind: str, key, found: bool, *,
                absorbed: bool) -> None:
        """Account one op answered host-side: forwarded from the
        overlay (or a write short-circuited to a miss), or absorbed by
        the memtable."""
        rep = self.report
        if kind == "lookup":
            rep.lookups += 1
            if found:
                rep.hits += 1
            else:
                rep.misses += 1
        elif kind == "update":
            rep.updates += 1
            if not found:
                rep.update_misses += 1
        elif kind == "delete":
            rep.deletes += 1
            if not found:
                rep.delete_misses += 1
        else:
            rep.inserts += 1
        by = rep.ops_by_status
        name = "OK" if found else "NOT_FOUND"
        by[name] = by.get(name, 0) + 1
        tally = rep.absorbed if absorbed else rep.forwarded
        tally[kind] = tally.get(kind, 0) + 1
        if not absorbed:
            self._m_forwarded.labels(op=kind).inc()
        if self._fl_on:
            rec = self.flight.begin(kind, key, lane.shard)
            if rec is not None:
                if absorbed:
                    self.flight.complete_absorbed(rec, found)
                else:
                    self.flight.complete_forwarded(rec, found)

    # -- per batch -------------------------------------------------------

    def _dispatch_group(self, lane: Lane, group) -> int:
        """Run one of ``lane``'s coalescer flush groups in order; a
        lookup batch followed directly by a write batch goes out as one
        device launch.  Returns the number of ops dispatched."""
        n = 0
        i = 0
        while i < len(group):
            kind, entries = group[i]
            if (kind == "lookup" and i + 1 < len(group)
                    and group[i + 1][0] == "write"):
                writes = group[i + 1][1]
                self._dispatch(lane, "write", writes, lookups=entries)
                n += len(entries) + len(writes)
                i += 2
            else:
                self._dispatch(lane, kind, entries)
                n += len(entries)
                i += 1
        return n

    def _dispatch(self, lane: Lane, kind: str, entries: list,
                  lookups=None) -> None:
        """Run one device launch on ``lane`` and account it: one flushed
        class batch (``lookup`` / ``write`` / ``insert``; a write batch's
        rows are ``(key, value)`` updates and ``(key, None)`` deletes),
        or with ``lookups`` a lookup batch and the write batch flushed
        directly after it.  Their launch runs the lookups as stage 0,
        ahead of the writes, so they read what a lookup launch sent
        first would (:meth:`repro.host.engine.CuartEngine.submit`).
        Each class is accounted with its own host time: the lookups' row
        preparation and settling plus the engine's measured host time on
        their rows, and the write batch the rest of the dispatch."""
        t0 = time.perf_counter()
        td = self.flight.now_us() if self._fl_on else 0.0
        n = len(entries)
        lookup_s = 0.0
        l_rows = None
        if lookups is not None:
            l_rows = self._rows("lookup", lookups)
            lookup_s = time.perf_counter() - t0
        rows = self._rows(kind, entries)
        back = None
        dev_rows = rows
        if kind == "write":
            # one device row per key; each op reads its key's outcome
            dev_rows, back = fold_writes(rows)
            self.report.folded += n - len(dev_rows)
        res = self._submit(lane, kind, dev_rows, f"mixed.{kind}",
                           lookups=l_rows)
        self._launched(lane, n + (len(lookups) if lookups is not None else 0))
        if lookups is not None:
            lres, res = res
            t1 = time.perf_counter()
            self._settle(lane, "lookup", lookups, l_rows, lres, td)
            lookup_s += lres.summary["host_s"] + time.perf_counter() - t1
            self._account("lookup", len(lookups), lookup_s)
        if back is not None:
            res = res.take(back)
        self._settle(lane, kind, entries, rows, res, td)
        self._account(kind, n, time.perf_counter() - t0 - lookup_s)

    def _launched(self, lane: Lane, n: int) -> None:
        """Hook: one foreground launch carrying ``n`` ops was just
        submitted on ``lane``'s device (the server's virtual device
        cursor for it advances here)."""

    def _settle(self, lane: Lane, kind: str, entries: list, rows: list,
                res, td: float) -> None:
        """Tally one dispatched class batch into the report, hand its
        outcomes to its ops and stamp their flight records."""
        rep = self.report
        n = len(entries)
        if kind == "lookup":
            hits = int(np.count_nonzero(res.found_array))
            rep.lookups += n
            rep.hits += hits
            rep.misses += n - hits
        elif kind == "write":
            rep.tally_writes(rows, res)
        else:
            rep.inserts += n
            rep.inserts_deferred += res.summary["deferred"]
        by = rep.ops_by_status
        for name, c in res.counts_by_status().items():
            by[name] = by.get(name, 0) + c
        self._complete(kind, entries, res)
        if self._fl_on:
            queued = lane.fr_queued.get(kind)
            recs = []
            for i, rec in enumerate(queued[:n]):
                if rec is not None:
                    rec.queue_pos = i
                    recs.append(rec)
            del queued[:n]
            if recs:
                self.flight.complete(
                    recs, batch_id=lane.coal.batches_flushed,
                    t_dispatch_us=td,
                    statuses=[_STATUS_NAMES[int(c)] for c in res.status],
                    attempts=res.attempts, sim_events=lane.engine.last_events,
                    batch_size=n,
                )

    def _submit(self, lane: Lane, kind: str, rows: list, span: str,
                lookups=None):
        """Submit one launch to ``lane``'s engine's stream pipeline (with
        ``lookups``, a lookup batch riding a write batch: returns both
        results)."""
        eng = lane.engine
        with eng.tracer.span(span, {"n": len(rows)}):
            if lookups is None:
                return eng.submit(kind, rows)
            return eng.submit(kind, rows, lookups=lookups)

    def _account(self, label: str, n: int, dt: float) -> None:
        """Count one batch of ``n`` rows and its host wall time."""
        rep = self.report
        rep.batches += 1
        rep.batches_by_op[label] = rep.batches_by_op.get(label, 0) + 1
        rep.wall_s[label] = rep.wall_s.get(label, 0.0) + dt
        self._m_latency.labels(op=label).observe(dt / n * 1e6, n)

    def _compact_dispatch(self, lane: Lane, kind: str, rows: list):
        """Scatter one folded compaction batch on ``lane``: it rides the
        stream pipeline like any flush, but its ops' outcomes were
        tallied at absorb time."""
        t0 = time.perf_counter()
        res = self._submit(lane, kind, rows, f"mixed.compact.{kind}")
        if kind == "insert":
            self.report.inserts_deferred += res.summary["deferred"]
        self._account(f"compact-{kind}", len(rows), time.perf_counter() - t0)
        return res

    def _maybe_compact(self, lane: Lane, force: bool = False) -> None:
        mt = lane.memtable
        if mt is not None and (force or mt.should_compact()):
            # the lane's queued lookups launch first, so they read the
            # state before the install, as a serial run does
            self._dispatch_all(lane)
            hook = partial(self._compact_dispatch, lane)
            if mt.compact(hook, force=force) is not None:
                self.report.compactions += 1

    def _scan(self, lo, hi) -> list:
        """A range touches an unbounded key set: a full barrier over
        every lane, then the engine's range query (on a
        :class:`~repro.host.sharding.ShardedEngine`, every shard's,
        merged in key order).  The range reads the device layout, so
        :meth:`flush` installs every absorbed write first (correctness
        over cost)."""
        self.flush()
        t0 = time.perf_counter()
        rec = self.flight.begin("scan", lo) if self._fl_on else None
        td = self.flight.now_us() if rec is not None else 0.0
        with self.tracer.span("mixed.scan", {"n": 1}):
            rows = self.engine.range(lo, hi)
        rep = self.report
        rep.scans += 1
        rep.records_scanned += len(rows)
        rep.ops_by_status["OK"] = rep.ops_by_status.get("OK", 0) + 1
        if rec is not None:
            rec.queue_pos = 0
            self.flight.complete(
                [rec], t_dispatch_us=td, batch_size=1,
                batch_id=sum(lane.coal.batches_flushed
                             for lane in self.lanes),
            )
        self._account("scan", 1, time.perf_counter() - t0)
        return rows

    # -- drain -----------------------------------------------------------

    def _dispatch_all(self, lane: Lane) -> int:
        return self._dispatch_group(lane, lane.coal.drain())

    def flush(self) -> int:
        """Dispatch everything queued (end of stream, scan barrier,
        shutdown), install every absorbed write into the device layout
        and close the simulated stream window; returns the number of
        queued ops dispatched."""
        n = 0
        for lane in self.lanes:
            n += self._dispatch_all(lane)
            self._maybe_compact(lane, force=True)
        window = self.engine.drain()
        if self.overlap is None:
            self.overlap = window
        else:
            self.overlap.add_window(window)
        self.report.stream_overlap = self.overlap.as_dict()
        return n

    def report_snapshot(self) -> MixedReport:
        """The :class:`MixedReport`, with the per-class latency
        summaries and the flush-reason delta filled in.  The summaries
        read the registry histograms, which are cumulative over the
        engine's lifetime (Prometheus semantics)."""
        rep = self.report
        for label in rep.wall_s:
            rep.latency_percentiles_by_op[label] = self.metrics.value(
                "mixed_op_latency_us", op=label)
        reasons: dict = {}
        for lane in self.lanes:
            before = lane.reasons_before
            for reason, count in lane.coal.flush_reasons().items():
                reasons[reason] = (reasons.get(reason, 0) + count
                                   - before.get(reason, 0))
        rep.flush_reasons = reasons
        return rep


class MixedWorkloadExecutor:
    """The offline door: runs interleaved ``lookup`` / ``update`` /
    ``delete`` / ``insert`` / ``scan`` streams, each through a fresh
    :class:`BatchPipeline` (per device: coalescer, overlay and memtable;
    one report)."""

    def __init__(self, engine, *, memtable=None) -> None:
        require_serving_engine(engine)
        self.engine = engine
        #: write-absorption policy: ``None`` keeps the synchronous
        #: coalesced write path; a :class:`~repro.host.memtable.
        #: MemtableConfig` (or ``True`` for the defaults) absorbs writes
        #: host-side (a fresh memtable per run and device).
        self.memtable_config = memtable
        self.metrics = engine.metrics
        self.tracer = engine.tracer
        #: :class:`~repro.host.memtable.Memtable` and
        #: :class:`~repro.host.overlay.WriteOverlay` of the current/last
        #: run on one device (memtable None while disabled; both None
        #: on several devices, see :attr:`BatchPipeline.lanes`).
        self.memtable = None
        self.overlay = None
        #: StreamOverlapStats of the last run (with per-window event
        #: timelines) — feed to repro.obs.critical_path.attribute_stats.
        self.last_overlap_stats = None

    def run(self, stream) -> tuple[list, MixedReport]:
        """Execute the stream; returns (lookup results in stream order,
        report).  Batches close on size, key conflict and drain only.

        The report's :attr:`~MixedReport.latency_percentiles_by_op` reads
        the registry histograms, which are *cumulative over the engine's
        lifetime*; :attr:`~MixedReport.flush_reasons` is the per-run
        delta.
        """
        pipe = BatchPipeline(self.engine, self.engine.batch_size,
                             self.memtable_config)
        self.memtable, self.overlay = pipe.memtable, pipe.overlay
        results, report = pipe.run(stream)
        self.last_overlap_stats = pipe.overlap
        return results, report
