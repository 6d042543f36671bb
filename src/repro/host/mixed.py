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
for updates and deletes in one device launch, ``insert``).  Each
flushed batch is submitted to the engine's double-buffered stream
pipeline, its snapshot reads restated, and its outcomes tallied into a
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

import numpy as np

from repro.errors import InvalidOperationError
from repro.host.batching import OP_CLASS, OpClassCoalescer
from repro.host.memtable import Memtable, MemtableConfig
from repro.host.overlay import WriteOverlay
from repro.host.results import OpStatus

#: OpStatus code -> name.
_STATUS_NAMES = {int(s): s.name for s in OpStatus}

#: host-side ``(found, value)`` answers of a write: hit and miss.
_HIT = (True, True)
_MISS = (False, False)


def merge_percentile_summaries(cur: dict | None, other: dict | None) -> dict:
    """Merge two histogram summary dicts (count/mean/p50/p95/p99/min/max)
    as count-weighted means — an estimate, exact only when the two
    distributions match — with exact count/min/max."""
    if not cur or not cur.get("count"):
        return dict(other or {})
    if not other or not other.get("count"):
        return dict(cur)
    n1, n2 = cur["count"], other["count"]
    total = n1 + n2
    merged = {"count": total}
    for k in ("mean", "p50", "p95", "p99"):
        if k in cur and k in other:
            merged[k] = (cur[k] * n1 + other[k] * n2) / total
    if "min" in cur and "min" in other:
        merged["min"] = min(cur["min"], other["min"])
    if "max" in cur and "max" in other:
        merged["max"] = max(cur["max"], other["max"])
    return merged


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
    #: end-to-end simulated MOps/s per op type (last batch of each).
    simulated_mops: dict = field(default_factory=dict)
    #: measured host wall-clock seconds of the pipeline's batches, per
    #: batch class (``lookup`` / ``write`` / ``insert`` / ``scan`` and
    #: ``compact-*`` compaction batches).
    wall_s: dict = field(default_factory=dict)
    #: per-class summaries of that wall time per row, from the
    #: ``mixed_op_latency_us`` histograms — one entry per
    #: :attr:`wall_s` class (``{"lookup": {"count", "mean", "p50",
    #: "p95", "p99", ...}, ...}``).
    latency_percentiles_by_op: dict = field(default_factory=dict)
    #: batches cut per flush reason during this run
    #: (``size-full`` / ``write-dependency`` / ``drain``).
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
    #: vs pipelined makespan, seconds hidden by double-buffering.
    stream_overlap: dict = field(default_factory=dict)
    #: ops served host-side by store-to-load forwarding, per op class —
    #: a read on a key with a queued write is answered from the pending
    #: overlay (and a write on a definitely-absent key short-circuits to
    #: a miss) instead of fragmenting the device batches.
    forwarded: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return (self.lookups + self.updates + self.deletes
                + self.inserts + self.scans)

    def mean_latency_us(self, kind: str) -> float:
        """Measured mean host latency per operation of one class, in
        microseconds (0.0 if that class never ran)."""
        count = {
            "lookup": self.lookups, "update": self.updates,
            "delete": self.deletes, "insert": self.inserts,
            "scan": self.scans, "write": self.updates + self.deletes,
        }[kind]
        if not count:
            return 0.0
        return self.wall_s.get(kind, 0.0) / count * 1e6

    _COUNT_FIELDS = (
        "lookups", "updates", "deletes", "inserts", "scans", "hits",
        "misses", "update_misses", "delete_misses", "inserts_deferred",
        "records_scanned", "batches", "compactions",
    )
    _SUM_DICTS = (
        "batches_by_op", "wall_s", "flush_reasons", "ops_by_status",
        "forwarded", "absorbed",
    )

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

    def merge(self, other: "MixedReport", *, concurrent: bool = True) -> None:
        """Fold another report into this one.

        ``concurrent=True`` means the two runs shared the same simulated
        interval on independent devices (one shard each), so the
        combined :attr:`stream_overlap` makespan is the max of the two
        and stream counts add; ``concurrent=False`` means the runs were
        sequential (e.g. segments separated by a scan barrier), so
        makespans add.  Latency percentiles are merged as count-weighted
        means — an estimate, exact only when the distributions match —
        with exact count/min/max.
        """
        for name in self._COUNT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self._SUM_DICTS:
            mine = getattr(self, name)
            for k, v in getattr(other, name).items():
                mine[k] = mine.get(k, 0) + v
        # per-op simulated throughput records the *last* batch of each
        # class; across shards keep the best observed rate per class
        for k, v in other.simulated_mops.items():
            self.simulated_mops[k] = max(self.simulated_mops.get(k, 0.0), v)
        for op, s in other.latency_percentiles_by_op.items():
            self.latency_percentiles_by_op[op] = merge_percentile_summaries(
                self.latency_percentiles_by_op.get(op), s
            )
        so, oo = self.stream_overlap, other.stream_overlap
        if not so:
            self.stream_overlap = dict(oo)
        elif oo:
            serial = so.get("serial_s", 0.0) + oo.get("serial_s", 0.0)
            if concurrent:
                makespan = max(so.get("makespan_s", 0.0),
                               oo.get("makespan_s", 0.0))
                streams = so.get("streams", 0) + oo.get("streams", 0)
            else:
                makespan = (so.get("makespan_s", 0.0)
                            + oo.get("makespan_s", 0.0))
                streams = max(so.get("streams", 0), oo.get("streams", 0))
            saved = max(serial - makespan, 0.0)
            self.stream_overlap = {
                "batches": so.get("batches", 0) + oo.get("batches", 0),
                "streams": streams,
                "serial_s": round(serial, 9),
                "makespan_s": round(makespan, 9),
                "saved_s": round(saved, 9),
                "overlap_ratio": round(saved / serial, 4) if serial else 0.0,
            }


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


class BatchPipeline:
    """One batch pipeline over one engine (see the module docstring).

    Per op, :meth:`_route` answers it host-side or queues it; per
    flushed batch, :meth:`_dispatch` submits it, restates snapshot
    reads, tallies the report, stamps flight records and records host
    wall time; :meth:`flush` dispatches everything queued, installs the
    memtable and closes the simulated stream window.

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

    def __init__(self, engine, batch_size: int, memtable=None, *,
                 shard=None) -> None:
        self.engine = engine
        #: the engine's observability surface: pipeline, engine, cache
        #: and write-kernel series land in one registry snapshot.
        self.metrics = engine.metrics
        self.tracer = engine.tracer
        self.flight = engine.flight
        #: shard id stamped onto flight records (None on one device).
        self.shard = shard
        self.report = MixedReport()
        self._coal = OpClassCoalescer(batch_size, metrics=self.metrics)
        self._reasons_before = self._coal.flush_reasons()
        #: :class:`~repro.host.memtable.Memtable` when write absorption
        #: is on (a :class:`~repro.host.memtable.MemtableConfig`, or
        #: ``True`` for the defaults): writes ack host-side in O(1) and
        #: merge-compact into the device; the overlay is its delta.
        self.memtable = None
        if memtable is not None:
            self.memtable = Memtable(
                engine, MemtableConfig() if memtable is True else memtable,
                metrics=self.metrics,
            )
        self.overlay = (
            self.memtable.delta if self.memtable is not None
            else WriteOverlay(engine.contains)
        )
        #: snapshot pinned by the oldest queued device lookup (None
        #: while no lookup is queued): every lookup batch answers at ONE
        #: memtable epoch, and releases it at its dispatch.
        self._read_snap = None
        #: StreamOverlapStats of the closed stream windows (with their
        #: event timelines, for repro.obs.critical_path.attribute_stats).
        self.overlap = None
        #: hoisted, so the disabled flight path costs one truthiness
        #: check per op (NULL_FLIGHT_RECORDER allocates nothing).
        self._fl_on = self.flight.enabled
        #: per class, the flight records of its queued ops in queue
        #: order (None where sampled out): a flushed batch of n ops
        #: owns the first n.
        self._fr_queued: dict = {}
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

    def _complete(self, kind: str, entries: list, res, values,
                  restated) -> None:
        """Hand a dispatched batch's outcomes back to its ops: here,
        lookup values into the run's results."""
        if kind == "lookup":
            results = self._results
            for (_, seq), v in zip(entries, values):
                results[seq] = v

    # -- per op ----------------------------------------------------------

    def _route(self, kind: str, key, value, entry):
        """Route one ``lookup`` / ``update`` / ``delete`` / ``insert``;
        returns ``(found, value)`` when it was answered host-side, else
        None (queued, or refused by :meth:`_admit`)."""
        mt = self.memtable
        overlay = self.overlay
        if kind == "lookup":
            st = overlay.entries.get(key)
            if st is not None:
                ans = overlay.resolve_read(key, st)
                self._answer(kind, key, ans[0], absorbed=False)
                return ans
            if self._admit is not None and not self._admit(entry):
                return None
            if mt is not None:
                # a queued lookup batch is pinned to ONE layout epoch: if
                # a compaction installed since it pinned, dispatch it at
                # its own epoch (the snapshot's shield keeps its answers
                # exact) before this read opens a window on the new one
                snap = self._read_snap
                if snap is not None and snap.epoch != mt.epoch:
                    self._dispatch_all()
                if self._read_snap is None:
                    self._read_snap = mt.pin()
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
            self._answer(kind, key, ok, absorbed=True)
            self._maybe_compact()
            return _HIT if ok else _MISS
        else:
            if kind != "insert":
                st = overlay.entries.get(key)
                if st is not None and st[0] == "absent":
                    # definitely gone (pending delete): a guaranteed
                    # miss, and updates never resurrect
                    self._answer(kind, key, False, absorbed=False)
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
            self._fr_queued.setdefault(OP_CLASS.get(kind, kind), []).append(
                self.flight.begin(kind, key, self.shard))
        for k, ps in self._coal.add(kind, key, entry):
            self._dispatch(k, ps)
        return None

    def _answer(self, kind: str, key, found: bool, *, absorbed: bool
                ) -> None:
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
            rec = self.flight.begin(kind, key, self.shard)
            if rec is not None:
                if absorbed:
                    self.flight.complete_absorbed(rec, found)
                else:
                    self.flight.complete_forwarded(rec, found)

    # -- per batch -------------------------------------------------------

    def _dispatch(self, kind: str, entries: list) -> None:
        """Run one flushed class batch (``lookup`` / ``write`` /
        ``insert``) through the device and account it; a write batch's
        rows are ``(key, value)`` updates and ``(key, None)`` deletes."""
        t0 = time.perf_counter()
        td = self.flight.now_us() if self._fl_on else 0.0
        rep = self.report
        n = len(entries)
        rows = self._rows(kind, entries)
        res = self._submit(kind, rows, f"mixed.{kind}")
        values = restated = None
        if kind == "lookup":
            values, restated = self._restate(rows, res)
            hits = (sum(1 for v in values if v is not None) if restated
                    else int(np.count_nonzero(res.found_array)))
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
        if restated:
            # answered from the pinned snapshot, not the device
            codes = res.status
            for i, found in restated.items():
                old = _STATUS_NAMES[int(codes[i])]
                new = "OK" if found else "NOT_FOUND"
                by[old] -= 1
                by[new] = by.get(new, 0) + 1
        self._complete(kind, entries, res, values, restated)
        if self._fl_on:
            queued = self._fr_queued.get(kind)
            recs = []
            for i, rec in enumerate(queued[:n]):
                if rec is not None:
                    rec.queue_pos = i
                    recs.append(rec)
            del queued[:n]
            if recs:
                self._stamp(recs, td, res, n)
        self._account(kind, n, time.perf_counter() - t0)

    def _submit(self, kind: str, rows: list, span: str):
        """Submit one batch to the engine's stream pipeline; records the
        class's simulated end-to-end rate."""
        with self.tracer.span(span, {"n": len(rows)}):
            res = self.engine.submit(kind, rows)
        last = self.engine.last_report
        if last is not None:
            self.report.simulated_mops[kind] = last.end_to_end_mops
        return res

    def _restate(self, keys: list, res) -> tuple[list, dict]:
        """A lookup batch's values, restated at the batch's snapshot
        epoch: if a compaction installed newer writes since the batch
        pinned, their keys answer from the snapshot's shield / pinned
        delta.  Returns ``(values, {index: found})`` of the restated
        rows."""
        values = res.to_list()
        restated: dict = {}
        snap = self._read_snap
        if snap is None:
            return values, restated
        self._read_snap = None
        shield, pinned = snap.shield, snap.pinned
        if shield or pinned:
            values = list(values)
            for i, key in enumerate(keys):
                ent = shield.get(key)
                if ent is None:
                    pe = pinned.get(key)
                    if pe is not None:
                        ent = (pe[0] != "absent", pe[1])
                if ent is not None:
                    restated[i] = ent[0]
                    values[i] = ent[1] if ent[0] else None
        snap.release()
        return values, restated

    def _stamp(self, recs: list, td: float, res, n: int) -> None:
        """Stamp a batch's sampled flight records with dispatch time,
        status/attempts and the simulated device-stage timeline."""
        statuses = attempts = events = None
        if res is not None:
            statuses = [_STATUS_NAMES[int(c)] for c in res.status]
            attempts = res.attempts
            events = getattr(self.engine, "last_events", None)
        self.flight.complete(
            recs, batch_id=self._coal.batches_flushed, t_dispatch_us=td,
            statuses=statuses, attempts=attempts, sim_events=events,
            batch_size=n,
        )

    def _account(self, label: str, n: int, dt: float) -> None:
        """Count one batch of ``n`` rows and its host wall time."""
        rep = self.report
        rep.batches += 1
        rep.batches_by_op[label] = rep.batches_by_op.get(label, 0) + 1
        rep.wall_s[label] = rep.wall_s.get(label, 0.0) + dt
        self._m_latency.labels(op=label).observe(dt / n * 1e6, n)

    def _compact_dispatch(self, kind: str, rows: list):
        """Scatter one folded compaction batch: it rides the stream
        pipeline like any flush, but its ops' outcomes were tallied at
        absorb time."""
        t0 = time.perf_counter()
        res = self._submit(kind, rows, f"mixed.compact.{kind}")
        if kind == "insert":
            self.report.inserts_deferred += res.summary["deferred"]
        self._account(f"compact-{kind}", len(rows), time.perf_counter() - t0)
        return res

    def _maybe_compact(self, force: bool = False) -> None:
        mt = self.memtable
        if mt is not None and (force or mt.should_compact()):
            if mt.compact(self._compact_dispatch, force=force) is not None:
                self.report.compactions += 1

    def _scan(self, lo, hi) -> list:
        """A range touches an unbounded key set: a full barrier, then
        the engine's range query.  The range reads the device layout,
        so :meth:`flush` installs every absorbed write first
        (correctness over cost)."""
        self.flush()
        t0 = time.perf_counter()
        rec = (self.flight.begin("scan", lo, self.shard) if self._fl_on
               else None)
        td = self.flight.now_us() if rec is not None else 0.0
        with self.tracer.span("mixed.scan", {"n": 1}):
            rows = self.engine.range(lo, hi)
        rep = self.report
        rep.scans += 1
        rep.records_scanned += len(rows)
        rep.ops_by_status["OK"] = rep.ops_by_status.get("OK", 0) + 1
        if rec is not None:
            rec.queue_pos = 0
            self._stamp([rec], td, None, 1)
        self._account("scan", 1, time.perf_counter() - t0)
        return rows

    # -- drain -----------------------------------------------------------

    def _dispatch_all(self) -> int:
        n = 0
        for k, ps in self._coal.drain():
            n += len(ps)
            self._dispatch(k, ps)
        return n

    def flush(self) -> int:
        """Dispatch everything queued (end of stream, scan barrier,
        shutdown), install every absorbed write into the device layout
        and close the simulated stream window; returns the number of
        queued ops dispatched."""
        n = self._dispatch_all()
        self._maybe_compact(force=True)
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
        rep.flush_reasons = {
            reason: count - self._reasons_before.get(reason, 0)
            for reason, count in self._coal.flush_reasons().items()
        }
        return rep


class MixedWorkloadExecutor:
    """The offline door: runs interleaved ``lookup`` / ``update`` /
    ``delete`` / ``insert`` / ``scan`` streams, each through a fresh
    :class:`BatchPipeline` (coalescer, overlay, memtable and report)."""

    def __init__(self, engine, *, shard=None, memtable=None) -> None:
        self.engine = engine
        #: shard id stamped onto flight records (set by the sharded
        #: executor; None when serving a single device).
        self.shard = shard
        #: write-absorption policy: ``None`` keeps the synchronous
        #: coalesced write path; a :class:`~repro.host.memtable.
        #: MemtableConfig` (or ``True`` for the defaults) absorbs writes
        #: host-side (a fresh memtable per run, on :attr:`memtable`).
        self.memtable_config = memtable
        self.metrics = engine.metrics
        self.tracer = engine.tracer
        #: :class:`~repro.host.memtable.Memtable` and
        #: :class:`~repro.host.overlay.WriteOverlay` of the current/last
        #: run (memtable None while disabled).
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
                             self.memtable_config, shard=self.shard)
        self.memtable, self.overlay = pipe.memtable, pipe.overlay
        results, report = pipe.run(stream)
        self.last_overlap_stats = pipe.overlap
        return results, report
