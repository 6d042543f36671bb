"""Mixed OLTP read/write execution (section 3.1's motivating scenario).

"Another problem arises when running mixed read/write workloads such as
typical OLTP benchmarks."  The executor consumes an interleaved stream
of lookups, updates, deletes and inserts (from
:func:`repro.workloads.queries.mixed_queries`) against a
:class:`~repro.host.engine.CuartEngine`, accumulating each operation
class in its own queue (:class:`repro.host.batching.OpClassCoalescer`;
updates and deletes share the ``write`` class and one device launch)
and flushing on batch-size or on an op-order dependency — a read issued
after a write to the same key observes the write, exactly like a serial
client would, but an interleaved stream no longer fragments into a tiny
device batch per op-type run.

Hit/miss tallies come straight from the batch result arrays
(:attr:`repro.host.results.BatchResult.found_array`) — no per-item
Python counting — and every result's :class:`~repro.host.results.OpStatus`
codes are accumulated into :attr:`MixedReport.ops_by_status`, so a run
under fault injection reports how many ops were retried, served by the
CPU degradation path, or failed.  Latency accounting goes through the engine's metrics
registry (:mod:`repro.obs`): per-op-class histograms
(``mixed_op_latency_us{op=...}``) carry p50/p95/p99 summaries into the
report and the BENCH JSON, the coalescer's flush-reason counters explain
the batch cuts, and each flush runs under a tracer span so a chrome
trace shows the executor → engine → simulated-kernel nesting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.host.batching import OP_CLASS, OpClassCoalescer
from repro.host.engine import CuartEngine
from repro.host.memtable import Memtable, MemtableConfig
from repro.host.overlay import WriteOverlay
from repro.host.results import OpStatus

#: OpStatus code -> name, for flight-record stamping.
_STATUS_NAMES = {int(s): s.name for s in OpStatus}
from repro.obs.flightrec import NULL_FLIGHT_RECORDER
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER


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


def _found_flags(result) -> np.ndarray:
    """Per-row found flags of one result batch: the canonical
    :attr:`~repro.host.results.BatchResult.found_array`, or the rows'
    truthiness for foreign result shapes."""
    arr = getattr(result, "found_array", None)
    if arr is not None:
        return arr
    return np.array([v is not None and v is not False for v in result],
                    dtype=bool)


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
    #: measured host wall-clock seconds spent per op class.
    wall_s: dict = field(default_factory=dict)
    #: per-op-class latency summaries from the registry histograms
    #: (``{"lookup": {"count", "mean", "p50", "p95", "p99", ...}, ...}``).
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
        misses = ~_found_flags(result)
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


def _tally_status(report: MixedReport, result, n: int) -> None:
    """Fold one result's per-op status codes into the report (foreign
    result shapes without statuses count as ``OK``)."""
    by = report.ops_by_status
    counts = getattr(result, "counts_by_status", None)
    if counts is not None:
        for name, c in counts().items():
            by[name] = by.get(name, 0) + c
    else:
        by["OK"] = by.get("OK", 0) + n


class MixedWorkloadExecutor:
    """Run interleaved ``lookup`` / ``update`` / ``delete`` / ``insert`` /
    ``scan`` streams (the YCSB-profile op set,
    :mod:`repro.workloads.ycsb`)."""

    def __init__(self, engine: CuartEngine, *, shard=None,
                 memtable=None) -> None:
        self.engine = engine
        #: shard id stamped onto flight records (set by the sharded
        #: executor; None when serving a single device).
        self.shard = shard
        #: write-absorption policy: ``None`` keeps the synchronous
        #: coalesced write path; a :class:`~repro.host.memtable.
        #: MemtableConfig` (or ``True`` for the defaults) absorbs
        #: writes host-side and merge-compacts in the background (a
        #: fresh :class:`~repro.host.memtable.Memtable` per run, on
        #: :attr:`memtable`).
        self.memtable_config = (
            MemtableConfig() if memtable is True else memtable
        )
        #: :class:`~repro.host.memtable.Memtable` of the current/last
        #: run (None while disabled); ``memtable.stats()`` carries the
        #: absorbed-ratio / compaction-debt numbers.
        self.memtable = None
        #: shares the engine's observability surface so executor, engine,
        #: cache and write-kernel series land in one registry snapshot.
        self.metrics: MetricsRegistry = getattr(
            engine, "metrics", None
        ) or MetricsRegistry()
        self.tracer = getattr(engine, "tracer", None) or NULL_TRACER
        self.flight = getattr(engine, "flight", None) or NULL_FLIGHT_RECORDER
        #: StreamOverlapStats of the last run (with per-window event
        #: timelines) — feed to repro.obs.critical_path.attribute_stats.
        self.last_overlap_stats = None
        #: :class:`~repro.host.overlay.WriteOverlay` of the current/last
        #: run (fresh per run(); snapshot() exposes pending effects).
        self.overlay = None
        self._m_latency = self.metrics.histogram(
            "mixed_op_latency_us",
            "measured host wall-clock per op through the mixed executor",
            labels=("op",),
        )
        self._m_forwarded = self.metrics.counter(
            "mixed_forwarded_total",
            "ops answered host-side by store-to-load forwarding",
            labels=("op",),
        )

    def run(self, stream) -> tuple[list, MixedReport]:
        """Execute the stream; returns (lookup results in stream order,
        report).  Lookup results align with the stream's lookup ops.

        The report's :attr:`~MixedReport.latency_percentiles_by_op` reads
        the registry histograms, which are *cumulative over the engine's
        lifetime* (Prometheus semantics); :attr:`~MixedReport.flush_reasons`
        is the per-run delta.
        """
        report = MixedReport()
        results: list = []
        engine = self.engine
        tracer = self.tracer
        latency = self._m_latency
        coal = OpClassCoalescer(engine.batch_size, metrics=self.metrics)
        reasons_before = coal.flush_reasons()
        # pipelined dispatch: engines exposing the async submit/drain
        # surface get their batches accounted against the double-buffered
        # stream scheduler (batch i+1's staging overlaps batch i's
        # kernel); results are exact either way.
        submit = getattr(engine, "submit", None)
        if getattr(engine, "drain", None) is None:
            submit = None
        overlap = None
        # flight recording: one hoisted bool keeps the disabled path at
        # a single truthiness check per op (NULL_FLIGHT_RECORDER is the
        # allocation-free NullTracer pattern).
        flight = self.flight
        fl_on = flight.enabled
        fr_begin = flight.begin
        shard = self.shard
        #: sampled records awaiting their class queue's flush, in queue
        #: order (only sampled ops appear, so never count-match these
        #: against payload lists — records carry their queue_pos).
        pending_fr: dict = {}
        #: records whose batch already flushed, keyed by the flushed
        #: payload list's id (popped by execute immediately after).
        batch_fr: dict = {}

        def fr_enqueue(kind: str, key, payload_obj, batches) -> None:
            """Create this op's record (sampling permitting) and migrate
            records of any just-flushed class queues onto their payload
            lists, so execute() can stamp them."""
            rec = fr_begin(kind, key, shard)
            placed = rec is None
            cls = OP_CLASS.get(kind, kind)
            for k, ps in batches:
                moved = pending_fr.pop(k, None)
                mine = (
                    not placed and k == cls and ps and ps[-1] is payload_obj
                )
                if moved or mine:
                    tgt = batch_fr.setdefault(id(ps), [])
                    if moved:
                        tgt.extend(moved)
                    if mine:
                        # the op that triggered the size-full flush rides
                        # in the returned batch itself
                        rec.queue_pos = len(ps) - 1
                        tgt.append(rec)
                        placed = True
            if not placed:
                rec.queue_pos = coal.queue_len(cls) - 1
                pending_fr.setdefault(cls, []).append(rec)

        def fr_complete(kind: str, payloads: list, res, td: float) -> None:
            """Stamp the batch's sampled records with dispatch time,
            status/attempts and the simulated device-stage timeline."""
            recs = batch_fr.pop(id(payloads), None)
            pend = pending_fr.pop(kind, None)
            if pend:
                recs = recs + pend if recs else pend
            if not recs:
                return
            statuses = attempts = None
            if res is not None:
                codes = getattr(res, "status", None)
                if codes is not None:
                    statuses = [
                        _STATUS_NAMES.get(int(c), str(c)) for c in codes
                    ]
                attempts = getattr(res, "attempts", None)
            flight.complete(
                recs, batch_id=coal.batches_flushed, t_dispatch_us=td,
                statuses=statuses, attempts=attempts,
                sim_events=getattr(engine, "last_events", None),
                batch_size=len(payloads),
            )

        def dispatch(kind: str, payloads: list):
            if submit is not None:
                return submit(kind, payloads)
            return getattr(engine, kind)(payloads)

        def close_window() -> None:
            """Drain the stream pipeline (scan barrier / end of stream)
            and fold the window's overlap stats into the report."""
            nonlocal overlap
            if submit is None:
                return
            window = engine.drain()
            if overlap is None:
                overlap = window
            else:
                overlap.add_window(window)

        def execute(kind: str, payloads: list) -> None:
            """Dispatch one flushed class batch (``lookup`` / ``write`` /
            ``insert`` / ``scan``) and account its per-op outcomes."""
            nonlocal read_snap
            t0 = time.perf_counter()
            res = None
            td = flight.now_us() if fl_on else 0.0
            with tracer.span(f"mixed.{kind}", {"n": len(payloads)}):
                if kind == "lookup":
                    values = res = dispatch(
                        "lookup", [p[0] for p in payloads]
                    )
                    vals = list(values)
                    flips: list = []
                    if read_snap is not None:
                        # snapshot reads: the batch pinned the layout
                        # epoch its first lookup was enqueued on; if a
                        # debt-triggered compaction installed newer
                        # writes since, restate those keys from the
                        # snapshot's shield / pinned delta
                        snap = read_snap
                        read_snap = None
                        shield, pinned = snap.shield, snap.pinned
                        if shield or pinned:
                            for i, (key, _) in enumerate(payloads):
                                ent = shield.get(key)
                                if ent is None:
                                    pe = pinned.get(key)
                                    if pe is not None:
                                        ent = (pe[0] != "absent", pe[1])
                                if ent is not None:
                                    found, val = ent
                                    dev_found = vals[i] is not None
                                    if dev_found != found:
                                        flips.append(found)
                                    vals[i] = val if found else None
                        snap.release()
                    for (_, seq), v in zip(payloads, vals):
                        results[seq] = v
                    report.lookups += len(payloads)
                    hits = sum(1 for v in vals if v is not None)
                    report.hits += hits
                    report.misses += len(payloads) - hits
                    _tally_status(report, values, len(payloads))
                    for found in flips:
                        by = report.ops_by_status
                        dec = "NOT_FOUND" if found else "OK"
                        inc = "OK" if found else "NOT_FOUND"
                        by[dec] = by.get(dec, 0) - 1
                        by[inc] = by.get(inc, 0) + 1
                elif kind == "write":
                    res = dispatch("write", payloads)
                    report.tally_writes(payloads, res)
                    _tally_status(report, res, len(payloads))
                elif kind == "insert":
                    out = res = dispatch("insert", payloads)
                    report.inserts += len(payloads)
                    summary = getattr(out, "summary", None)
                    report.inserts_deferred += (
                        summary["deferred"] if summary is not None
                        else out["deferred"]
                    )
                    _tally_status(report, out, len(payloads))
                elif kind == "scan":
                    for lo, hi in payloads:
                        rows = engine.range(lo, hi)
                        report.records_scanned += len(rows)
                    report.scans += len(payloads)
                    _tally_status(report, None, len(payloads))
            if fl_on:
                fr_complete(kind, payloads, res, td)
            dt = time.perf_counter() - t0
            report.batches += 1
            report.batches_by_op[kind] = report.batches_by_op.get(kind, 0) + 1
            report.wall_s[kind] = report.wall_s.get(kind, 0.0) + dt
            n = len(payloads)
            latency.labels(op=kind).observe(dt / n * 1e6, n)
            if engine.last_report is not None:
                report.simulated_mops[kind] = (
                    engine.last_report.end_to_end_mops
                )

        # Store-to-load forwarding through the engine-level pending-write
        # overlay (repro.host.overlay): a lookup on an overlaid key is
        # answered host-side — exactly what a serial client would see —
        # instead of forcing a dependency cut through the coalescer, and
        # a write against a definitely-absent key short-circuits to a
        # miss without any device work.
        #
        # With the memtable enabled (repro.host.memtable) the overlay IS
        # the memtable's delta: writes absorb host-side in O(1) instead
        # of queueing, and their folded device rows ride background
        # merge-compaction batches; reads keep the same one-dict-probe
        # forwarding path over the shared delta.
        mt = None
        if self.memtable_config is not None \
                and getattr(engine, "contains", None) is not None:
            mt = Memtable(
                engine, self.memtable_config, metrics=self.metrics
            )
        self.memtable = mt
        overlay = self.overlay = (
            mt.delta if mt is not None
            else WriteOverlay(getattr(engine, "contains", None))
        )
        #: snapshot pinned by the oldest queued device lookup (None
        #: while no lookup is in flight); released at its batch flush.
        read_snap = None

        def compact_dispatch(kind: str, payloads: list):
            """Scatter one folded compaction batch, accounted like any
            other flush (it rides the submit/drain stream pipeline) but
            without re-tallying per-op outcomes — those were resolved
            at absorb time."""
            t0 = time.perf_counter()
            with tracer.span(f"mixed.compact.{kind}",
                             {"n": len(payloads)}):
                res = dispatch(kind, payloads)
            dt = time.perf_counter() - t0
            report.batches += 1
            bkey = f"compact-{kind}"
            report.batches_by_op[bkey] = (
                report.batches_by_op.get(bkey, 0) + 1
            )
            report.wall_s[bkey] = report.wall_s.get(bkey, 0.0) + dt
            if kind == "insert":
                summary = getattr(res, "summary", None)
                if summary is not None:
                    report.inserts_deferred += summary["deferred"]
            if engine.last_report is not None:
                report.simulated_mops[kind] = (
                    engine.last_report.end_to_end_mops
                )
            return res

        def maybe_compact(force: bool = False) -> None:
            if mt is None:
                return
            if force or mt.should_compact():
                out = mt.compact(compact_dispatch, force=force)
                if out is not None:
                    report.compactions += 1

        def absorb_done(kind: str, key, ok: bool) -> None:
            """Account one write acked host-side by the memtable, then
            run a compaction if the debt went over budget."""
            report.absorbed[kind] = report.absorbed.get(kind, 0) + 1
            by = report.ops_by_status
            name = "OK" if ok else "NOT_FOUND"
            by[name] = by.get(name, 0) + 1
            if fl_on:
                rec = fr_begin(kind, key, shard)
                if rec is not None:
                    flight.complete_absorbed(rec, ok)
            maybe_compact()

        def forward(kind: str, key, ok: bool) -> None:
            report.forwarded[kind] = report.forwarded.get(kind, 0) + 1
            self._m_forwarded.labels(op=kind).inc()
            by = report.ops_by_status
            name = "OK" if ok else "NOT_FOUND"
            by[name] = by.get(name, 0) + 1
            if fl_on:
                rec = fr_begin(kind, key, shard)
                if rec is not None:
                    flight.complete_forwarded(rec, ok)

        # hot loop: branches ordered by op frequency, bound locals, and
        # a forwarding fast path of one dict probe per read (the overlay
        # entries stay empty when the engine lacks ``contains``, so the
        # probes degrade to no-ops without per-op feature checks; writes
        # pay one bound-method call that records their pending effect)
        coal_add = coal.add
        overlay_get = overlay.entries.get
        resolve_read = overlay.resolve_read
        note_update = overlay.note_update
        note_delete = overlay.note_delete
        note_insert = overlay.note_insert
        results_append = results.append
        for kind, payload in stream:
            if kind == "lookup":
                st = overlay_get(payload)
                if st is None:
                    if mt is not None:
                        # snapshot reads: every queued lookup batch is
                        # pinned to ONE layout epoch.  If a compaction
                        # installed since the open batch pinned, close
                        # that batch at its own epoch (the snapshot's
                        # shield keeps its answers exact) before this
                        # read starts a new window on the fresh epoch.
                        if read_snap is not None \
                                and read_snap.epoch != mt.epoch:
                            for k, ps in coal.drain():
                                execute(k, ps)
                        if read_snap is None:
                            read_snap = mt.pin()
                    results_append(None)
                    pl = (payload, len(results) - 1)
                    batches = coal_add("lookup", payload, pl)
                    if fl_on:
                        fr_enqueue("lookup", payload, pl, batches)
                    for k, ps in batches:
                        execute(k, ps)
                else:
                    found, val = resolve_read(payload, st)
                    if found:
                        results_append(val)
                        report.hits += 1
                        forward("lookup", payload, True)
                    else:
                        results_append(None)
                        report.misses += 1
                        forward("lookup", payload, False)
                    report.lookups += 1
            elif kind == "update":
                key = payload[0]
                if payload[1] is None:
                    # a None value marks a delete row in a write batch
                    raise ReproError(f"update of {key!r} needs a value")
                if mt is not None:
                    ok = mt.absorb_update(key, payload[1])
                    report.updates += 1
                    if not ok:
                        report.update_misses += 1
                    absorb_done("update", key, ok)
                    continue
                if not note_update(key, payload[1]):
                    # definitely gone: a guaranteed miss, and updates
                    # never resurrect — skip the device entirely
                    report.updates += 1
                    report.update_misses += 1
                    forward("update", key, False)
                    continue
                batches = coal_add("update", key, payload)
                if fl_on:
                    fr_enqueue("update", key, payload, batches)
                for k, ps in batches:
                    execute(k, ps)
            elif kind == "delete":
                if mt is not None:
                    ok = mt.absorb_delete(payload)
                    report.deletes += 1
                    if not ok:
                        report.delete_misses += 1
                    absorb_done("delete", payload, ok)
                    continue
                if not note_delete(payload):
                    report.deletes += 1
                    report.delete_misses += 1
                    forward("delete", payload, False)
                    continue
                # a delete rides the write class as a (key, None) row
                row = (payload, None)
                batches = coal_add("delete", payload, row)
                if fl_on:
                    fr_enqueue("delete", payload, row, batches)
                for k, ps in batches:
                    execute(k, ps)
            elif kind == "insert":
                key = payload[0]
                if mt is not None:
                    mt.absorb_insert(key, payload[1])
                    report.inserts += 1
                    absorb_done("insert", key, True)
                    continue
                note_insert(key, payload[1])
                batches = coal_add("insert", key, payload)
                if fl_on:
                    fr_enqueue("insert", key, payload, batches)
                for k, ps in batches:
                    execute(k, ps)
            elif kind == "scan":
                # a range touches an unbounded key set: full barrier,
                # executed immediately
                if not (isinstance(payload, (tuple, list))
                        and len(payload) == 2):
                    raise ValueError(f"malformed scan payload {payload!r}")
                for k, ps in coal.drain():
                    execute(k, ps)
                # the scan reads the device layout: install every
                # absorbed write first (forced — correctness over cost)
                maybe_compact(force=True)
                close_window()
                pl = [tuple(payload)]
                if fl_on:
                    rec = fr_begin("scan", payload[0], shard)
                    if rec is not None:
                        rec.queue_pos = 0
                        batch_fr[id(pl)] = [rec]
                execute("scan", pl)
            else:
                raise ValueError(f"unknown operation {kind!r}")
        for k, ps in coal.drain():
            execute(k, ps)
        # end of stream: drain the memtable so the device layout holds
        # the folded effect of every absorbed write (serial-equivalent)
        maybe_compact(force=True)
        close_window()
        self.last_overlap_stats = overlap
        if overlap is not None:
            report.stream_overlap = overlap.as_dict()

        for kind in report.wall_s:
            summary = self.metrics.value("mixed_op_latency_us", op=kind)
            if summary:
                report.latency_percentiles_by_op[kind] = summary
        report.flush_reasons = {
            reason: count - reasons_before.get(reason, 0)
            for reason, count in coal.flush_reasons().items()
        }
        return results, report
