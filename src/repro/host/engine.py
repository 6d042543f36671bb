"""End-to-end engines — the public facade of the reproduction.

A :class:`CuartEngine` (or the baseline :class:`GrtEngine`) executes the
paper's three benchmark stages (section 4.1): it populates a host ART,
maps it into the device layout, and then serves batched queries.  Every
query batch runs the *real* vectorized kernels (results are exact) while
its transaction log flows through the simulated device's cost model and
the host pipeline model, producing the end-to-end throughput estimates
reported by the benchmarks.

The serving path is array-native end to end: the whole query stream is
bulk-encoded into one key matrix, batches are views of it, results are
scattered back with single fancy-index assignments, and the Python-object
conversion of lookup results is deferred until a caller actually consumes
them.  An optional hot-key LRU result cache (:mod:`repro.host.cache`)
short-circuits repeat lookups under skewed traffic.

Every public operation returns a :class:`repro.host.results.BatchResult`
carrying per-query :class:`~repro.host.results.OpStatus` codes.  With a
:class:`~repro.host.resilience.ResiliencePolicy` configured (via
:class:`~repro.host.config.EngineConfig`), device faults injected by
:mod:`repro.gpusim.faults` are retried with backoff, recovered from
(hash-table growth, re-map, device-buffer growth) or degraded to the CPU
path — callers observe ``RETRIED`` / ``DEGRADED_CPU`` statuses instead
of catching exceptions.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.art.bulk import bulk_load
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    LEAF_TYPE_CODES,
    LINK_TYPE_NAMES,
    MAX_SHORT_KEY,
    NIL_VALUE,
    NODE_TYPE_CODES,
)
from repro.cuart.cpu_lookup import cpu_lookup_flat
from repro.cuart.delete import delete_batch
from repro.cuart.insert import InsertEngine
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import lookup_batch
from repro.cuart.range_query import prefix_query, range_query
from repro.cuart.root_table import RootTable
from repro.cuart.update import UpdateEngine
from repro.errors import (
    DeviceFault,
    HashTableFullError,
    ReproError,
    StaleLayoutError,
)
from repro.grt.kernel import grt_lookup_batch
from repro.grt.layout import GrtLayout
from repro.grt.update import grt_update_batch
from repro.gpusim.cost_model import CostModel
from repro.gpusim.faults import FaultInjector
from repro.gpusim.memory import allocation_guard
from repro.gpusim.pcie import link_for_device
from repro.gpusim.streams import StreamOverlapStats, StreamScheduler, launch_kernel
from repro.gpusim.trace import kernel_span_args
from repro.gpusim.transactions import TransactionLog
from repro.host.batching import QueryBatch, coalesce_encoded, split_batch
from repro.host.cache import HotKeyCache
from repro.host.config import EngineConfig
from repro.host.dispatcher import DispatchConfig, pipeline_throughput
from repro.host.resilience import ResilientDispatcher
from repro.host.results import (
    BatchResult,
    OpStatus,
    status_codes,
    values_to_list,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.flightrec import NULL_FLIGHT_RECORDER
from repro.obs.tracing import NULL_TRACER
from repro.util.keys import keys_to_matrix

__all__ = [
    "BatchResult",
    "CuartEngine",
    "EngineConfig",
    "EngineReport",
    "GrtEngine",
    "OpStatus",
]


@dataclass
class EngineReport:
    """Simulated performance of the last operation."""

    operation: str
    queries: int
    batches: int
    #: average simulated kernel seconds per batch.
    kernel_s_per_batch: float
    #: simulated kernel-only throughput.
    kernel_mops: float
    #: simulated end-to-end throughput through the host pipeline.
    end_to_end_mops: float
    #: which roofline bound the kernel hit.
    binding_constraint: str
    #: which pipeline stage bound the end-to-end rate.
    pipeline_bottleneck: str
    transactions_per_query: float
    bytes_per_query: float
    #: per device launch, in launch order: ``(rows, h2d_bytes,
    #: kernel_s)`` — the rows it ran (one result word each comes back),
    #: the bytes it shipped to the device (keys, plus the 8-byte value
    #: word of rows in a batch holding updates or inserts) and its own
    #: simulated kernel time.  ``submit`` charges one stream event each.
    launches: tuple = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.operation}: {self.end_to_end_mops:8.1f} MOps/s end-to-end "
            f"({self.kernel_mops:8.1f} kernel-only, "
            f"{self.transactions_per_query:.2f} tx/query, "
            f"bound by {self.binding_constraint}/{self.pipeline_bottleneck})"
        )


#: op kinds an engine's ``submit`` dispatches.
SUBMIT_KINDS = ("lookup", "update", "delete", "insert", "write")

#: what a serving engine provides: the attributes the batch pipeline
#: (:class:`repro.host.mixed.BatchPipeline`) and the layers behind it
#: (overlay, memtable, server) read.  :class:`CuartEngine` and
#: :class:`repro.host.sharding.ShardedEngine` provide all of them; the
#: GRT baseline has no ``submit`` / ``drain`` / ``device_health`` and
#: serves the figures only.  The pipeline reads ``last_events`` from
#: each lane's :class:`CuartEngine`, never from the engine it serves.
SERVING_CONTRACT = (
    "lookup", "batch_size", "submit", "drain", "contains", "range",
    "device_health", "metrics", "tracer", "flight",
)


def require_serving_engine(engine) -> None:
    """Raise :class:`ReproError` naming every :data:`SERVING_CONTRACT`
    attribute ``engine`` lacks.  Called where an engine enters the
    serving stack, so a mismatch fails at construction, not partway
    through a stream."""
    missing = [a for a in SERVING_CONTRACT if not hasattr(engine, a)]
    if missing:
        raise ReproError(
            f"{type(engine).__name__!r} is not a serving engine (no "
            f"{', '.join(missing)}): serve a CuartEngine or a "
            "ShardedEngine"
        )


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


class _EngineBase:
    """Shared pipeline bookkeeping for both engines."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        api: str = "cuda",
        **kwargs,
    ) -> None:
        if config is None:
            config = EngineConfig(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either config=EngineConfig(...) or individual "
                "keyword arguments, not both"
            )
        self.config = config
        self.device = config.device
        self.cpu = config.cpu
        self.batch_size = config.batch_size
        self.host_threads = config.host_threads
        self.api = api
        self._tree = AdaptiveRadixTree()
        self.cost_model = CostModel(config.device)
        self.last_report: Optional[EngineReport] = None
        #: shared observability surface (repro.obs): pass one registry /
        #: tracer to correlate engine, executor, cache and write-engine
        #: metrics; the defaults are a private registry and the free
        #: no-op tracer.
        self.metrics = (
            config.metrics if config.metrics is not None else MetricsRegistry()
        )
        self.tracer = config.tracer if config.tracer is not None else NULL_TRACER
        #: per-op flight recorder (repro.obs.flightrec); the null
        #: singleton keeps the disabled path allocation-free.
        self.flight = (
            config.flight_recorder
            if config.flight_recorder is not None
            else NULL_FLIGHT_RECORDER
        )
        m = self.metrics
        self._m_queries = m.counter(
            "engine_queries_total", "queries served, by operation",
            labels=("op",),
        )
        self._m_batches = m.counter(
            "engine_batches_total", "device batches dispatched, by operation",
            labels=("op",),
        )
        self._m_op_latency = m.histogram(
            "engine_op_latency_us",
            "measured host wall-clock per query, by operation",
            labels=("op",),
        )
        self._m_kernel_us = m.histogram(
            "gpusim_kernel_us",
            "simulated kernel time per device batch, by operation",
            labels=("op",),
        )

    @contextmanager
    def _timed_op(self, op: str, n: int):
        """Span + per-query latency accounting around one public op."""
        t0 = time.perf_counter()
        with self.tracer.span(f"engine.{op}", {"n": n}):
            yield
        if n > 0:
            dt_us = (time.perf_counter() - t0) * 1e6
            self._m_op_latency.labels(op=op).observe(dt_us / n, n)

    @property
    def tree(self) -> AdaptiveRadixTree:
        """The authoritative host ART.  Reading it flushes any deferred
        mirror writes (see :meth:`_sync_host_tree`), so external readers
        always observe the device's state."""
        self._sync_host_tree()
        return self._tree

    @tree.setter
    def tree(self, tree: AdaptiveRadixTree) -> None:
        self._tree = tree

    def _sync_host_tree(self) -> None:
        """Hook: engines that defer host-tree mirroring flush it here."""

    def contains(self, key: bytes) -> bool:
        """Membership against the engine's authoritative content.

        Cheap by design — it must not materialize deferred state, so the
        mixed executor's store-to-load forwarding can probe it per
        conflicting op (engines with a mirror overlay consult it first).
        """
        return self._tree.search(key) is not None

    def publish_tree_stats(self):
        """Walk the host tree and publish its shape (node/leaf
        populations, prefix-length histogram, depth) into the metrics
        registry as ``art_*`` gauges.  O(tree) — call at snapshot time,
        not per batch.  Returns the :class:`~repro.art.stats.TreeStats`.
        """
        from repro.art.stats import collect_stats, publish_stats

        stats = collect_stats(self.tree.root)
        publish_stats(self.metrics, stats)
        return stats

    # -- stage 1: populate ------------------------------------------------
    def populate(self, items: Iterable[tuple[bytes, int]]) -> None:
        """Insert ``(key, value)`` pairs into the host ART (stage 1).

        Populating an empty engine takes the vectorized bottom-up
        bulk-load path (:func:`repro.art.bulk.bulk_load`, duplicate keys
        collapsed last-wins like repeated inserts); anything it cannot
        express (non-empty tree, prefix-overlapping keys, exotic inputs)
        falls back to per-item root-to-leaf inserts.
        """
        items = list(items)
        with self._timed_op("populate", len(items)):
            self._populate(items)

    def _populate(self, items: list) -> None:
        if items and len(self.tree) == 0 and self.layout is None:
            dedup = None
            try:
                # common case first: distinct keys need no dedup pass
                self.tree = bulk_load(
                    [k for k, _ in items], [v for _, v in items]
                )
                return
            except ReproError:
                # duplicate keys (collapsed last-wins, like repeated
                # inserts) — or an input only the incremental path can
                # reject with its canonical error
                try:
                    dedup = dict(items)
                except (TypeError, ValueError):
                    dedup = None
            except (TypeError, ValueError):
                pass  # malformed pairs: the insert loop raises canonically
            if dedup is not None and len(dedup) < len(items):
                try:
                    self.tree = bulk_load(list(dedup), list(dedup.values()))
                    return
                except ReproError:
                    pass  # incremental path reproduces the per-item error
        for k, v in items:
            self.tree.insert(k, v)

    def __len__(self) -> int:
        return len(self.tree)

    # -- shared batching ---------------------------------------------------
    def _coalesce_stream(self, keys: Sequence[bytes]):
        """Bulk-encode one query stream and slice it into batch views.

        This is the single shared width-scan / encode / batch block that
        every batched operation (lookup, update, insert, delete, for both
        engines) dispatches through.
        """
        with self.tracer.span("encode", {"n": len(keys)}):
            mat, lens = keys_to_matrix(keys)
            return coalesce_encoded(mat, lens, self.batch_size), mat.shape[1]

    # -- reporting ---------------------------------------------------------
    def _report(
        self, operation: str, queries: int, batches: int, logs: list[TransactionLog],
        key_bytes: int, *, rows_by_op: Optional[dict] = None,
        shipped: Optional[list] = None,
    ) -> EngineReport:
        """Publish one operation's metrics and set :attr:`last_report`.
        ``rows_by_op`` splits ``engine_queries_total`` by row kind (a
        write call's lookup, update and delete rows); by default every
        query counts under ``operation``.  ``shipped`` gives each log's
        launch ``(rows, h2d_bytes)``; by default a launch ships its
        threads' keys, each with the value word unless ``operation`` is
        a lookup or delete."""
        if shipped is None:
            row_bytes = key_bytes + 8 * (operation not in ("lookup", "delete"))
            shipped = [(log.launched_threads, log.launched_threads * row_bytes)
                       for log in logs]
        total_tx = sum(log.total_transactions for log in logs)
        total_bytes = sum(log.total_bytes for log in logs)
        timings = [self.cost_model.kernel_time(log) for log in logs]
        for op, n in (rows_by_op or {operation: queries}).items():
            self._m_queries.labels(op=op).inc(n)
        self._m_batches.labels(op=operation).inc(batches)
        if timings:
            mk = self._m_kernel_us.labels(op=operation)
            for t in timings:
                mk.observe(t.total_s * 1e6)
            if self.tracer.enabled:
                # one synthetic gpu-sim span per batch, placed inside the
                # dispatching host span, so the chrome trace shows the
                # simulated kernel time beneath the host pipeline
                for log, t in zip(logs, timings):
                    self.tracer.emit_simulated(
                        f"sim:{operation}", t.total_s, kernel_span_args(log, t)
                    )
        if timings:
            kernel_s = float(np.mean([t.total_s for t in timings]))
        else:  # empty operation: charge the bare launch overhead
            kernel_s = self.device.launch_overhead_s
        per_batch_q = max(queries // max(batches, 1), 1)
        kernel_mops = per_batch_q / kernel_s / 1e6
        cfg = DispatchConfig(
            batch_size=self.batch_size,
            host_threads=self.host_threads,
            key_bytes=key_bytes,
            api=self.api,
        )
        pipe = pipeline_throughput(kernel_s, cfg, self.device, self.cpu)
        report = EngineReport(
            operation=operation,
            queries=queries,
            batches=batches,
            kernel_s_per_batch=kernel_s,
            kernel_mops=kernel_mops,
            end_to_end_mops=pipe.throughput_mops,
            binding_constraint=timings[0].binding_constraint if timings else "-",
            pipeline_bottleneck=pipe.bottleneck.name,
            transactions_per_query=total_tx / max(queries, 1),
            bytes_per_query=total_bytes / max(queries, 1),
            launches=tuple(
                (rows, h2d, t.total_s)
                for (rows, h2d), t in zip(shipped, timings)
            ),
        )
        self.last_report = report
        return report


class _LookupStage:
    """One lookup call's rows on their way to answers.

    The hot-key cache answers what it can (repeats collapse into one
    probe per distinct key); the rest are device rows, coalesced into
    batches that launch on their own (:meth:`launch`) or ride a write
    launch as its stage 0 (:meth:`CuartEngine._write_batch`, then
    :meth:`answer`).  A batch the resilience layer degrades is answered
    on the CPU.
    :meth:`result` resolves host-leaf signals, fills the cache and
    builds the :class:`BatchResult`.  ``host_s`` sums the host seconds
    spent in these steps."""

    def __init__(self, eng: "CuartEngine", keys) -> None:
        t0 = time.perf_counter()
        self.eng = eng
        #: lookup rows of the call, cache hits included.
        self.n = len(keys)
        self.track = track = eng._dispatcher is not None
        self.logs: list = []
        #: (inverse, values, overrides, miss positions, attempts,
        #: degraded) over the distinct keys while the cache is on.
        self.cached = None
        dev_keys = keys
        cache = eng.cache
        if cache is not None:
            # Hot-key cache path: hot keys repeat by definition, so
            # dedupe the stream first and probe the LRU once per
            # *distinct* key; only cold distinct keys reach the kernels.
            # A dict over the raw bytes keys beats encoding the whole
            # stream: bytes objects cache their hash, so a repeat costs
            # one dict probe and the encoder only ever sees the cold
            # distinct keys.
            idx_of: dict = {}
            setdef = idx_of.setdefault
            inverse = np.array(
                [setdef(k, len(idx_of)) for k in keys], dtype=np.int64
            )
            uniq_keys = list(idx_of)
            if len(keys) > len(uniq_keys):
                # repeats collapsed by the in-call dedup are cache hits:
                # the hot-key tier (this dict plus the LRU) serves them
                # without touching the device; routed through the
                # cache's accounting API so registry, stats view and
                # BENCH JSON always agree
                cache.record_dedup_hits(len(keys) - len(uniq_keys))
            n_u = len(uniq_keys)
            values = np.full(n_u, np.uint64(NIL_VALUE), dtype=np.uint64)
            overrides: dict[int, Optional[int]] = {}
            miss_pos: list[int] = []
            get = cache.get
            for j, k in enumerate(uniq_keys):
                hit, val = get(k)
                if not hit:
                    miss_pos.append(j)
                elif type(val) is int:
                    values[j] = val
                elif val is not None:
                    overrides[j] = val
            self.cached = (
                inverse, values, overrides, miss_pos,
                np.ones(n_u, dtype=np.int32) if track else None,
                np.zeros(n_u, dtype=bool) if track else None,
            )
            dev_keys = [uniq_keys[j] for j in miss_pos]
        #: the device rows and their answers (attempt/degraded tracking
        #: only exists under a resilience policy)
        self.keys = dev_keys
        n = len(dev_keys)
        self.values = np.full(n, np.uint64(NIL_VALUE), dtype=np.uint64)
        self.refs = np.full(n, -1, dtype=np.int64)
        self.overrides: dict[int, Optional[int]] = {}
        self.attempts = np.ones(n, dtype=np.int32) if track else None
        self.degraded = np.zeros(n, dtype=bool) if track else None
        if dev_keys or cache is None:
            batches, self.width = eng._coalesce_stream(dev_keys)
        else:
            batches, self.width = [], 1
        #: device batches not answered yet, in launch order.
        self.pending = deque(batches)
        #: the call's BatchResult, once :meth:`result` built it.
        self.out: Optional[BatchResult] = None
        self.host_s = time.perf_counter() - t0

    def launch(self, *, keep: int = 0) -> None:
        """Launch the pending batches on their own, all but the last
        ``keep`` (which then ride a write launch)."""
        t0 = time.perf_counter()
        eng = self.eng
        while len(self.pending) > keep:
            b = self.pending[0]

            def call(b=b):
                # resolve layout / root table at call time: a mid-stream
                # recovery re-map must be visible to the retry
                return lookup_batch(
                    eng.layout, b.keys_mat, b.key_lens,
                    root_table=eng.root_table, injector=eng._injector,
                )
            res, att = eng._device_batch(
                "lookup", call, n=b.size, h2d_bytes=b.keys_mat.nbytes
            )
            if res is not None:
                self.logs.append(res.log)
            self._scatter(res, att)
        self.host_s += time.perf_counter() - t0

    def answer(self, res, att: int) -> None:
        """Take the oldest pending batch's answers from the write launch
        it rode (``res`` None: the launch degraded, the CPU answers)."""
        t0 = time.perf_counter()
        self._scatter(res, att)
        self.host_s += time.perf_counter() - t0

    def _scatter(self, res, att: int) -> None:
        b = self.pending.popleft()
        if res is None:
            self.eng._dispatcher.note_degraded("lookup")
            vals, ovr = self.eng._cpu_lookup_rows(b)
            self.values[b.origin] = vals
            for p, v in ovr.items():
                self.overrides[int(b.origin[p])] = v
            self.degraded[b.origin] = True
            self.attempts[b.origin] = att
            return
        self.values[b.origin] = res.values
        self.refs[b.origin] = res.host_refs
        if self.track:
            self.attempts[b.origin] = att

    def result(self) -> BatchResult:
        """The call's :class:`BatchResult`, once every batch answered;
        cold keys' answers go into the cache."""
        t0 = time.perf_counter()
        eng = self.eng
        layout = eng.layout
        overrides, refs = self.overrides, self.refs
        if layout.host_leaves:
            # long keys stored via HOST_LINK: the CPU resolves the
            # device's host-leaf signals (rare rows only)
            for i in np.flatnonzero(refs >= 0):
                hk, hv = layout.host_leaves[int(refs[i])]
                overrides[int(i)] = hv if hk == self.keys[int(i)] else None
        if self.cached is None:
            out = eng._lookup_result(
                self.values, overrides, self.attempts, self.degraded
            )
        else:
            inverse, values, c_ovr, miss_pos, attempts, degraded = self.cached
            if miss_pos:
                pos_arr = np.asarray(miss_pos)
                values[pos_arr] = self.values
                if self.track:
                    attempts[pos_arr] = self.attempts
                    degraded[pos_arr] = self.degraded
                put = eng.cache.put
                for k, v in zip(self.keys,
                                values_to_list(self.values, overrides)):
                    put(k, v)
                for p, val in overrides.items():
                    c_ovr[miss_pos[p]] = val
            out_ovr: dict[int, Optional[int]] = {}
            for j, val in c_ovr.items():
                for pos in np.flatnonzero(inverse == j):
                    out_ovr[int(pos)] = val
            out = eng._lookup_result(
                values[inverse], out_ovr,
                attempts[inverse] if self.track else None,
                degraded[inverse] if self.track else None,
            )
        self.out = out
        self.host_s += time.perf_counter() - t0
        return out


class CuartEngine(_EngineBase):
    """The paper's system: CuART layout + kernels + async CUDA pipeline.

    >>> eng = CuartEngine()
    >>> eng.populate([(b'key-a\\x00', 1), (b'key-b\\x00', 2)])
    >>> eng.map_to_device()
    >>> eng.lookup([b'key-a\\x00', b'missing\\x00'])
    [1, None]
    """

    def __init__(
        self, config: Optional[EngineConfig] = None, **kwargs
    ) -> None:
        """Accepts either a prebuilt :class:`EngineConfig` or its fields
        as keyword arguments (see :class:`repro.host.config.EngineConfig`
        for every knob).

        ``spare`` over-allocates the device buffers so :meth:`insert`
        can place new keys without an immediate re-map (the §5.1
        device-side insert path).  ``cache_size`` > 0 enables the
        hot-key LRU result cache (:class:`repro.host.cache.HotKeyCache`).
        ``faults`` + ``resilience`` activate the fault-injection /
        retry-degrade stack (:mod:`repro.gpusim.faults`,
        :mod:`repro.host.resilience`)."""
        super().__init__(config, api="cuda", **kwargs)
        config = self.config
        #: the PCIe link feeding the simulated device (always modeled;
        #: the fault injector additionally guards its transfers).
        self._pcie = link_for_device(config.device.name)
        #: pipelined dispatch clock — the async ``submit``/``drain``
        #: surface accounts every launch here.
        self.streams = StreamScheduler(config.streams, metrics=self.metrics)
        #: StreamEvents of the most recent ``submit`` call: the serving
        #: path's simulated clock (the server's device cursor and the
        #: flight recorder's device stages read it).
        self.last_events: list = []
        self.root_table_depth = config.root_table_depth
        self.long_keys = config.long_keys
        self.hash_slots = config.hash_slots
        self.hash_table = config.hash_table
        self.spare = config.spare
        self.layout: Optional[CuartLayout] = None
        self.root_table: Optional[RootTable] = None
        self.cache: Optional[HotKeyCache] = (
            HotKeyCache(config.cache_size, metrics=self.metrics)
            if config.cache_size else None
        )
        # fault-tolerance plumbing: a deterministic injector (mechanism)
        # and a retry/degrade dispatcher (policy), both optional
        faults = config.faults
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults, metrics=self.metrics)
            if faults is not None and faults.enabled else None
        )
        self._dispatcher: Optional[ResilientDispatcher] = (
            ResilientDispatcher(
                config.resilience, metrics=self.metrics, tracer=self.tracer,
                flight=self.flight,
            )
            if config.resilience is not None else None
        )
        #: device buffers are behind the host tree (degraded writes went
        #: to the CPU path); re-map as soon as the device is healthy.
        self._needs_remap = False
        self._init_buffer_gauges()

    def _init_buffer_gauges(self) -> None:
        # device-buffer shape gauges, refreshed after every write batch
        m = self.metrics
        self._g_nodes = m.gauge(
            "device_nodes_live", "live inner-node records per type",
            labels=("type",),
        )
        self._g_leaves = m.gauge(
            "device_leaves_live", "live leaf records per type",
            labels=("type",),
        )
        self._g_free = m.gauge(
            "device_free_list_depth", "recycled slots awaiting reuse",
            labels=("type",),
        )
        self._m_growths = m.counter(
            "device_buffer_growths_total",
            "in-place device buffer growths (capacity-pressure recovery)",
            labels=("buffer",),
        )
        self._m_recoveries = m.counter(
            "resilience_recoveries_total",
            "successful recovery interventions, by kind",
            labels=("kind",),
        )
        self._gauge_children = None
        #: monotonic device-layout version: bumped every time a freshly
        #: mapped layout is adopted (map / remap / recovery).
        self.layout_epoch = 0
        self._g_layout_epoch = m.gauge(
            "device_layout_epoch",
            "monotonic version of the adopted device layout",
        )
        # kernel engines are layout-bound; cached so repeated write /
        # insert calls reuse one conflict hash table instead of
        # re-allocating it per call (see AtomicMaxHashTable.reset)
        self._updater: Optional[UpdateEngine] = None
        self._inserter: Optional[InsertEngine] = None
        #: deferred host-tree mirror: key -> value (None = delete).  The
        #: device buffers are mutated immediately; the host-tree mirror
        #: of write batches is an order-preserving dict overlay
        #: flushed on the next structural operation or external read —
        #: per-key ``tree.insert`` mirroring used to dominate the whole
        #: update path (~90% of wall time).
        self._mirror_pending: dict = {}

    def _sync_host_tree(self) -> None:
        """Flush the deferred update/delete mirror into the host tree.

        Dict semantics (one surviving value per key, insertion order)
        match the serial mirror exactly: within the overlay the last
        write to a key wins, and cross-key order is irrelevant to the
        resulting tree content."""
        pending = self._mirror_pending
        if not pending:
            return
        self._mirror_pending = {}
        tree = self._tree
        for k, v in pending.items():
            if v is None:
                tree.delete(k)
            else:
                tree.insert(k, v)
        if self.layout is not None:
            self.layout.mark_synced()

    def contains(self, key: bytes) -> bool:
        """Membership without flushing the deferred mirror: the overlay
        is consulted first (a pending ``None`` is a deletion), then the
        raw host tree."""
        pending = self._mirror_pending
        if key in pending:
            return pending[key] is not None
        return self._tree.search(key) is not None

    # -- stage 2: map -------------------------------------------------------
    def _map_once(self) -> CuartLayout:
        """One mapping pass: build the device layout from the host tree
        (flushing the mirror first) and charge its allocation against
        the fault injector."""
        layout = CuartLayout(
            self.tree, long_keys=self.long_keys, spare=self.spare
        )
        allocation_guard(
            layout.device_bytes(), "mapped layout",
            injector=self._injector, op="map",
        )
        return layout

    def _adopt_layout(self, layout: CuartLayout) -> None:
        self.layout = layout
        if self.root_table_depth is not None:
            self.root_table = RootTable(layout, k=self.root_table_depth)
        else:
            self.root_table = None
        self._updater = None
        self._inserter = None
        self._needs_remap = False
        self.layout_epoch += 1
        self._g_layout_epoch.set(self.layout_epoch)
        if self.cache is not None:
            self.cache.clear()
        self._refresh_device_gauges()

    def map_to_device(self) -> None:
        """Map the populated host tree into the device buffers (stage 2),
        rebuilding the compacted root table if configured.

        With resilience configured, transient allocation faults are
        retried; mapping never degrades (there is no CPU fallback for
        not having device buffers)."""
        with self.tracer.span("engine.map_to_device", {"keys": len(self)}):
            if self._dispatcher is not None:
                layout, _ = self._dispatcher.run(
                    "map", self._map_once, degrade=False
                )
            else:
                layout = self._map_once()
            self._adopt_layout(layout)

    def _refresh_device_gauges(self) -> None:
        """Publish the device buffers' live populations and free-list
        depths (O(#types) — called after every write batch, so the label
        children are resolved once and cached)."""
        layout = self.layout
        if layout is None:
            return
        pop = layout.live_populations()
        cached = self._gauge_children
        if cached is None:
            cached = self._gauge_children = {
                section: {
                    code: family.labels(type=LINK_TYPE_NAMES[code])
                    for code in pop[section]
                }
                for section, family in (
                    ("nodes", self._g_nodes),
                    ("leaves", self._g_leaves),
                    ("free_nodes", self._g_free),
                    ("free_leaves", self._g_free),
                )
            }
        for section, children in cached.items():
            for code, n in pop[section].items():
                children[code].set(n)

    def _require_layout(self) -> CuartLayout:
        if self.layout is None:
            raise ReproError("call map_to_device() after populating")
        if (
            self._needs_remap
            and self._dispatcher is not None
            and self._dispatcher.health.healthy
        ):
            # degraded writes left the device behind; catch it up now
            # that the device is (believed) healthy again
            self.map_to_device()
        return self.layout

    # -- resilience plumbing -------------------------------------------------
    def _recover(self, exc: ReproError) -> bool:
        """Recovery callback for non-transient dispatch errors: re-map on
        a stale layout, grow the conflict hash table on genuine capacity
        pressure.  Returns True when the dispatch should be repeated."""
        try:
            if isinstance(exc, StaleLayoutError):
                self._adopt_layout(self._map_once())
                self._m_recoveries.labels(kind="remap").inc()
                return True
            if isinstance(exc, HashTableFullError):
                need = int(exc.context.get("occupied") or 0) + int(
                    exc.context.get("requested") or 0
                )
                new_slots = max(self.hash_slots * 2, _next_pow2(need))
                if new_slots > self._dispatcher.policy.max_hash_slots:
                    return False
                self.hash_slots = new_slots
                self._updater = None
                self._inserter = None
                self._m_growths.labels(buffer="hash-table").inc()
                self._m_recoveries.labels(kind="hash-grow").inc()
                return True
        except DeviceFault:
            return False  # the recovery itself hit a fault: give up
        return False

    def _probe_device(self, op: str) -> bool:
        """While the circuit is open, periodically probe the device; on
        success, re-map if needed and close the circuit."""
        disp = self._dispatcher
        if not disp.due_probe():
            return False
        disp.record_probe()
        try:
            launch_kernel("probe", 1, injector=self._injector)
            if self._needs_remap:
                self._adopt_layout(self._map_once())
        except DeviceFault:
            return False
        disp.health.recover()
        self._m_recoveries.labels(kind="probe").inc()
        return True

    def _device_batch(self, op: str, call, *, n: int, h2d_bytes: int):
        """Dispatch one guarded device batch under the resilience policy.

        Returns ``(kernel_result, attempts)``; ``kernel_result`` is
        ``None`` when the batch must be served by the CPU path (retries
        exhausted, or circuit open and the probe failed).  Without a
        resilience policy, faults propagate to the caller.
        """
        injector = self._injector
        disp = self._dispatcher
        if disp is None and injector is None:
            # fast path: no faults to guard against, no policy to consult
            return call(), 1

        def guarded():
            # both PCIe guards fire before the kernel (the return DMA
            # descriptor is reserved at launch) so a fault always
            # precedes any device mutation — a retry replays the
            # identical batch against unchanged state, which keeps
            # non-idempotent kernels (delete, insert) exactly-once
            if injector is not None:
                self._pcie.transfer(
                    h2d_bytes, direction="h2d", injector=injector, op=op
                )
                self._pcie.transfer(
                    8 * n, direction="d2h", injector=injector, op=op
                )
            return call()

        if disp is None:
            return guarded(), 1
        if not disp.health.healthy and not self._probe_device(op):
            return None, 0
        return disp.run(op, guarded, recover=self._recover)

    # -- degraded (CPU) serving ----------------------------------------------
    def _batch_key(self, batch: QueryBatch, i: int) -> bytes:
        return batch.keys_mat[i, : int(batch.key_lens[i])].tobytes()

    def _cpu_lookup_rows(self, batch: QueryBatch):
        """Serve one lookup batch on the CPU: through the flat layout
        when it is content-fresh (:func:`cpu_lookup_flat`), else against
        the authoritative host tree.  Returns ``(values, overrides)``
        with batch-local override positions."""
        layout = self.layout
        if layout is not None and not self._needs_remap:
            try:
                layout.check_fresh()
            except StaleLayoutError:
                pass
            else:
                res = cpu_lookup_flat(layout, batch.keys_mat, batch.key_lens)
                overrides: dict[int, Optional[int]] = {}
                if layout.host_leaves:
                    for i in np.flatnonzero(res.host_refs >= 0):
                        hk, hv = layout.host_leaves[int(res.host_refs[i])]
                        key = self._batch_key(batch, int(i))
                        overrides[int(i)] = hv if hk == key else None
                return res.values, overrides
        tree = self.tree
        values = np.full(batch.size, np.uint64(NIL_VALUE), dtype=np.uint64)
        overrides = {}
        for i in range(batch.size):
            v = tree.search(self._batch_key(batch, i))
            if v is not None:
                overrides[i] = v
        return values, overrides

    def _degraded_write_rows(
        self, batch: QueryBatch, values, dels, found
    ) -> None:
        """Apply one write batch directly to the host tree (CPU path):
        its update rows, then its delete rows, like the device launch.

        Reading ``self.tree`` flushes the pending mirror first, so
        earlier device writes land before these rows.  The device is now
        behind: flag the re-map."""
        tree = self.tree
        cache = self.cache
        for i in np.argsort(dels, kind="stable").tolist():
            key = self._batch_key(batch, i)
            pos = int(batch.origin[i])
            if dels[i]:
                val = None
                hit = tree.delete(key)
            else:
                val = int(values[pos])
                hit = tree.search(key) is not None
                if hit:
                    tree.insert(key, val)
            if hit:
                found[pos] = True
                if cache is not None:
                    cache.update_if_cached(key, val)
        self._needs_remap = True

    # -- stage 3: queries ----------------------------------------------------
    def lookup(self, keys: Sequence[bytes]) -> BatchResult:
        """Batched exact lookups; the result lists values (``None`` for
        misses) and carries per-query :class:`OpStatus` codes.

        Long keys stored via :attr:`LongKeyStrategy.HOST_LINK` come back
        after the CPU resolves the device's host-leaf signals.  With the
        result cache enabled, hot keys are served from the host LRU and
        only cold keys reach the kernels.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        with self._timed_op("lookup", len(keys)):
            return self._lookup(keys)

    @staticmethod
    def _lookup_result(values, overrides, attempts, degraded) -> BatchResult:
        found = values != np.uint64(NIL_VALUE)
        for pos, val in overrides.items():
            found[pos] = val is not None
        if attempts is None and degraded is None:
            # fast path: nothing retried or degraded, status is lazy
            return BatchResult(
                "lookup", found=found, values=values, overrides=overrides,
            )
        status = status_codes(found, attempts=attempts, degraded=degraded)
        return BatchResult(
            "lookup", found=found, values=values, overrides=overrides,
            status=status, attempts=attempts,
        )

    def _lookup_stage(self, keys) -> "_LookupStage":
        layout = self._require_layout()
        if self._dispatcher is None:
            # no resilience: surface staleness immediately (the kernels
            # check too; this keeps the error at the call site).  With a
            # dispatcher the kernel-level check routes through recovery.
            layout.check_fresh()
        return _LookupStage(self, keys)

    def _lookup(self, keys) -> BatchResult:
        stage = self._lookup_stage(keys)
        stage.launch()
        result = stage.result()
        self._report("lookup", len(keys), len(stage.logs), stage.logs,
                     stage.width)
        return result

    def _get_updater(self) -> UpdateEngine:
        """The layout-bound update engine, rebuilt after a re-map or a
        hash-table growth (both null the cached instance)."""
        engine = self._updater
        layout = self.layout
        if engine is None or engine.layout is not layout:
            engine = self._updater = UpdateEngine(
                layout, root_table=self.root_table,
                hash_slots=self.hash_slots, hash_table=self.hash_table,
                metrics=self.metrics,
            )
        return engine

    def _get_inserter(self) -> InsertEngine:
        engine = self._inserter
        layout = self.layout
        if engine is None or engine.layout is not layout:
            engine = self._inserter = InsertEngine(
                layout, root_table=self.root_table,
                hash_slots=self.hash_slots, hash_table=self.hash_table,
                metrics=self.metrics, injector=self._injector,
            )
        return engine

    # -- async dispatch ----------------------------------------------------
    @property
    def device_health(self):
        """Circuit-breaker state (:class:`repro.host.resilience.DeviceHealth`)
        of this engine's device, or ``None`` when no resilience policy is
        configured.  The serving front-end layers its admission control
        on this: an open circuit shrinks the effective queue bound so
        backpressure engages before degraded CPU serving piles up
        latency."""
        d = self._dispatcher
        return d.health if d is not None else None

    def submit(self, kind: str, payloads: Sequence, *,
               lookups: Optional[Sequence[bytes]] = None):
        """Asynchronously dispatch one coalesced op-class batch.

        The pipelined counterpart of calling :meth:`lookup` /
        :meth:`write` / :meth:`update` / :meth:`delete` / :meth:`insert`
        directly: the operation executes eagerly (results are exact and
        immediately available), while its simulated timeline — PCIe
        staging, kernel, return DMA — is accounted against the
        double-buffered :class:`~repro.gpusim.streams.StreamScheduler`,
        so batch *i+1*'s host→device staging overlaps batch *i*'s kernel.
        Each device launch is one stream event, charged the rows and
        bytes it ships and its own kernel time; :attr:`last_events`
        holds the call's events (none when no launch ran: all cache
        hits, or a batch the CPU served while degraded).
        Call :meth:`drain` to close the submit window and read the
        overlap statistics.  ``payloads`` are keys for
        ``lookup``/``delete``, ``(key, value)`` pairs for
        ``update``/``insert``, and ``write`` rows — ``(key, value)``
        updates and ``(key, None)`` deletes — for ``write``.

        ``lookups`` (keys; ``write`` batches only) hands in a lookup
        batch that must read the state *before* the write batch: the
        call returns ``(lookup_result, write_result)``.  The lookup rows
        run as stage 0 of the write launch, walking the tree together
        with its write rows (:meth:`_write_batch`).  The lookup result's
        ``summary["host_s"]`` is the host time spent on the lookup rows.
        """
        if lookups is not None:
            if kind != "write":
                raise ReproError(
                    f"lookups ride write batches, not {kind!r} batches"
                )
            return self._submit_with_lookups(payloads, lookups)
        if kind not in SUBMIT_KINDS:
            raise ReproError(
                f"cannot submit {kind!r} batches to {type(self).__name__}"
            )
        result = getattr(self, kind)(payloads)
        self._charge_launches(kind)
        return result

    def _charge_launches(self, kind: str) -> None:
        """One stream event per device launch of the last ``kind`` call
        (:attr:`EngineReport.launches`), into :attr:`last_events`."""
        rep = self.last_report
        events: list = []
        if rep is not None and rep.operation == kind:
            link = self._pcie
            for rows, h2d_bytes, kernel_s in rep.launches:
                events.append(self.streams.submit(
                    kind, h2d_s=link.transfer_time(h2d_bytes),
                    kernel_s=kernel_s, d2h_s=link.transfer_time(8 * rows),
                ))
        self.last_events = events

    def drain(self) -> StreamOverlapStats:
        """Close the current submit window: wait (in simulated time) for
        every in-flight batch and return the accumulated
        :class:`~repro.gpusim.streams.StreamOverlapStats`."""
        return self.streams.drain()

    def _submit_with_lookups(self, rows: Sequence, lookups: Sequence):
        """One launch: the lookup rows run as stage 0 of the write
        launch (see :meth:`_write`), so the pair costs one PCIe round
        trip and one launch overhead.  With one side empty this is the
        plain launch of the other."""
        rows = list(rows) if not isinstance(rows, (list, tuple)) else rows
        if not isinstance(lookups, (list, tuple)):
            lookups = list(lookups)
        if not rows or not lookups:
            t0 = time.perf_counter()
            lres = self.submit("lookup", lookups)
            lres.summary = {"host_s": time.perf_counter() - t0}
            events = self.last_events
            res = self.submit("write", rows)
            self.last_events = events + self.last_events
            return lres, res
        t0 = time.perf_counter()
        with self.tracer.span(
            "engine.write", {"n": len(rows), "lookups": len(lookups)}
        ):
            stage = self._lookup_stage(lookups)
            res = self._write(rows, "write", stage)
        write_s = time.perf_counter() - t0 - stage.host_s
        lres = stage.out
        lres.summary = {"host_s": stage.host_s}
        for op, n, dt in (("lookup", len(lookups), stage.host_s),
                          ("write", len(rows), write_s)):
            self._m_op_latency.labels(op=op).observe(dt / n * 1e6, n)
        self._charge_launches("write")
        return lres, res

    def write(self, rows: Sequence) -> BatchResult:
        """Batched §3.4 writes; an update row is ``(key, value)``, a
        delete row ``(key, None)``.  The result lists found flags (for a
        delete: the key was deleted) and carries per-query
        :class:`OpStatus` codes.

        Each device batch is one launch: its update rows run first (later
        rows win conflicts on one key, the paper's thread-index
        priority), then its delete rows — "the same implementation for
        both" — sharing one transaction log and one PCIe round trip.  A
        delete therefore observes same-batch updates of its key, and an
        update in the same batch as a delete of its key still finds it;
        the coalescer never batches an op after a delete of its key.  The
        host tree mirrors every applied row so a future re-map cannot
        resurrect stale data.
        """
        rows = list(rows) if not isinstance(rows, (list, tuple)) else rows
        with self._timed_op("write", len(rows)):
            return self._write(rows, "write")

    def update(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        """Batched value updates: :meth:`write` with update rows only."""
        items = list(items) if not isinstance(items, (list, tuple)) else items
        with self._timed_op("update", len(items)):
            return self._write(items, "update")

    def delete(self, keys: Sequence[bytes]) -> BatchResult:
        """Batched device-side deletions (section 3.3): :meth:`write`
        with delete rows only; the result lists deleted flags."""
        keys = list(keys) if not isinstance(keys, (list, tuple)) else keys
        with self._timed_op("delete", len(keys)):
            return self._write([(k, None) for k in keys], "delete")

    def _write_batch(self, b: QueryBatch, values, dels, label: str,
                     stage: Optional[_LookupStage] = None):
        """One write launch over batch ``b``: one grid, one transaction
        log.  Its threads are its update rows, its delete rows
        (``dels``) and, with ``stage``, that lookup stage's oldest
        pending batch (stage 0).  Every row walks the tree once,
        together (keys padded to the widest row); then the update
        stage runs its dedup rounds and winner stores, then the delete
        stage its dedup rounds, clearing stores and unlinks (an empty
        stage is skipped).  The walk writes nothing, so stage 0 reads
        the state before the launch, which is what a lookup launch sent
        first would read; and update stores change value words only,
        so the delete rows find the leaves and parents a walk after
        those stores would.  The launch fires its fault hooks once,
        before any stage runs, so an aborted launch replays as-is.
        ``label`` names the op for the hooks.  Returns ``(found, log,
        stage-0 LookupResult or None)``."""
        layout = self.layout
        layout.check_fresh()
        first = stage.pending[0] if stage else None
        n0 = first.size if first else 0
        threads = n0 + b.size
        launch_kernel(label, threads, injector=self._injector)
        if self._injector is not None:
            self._injector.on_hashtable(label, b.size)
        updater = self._get_updater()
        log = TransactionLog()
        keys_mat, key_lens = b.keys_mat, b.key_lens
        if first is not None:
            keys_mat = np.zeros(
                (threads, max(first.keys_mat.shape[1], keys_mat.shape[1])),
                dtype=keys_mat.dtype,
            )
            keys_mat[:n0, :first.keys_mat.shape[1]] = first.keys_mat
            keys_mat[n0:, :b.keys_mat.shape[1]] = b.keys_mat
            key_lens = np.concatenate([first.key_lens, key_lens])
        walk = lookup_batch(layout, keys_mat, key_lens,
                            root_table=self.root_table, log=log)
        found = np.zeros(b.size, dtype=bool)
        upd = np.flatnonzero(~dels)
        rem = np.flatnonzero(dels)
        if upd.size:
            found[upd] = updater.apply(
                b.keys_mat[upd], b.key_lens[upd], values[b.origin[upd]],
                log=log, located=walk.take(n0 + upd),
            ).found
        if rem.size:
            found[rem] = delete_batch(
                layout, b.keys_mat[rem], b.key_lens[rem], log=log,
                root_table=self.root_table, table=updater.conflict_table(),
                metrics=self.metrics, located=walk.take(n0 + rem),
            ).deleted
        log.launched_threads = threads
        return found, log, walk.take(slice(0, n0)) if first else None

    def _write(self, rows, op: str,
               stage: Optional[_LookupStage] = None) -> BatchResult:
        """The write loop.  With ``stage`` (a lookup call that must read
        the state before these rows), its last pending batch rides the
        first write launch as stage 0 and the batches before it launch
        on their own first; with no write rows they all do.  The lookup
        answers reach the cache before any write row refreshes it."""
        self._require_layout()
        n = len(rows)
        if op == "update":
            is_del = np.zeros(n, dtype=bool)
            values = np.fromiter(
                map(itemgetter(1), rows), dtype=np.uint64, count=n
            )
        elif op == "delete":
            is_del = np.ones(n, dtype=bool)
            values = np.zeros(n, dtype=np.uint64)
        else:
            vals = list(map(itemgetter(1), rows))
            is_del = np.fromiter(
                (v is None for v in vals), dtype=bool, count=n
            )
            values = np.fromiter(
                (0 if v is None else v for v in vals), dtype=np.uint64,
                count=n,
            )
        batches, width = self._coalesce_stream(list(map(itemgetter(0), rows)))
        found = np.zeros(n, dtype=bool)
        track = self._dispatcher is not None
        attempts = np.ones(n, dtype=np.int32) if track else None
        degraded = np.zeros(n, dtype=bool) if track else None
        logs = []
        shipped = []
        if stage is not None:
            stage.launch(keep=1 if batches else 0)
            logs += stage.logs
            shipped += [(log.launched_threads,
                         log.launched_threads * stage.width)
                        for log in stage.logs]
            if not stage.pending:
                stage.result()
        queue = deque(batches)
        while queue:
            batch = queue.popleft()
            dels = is_del[batch.origin]
            # update rows carry their 8-byte value word to the device
            carries = not dels.all()
            if not dels.any():
                label = "update"
            else:
                label = "write" if carries else "delete"
            ride = stage if stage is not None and stage.pending else None
            threads = batch.size
            h2d_bytes = batch.keys_mat.nbytes + 8 * batch.size * carries
            if ride is not None:
                threads += ride.pending[0].size
                h2d_bytes += ride.pending[0].keys_mat.nbytes

            def call(b=batch, d=dels, label=label, ride=ride):
                return self._write_batch(b, values, d, label, ride)
            try:
                res, att = self._device_batch(
                    label, call, n=threads, h2d_bytes=h2d_bytes,
                )
            except HashTableFullError:
                # genuine capacity pressure the growth recovery could not
                # absorb (cap reached): halve the dispatch so fewer
                # distinct keys contend for the table (stage 0 rides
                # the first half)
                if self._dispatcher is None:
                    raise
                if batch.size > 1:
                    queue.extendleft(reversed(split_batch(batch)))
                    continue
                if not self._dispatcher.policy.allow_degrade:
                    raise
                res, att = None, 0
            if res is None:
                # the CPU answers the lookups before it applies the rows
                if ride is not None:
                    ride.answer(None, att)
                    ride.result()
                self._dispatcher.note_degraded(label)
                self._degraded_write_rows(batch, values, dels, found)
                degraded[batch.origin] = True
                attempts[batch.origin] = att
                continue
            batch_found, log, looked = res
            if ride is not None:
                ride.answer(looked, att)
                ride.result()
            logs.append(log)
            shipped.append((threads, h2d_bytes))
            found[batch.origin] = batch_found
            if track:
                attempts[batch.origin] = att
            self._mirror_rows(rows, batch.origin, batch_found, dels)
        if not (track and bool(degraded.any())):
            self.layout.mark_synced()
        rows_by_op = None
        queries = n
        if op == "write":
            n_del = int(np.count_nonzero(is_del))
            rows_by_op = {"update": n - n_del, "delete": n_del}
            if stage is not None:
                rows_by_op["lookup"] = stage.n
                queries += stage.n
        self._report(op, queries, len(logs), logs, width,
                     rows_by_op=rows_by_op, shipped=shipped)
        self._refresh_device_gauges()
        status = (
            status_codes(found, attempts=attempts, degraded=degraded)
            if track else None
        )
        return BatchResult(op, found=found, status=status, attempts=attempts)

    def _mirror_rows(self, rows, origin, hit, dels) -> None:
        """Mirror one device batch's applied rows into the deferred
        host-tree overlay (and the result cache) in launch order: update
        rows, then delete rows.  Dict insertion order is thread order,
        so last-writer-wins is preserved; the host tree itself is only
        touched when something actually reads it."""
        if dels.any() and not dels.all():
            order = np.argsort(dels, kind="stable")
            origin, hit = origin[order], hit[order]
        pending = self._mirror_pending
        cache = self.cache
        if cache is None and hit.all():
            pending.update(map(rows.__getitem__, origin.tolist()))
            return
        for k, v in map(rows.__getitem__,
                        compress(origin.tolist(), hit.tolist())):
            pending[k] = v
            if cache is not None:
                cache.update_if_cached(k, v)

    def insert(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        """Batched inserts: device-side where the buffers allow it
        (section 5.1 path via :class:`repro.cuart.insert.InsertEngine`),
        host re-map for the structurally hard remainder.

        The result's :attr:`BatchResult.summary` carries
        ``{"device_inserted", "updated", "deferred", "remapped"}``.
        With resilience configured, capacity-exhausted buffers are grown
        in place and only the deferred rows are re-dispatched before
        falling back to a re-map.  All items land in the host tree
        either way, so the engine's content stays authoritative.
        """
        items = list(items) if not isinstance(items, (list, tuple)) else items
        with self._timed_op("insert", len(items)):
            return self._insert(items)

    def _grow_for_pressure(self) -> bool:
        """Capacity-pressure recovery: grow every exhausted device
        buffer in place (§5.1 "sophisticated buffer management").
        Returns True when at least one buffer grew."""
        layout = self.layout
        disp = self._dispatcher
        grew = False
        exhausted = [
            (code, True) for code in LEAF_TYPE_CODES
            if layout.spare_leaf_slots(code) == 0
        ] + [
            (code, False) for code in NODE_TYPE_CODES
            if layout.spare_node_slots(code) == 0
        ]
        for code, is_leaf in exhausted:
            name = LINK_TYPE_NAMES[code]

            def grow(code=code, is_leaf=is_leaf, name=name):
                extra = max(layout.node_count(code), 8)
                allocation_guard(
                    extra * layout.node_record_bytes[code], f"{name} buffer",
                    injector=self._injector, op="insert",
                )
                if is_leaf:
                    return layout.grow_leaf_buffer(code)
                return layout.grow_node_buffer(code)

            added, _ = disp.run("grow", grow)
            if added is not None:
                grew = True
                self._m_growths.labels(buffer=name).inc()
                self._m_recoveries.labels(kind="buffer-grow").inc()
        return grew

    def _insert(self, items) -> BatchResult:
        self._require_layout()
        keys = list(map(itemgetter(0), items))
        values = np.fromiter(
            map(itemgetter(1), items), dtype=np.uint64, count=len(items)
        )
        batches, width = self._coalesce_stream(keys)
        logs = []
        n_ins = n_upd = 0
        n_dev_batches = 0
        disp = self._dispatcher
        track = disp is not None
        attempts = np.ones(len(items), dtype=np.int32) if track else None
        degraded = np.zeros(len(items), dtype=bool) if track else None
        def_mask = np.zeros(len(items), dtype=bool)
        for batch in batches:
            def call(b=batch):
                return self._get_inserter().apply(
                    b.keys_mat, b.key_lens, values[b.origin]
                )
            try:
                res, att = self._device_batch(
                    "insert", call, n=batch.size,
                    h2d_bytes=batch.keys_mat.nbytes + 8 * batch.size,
                )
            except HashTableFullError:
                if disp is None or not disp.policy.allow_degrade:
                    raise
                res, att = None, 0
            if track:
                attempts[batch.origin] = att
            if res is None:
                # the host tree covers the content below; the device
                # just misses these keys until the re-map
                disp.note_degraded("insert")
                degraded[batch.origin] = True
                def_mask[batch.origin] = True
                continue
            logs.append(res.log)
            n_dev_batches += 1
            n_ins += res.n_inserted
            n_upd += res.n_updated
            def_mask[batch.origin] = res.deferred
            if res.n_deferred and disp is not None and self._grow_for_pressure():
                # partial replay: only the deferred rows re-dispatch
                # against the grown buffers (dedup winners et al. stay)
                rows = np.flatnonzero(res.deferred)
                sub = QueryBatch(
                    keys_mat=batch.keys_mat[rows],
                    key_lens=batch.key_lens[rows],
                    origin=batch.origin[rows],
                )
                def replay(b=sub):
                    return self._get_inserter().apply(
                        b.keys_mat, b.key_lens, values[b.origin]
                    )
                try:
                    res2, att2 = self._device_batch(
                        "insert", replay, n=sub.size,
                        h2d_bytes=sub.keys_mat.nbytes + 8 * sub.size,
                    )
                except HashTableFullError:
                    res2, att2 = None, 0
                if res2 is None:
                    disp.note_degraded("insert")
                    degraded[sub.origin] = True
                else:
                    logs.append(res2.log)
                    n_dev_batches += 1
                    n_ins += res2.n_inserted
                    n_upd += res2.n_updated
                    attempts[sub.origin] += att2
                    def_mask[sub.origin] = res2.deferred
        # the host tree mirrors everything (duplicates: last one wins,
        # matching the device's thread-priority rule); reading .tree
        # flushes pending update/delete mirrors first, preserving order
        tree = self.tree
        cache = self.cache
        for k, v in items:
            tree.insert(k, v)
            if cache is not None:
                # deferred rows are invisible to the kernels until the
                # re-map, so refresh from the device on next lookup
                cache.invalidate(k)
        n_def = int(def_mask.sum())
        remapped = False
        if n_def:
            if disp is not None and not disp.health.healthy:
                self._needs_remap = True  # catch up once the device heals
            else:
                self.map_to_device()
                remapped = True
        else:
            self.layout.mark_synced()
            if track and bool(degraded.any()):
                self._needs_remap = True
        self._report("insert", len(items), max(n_dev_batches, 1), logs, width)
        self._refresh_device_gauges()
        found = np.ones(len(items), dtype=bool)
        status = (
            status_codes(found, attempts=attempts, degraded=degraded)
            if track else None
        )
        return BatchResult(
            "insert", found=found, status=status, attempts=attempts,
            summary={
                "device_inserted": n_ins,
                "updated": n_upd,
                "deferred": n_def,
                "remapped": remapped,
            },
        )

    # -- persistence ---------------------------------------------------------
    def save(self, path) -> None:
        """Persist the mapped device buffers (``.npz``); see
        :mod:`repro.cuart.serialize`."""
        from repro.cuart.serialize import save_layout

        save_layout(self._require_layout(), path)

    @classmethod
    def load(cls, path, **engine_kwargs) -> "CuartEngine":
        """Rebuild an engine from a saved layout.

        The device buffers load directly (no mapping pass); the
        authoritative host tree is reconstructed from the complete keys
        the leaf buffers carry.  A configured ``root_table_depth`` builds
        the compacted root table from the loaded buffers, so the table
        needs no re-map.
        """
        from repro.cuart.serialize import iter_layout_items, load_layout

        layout = load_layout(path)
        engine = cls(long_keys=layout.long_keys, **engine_kwargs)
        engine.populate(iter_layout_items(layout))
        layout._source = engine.tree
        layout._source_version = engine.tree.version
        engine._adopt_layout(layout)
        return engine

    def range(self, lo: bytes, hi: bytes) -> list[tuple[bytes, int]]:
        """Inclusive range query over the ordered leaf buffers.  While
        the device is behind a degraded write (the re-map waits for the
        circuit to close), the host tree answers and no launch is
        charged, as for degraded lookups."""
        layout = self._require_layout()
        if self._needs_remap:
            return list(self.tree.range_query(lo, hi))
        res = range_query(layout, lo, hi)
        self._report("range", max(len(res), 1), 1, [res.log], MAX_SHORT_KEY)
        return list(zip(res.keys, (int(v) for v in res.values)))

    def prefix(self, prefix: bytes) -> list[tuple[bytes, int]]:
        """Prefix query over the ordered leaf buffers; the host tree
        answers while the device is behind, as in :meth:`range`."""
        layout = self._require_layout()
        if self._needs_remap:
            return list(self.tree.prefix_query(prefix))
        res = prefix_query(layout, prefix)
        self._report("prefix", max(len(res), 1), 1, [res.log], MAX_SHORT_KEY)
        return list(zip(res.keys, (int(v) for v in res.values)))


class GrtEngine(_EngineBase):
    """The baseline: GRT single-buffer layout with synchronous dispatch.

    Shares :class:`EngineConfig` with :class:`CuartEngine`; the
    CuART-only knobs (root table, long keys, spare, cache, streams,
    faults, resilience) are ignored here.  It serves the figures'
    comparisons through direct ``lookup`` / ``update`` / ``range``
    calls only: with no delete kernel and no ``submit`` / ``drain``
    pipeline it is not a serving engine (:data:`SERVING_CONTRACT`)."""

    def __init__(
        self, config: Optional[EngineConfig] = None, **kwargs
    ) -> None:
        super().__init__(config, api="sync", **kwargs)
        self.layout: Optional[GrtLayout] = None

    def map_to_device(self) -> None:
        self.layout = GrtLayout(self.tree)

    def _require_layout(self) -> GrtLayout:
        if self.layout is None:
            raise ReproError("call map_to_device() after populating")
        return self.layout

    def lookup(self, keys: Sequence[bytes]) -> BatchResult:
        layout = self._require_layout()
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        batches, width = self._coalesce_stream(keys)
        values = np.full(len(keys), np.uint64(NIL_VALUE), dtype=np.uint64)
        logs = []
        for batch in batches:
            res = grt_lookup_batch(layout, batch.keys_mat, batch.key_lens)
            logs.append(res.log)
            values[batch.origin] = res.values
        self._report("lookup", len(keys), len(batches), logs, width)
        found = values != np.uint64(NIL_VALUE)
        return BatchResult("lookup", found=found, values=values)

    def update(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        layout = self._require_layout()
        items = list(items) if not isinstance(items, (list, tuple)) else items
        keys = list(map(itemgetter(0), items))
        values = np.fromiter(
            map(itemgetter(1), items), dtype=np.uint64, count=len(items)
        )
        batches, width = self._coalesce_stream(keys)
        found = np.zeros(len(items), dtype=bool)
        logs = []
        for batch in batches:
            res = grt_update_batch(
                layout, batch.keys_mat, batch.key_lens, values[batch.origin]
            )
            logs.append(res.log)
            found[batch.origin] = res.found
        self._report("update", len(items), len(batches), logs, width)
        return BatchResult("update", found=found)

    def range(self, lo: bytes, hi: bytes) -> list[tuple[bytes, int]]:
        """Inclusive range via the in-order buffer scan (the GRT paper's
        point-and-range evaluation)."""
        from repro.grt.range import grt_range_query

        layout = self._require_layout()
        res = grt_range_query(layout, lo, hi)
        self._report("range", max(len(res), 1), 1, [res.log], MAX_SHORT_KEY)
        return list(zip(res.keys, (int(v) for v in res.values)))
