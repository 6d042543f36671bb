"""Two-stage batched update engine (section 3.4).

"Update operations replace the value stored for certain keys. ... We
utilize a one-dimensional grid of threads in CUDA, which means that the
update operation priority increases along with the thread ID."

Stage 1 — every thread runs a lookup that returns the *memory location*
of its leaf instead of the value.

Stage 2 — duplicate writers to the same location are eliminated through
the atomic-max hash table: each thread publishes its thread index for its
location, a grid synchronization follows, then every thread reads the
maximum back and only the thread whose index equals it performs the
write.  "As updates and nonstructural modifying deletes are quite similar
in their functionality, we use the same implementation for both,
signaling a deletion through setting a nil pointer."

The engine is *atomic* in the paper's sense: within a batch, concurrent
writes to one key resolve to the highest-priority writer and readers
never observe a torn value (values are single 64-bit words).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    DEFAULT_UPDATE_HASH_SLOTS,
    LEAF_TYPE_CODES,
    NIL_VALUE,
)
from repro.cuart.hashtable import make_conflict_table
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import LookupResult, lookup_batch
from repro.errors import SimulationError
from repro.gpusim.transactions import TransactionLog
from repro.obs.metrics import OCCUPANCY_BUCKETS, MetricsRegistry
from repro.util.packing import link_indices, link_types


def hashtable_stat_recorder(metrics: MetricsRegistry):
    """Per-batch device-cost export for the §3.4 conflict table.

    Returns a ``record(table)`` callable every write kernel invokes right
    after ``resolve_winners``: the table's since-reset tallies (memory
    transactions, coalesced probe groups, per-thread probe steps, atomic
    ops) land in ``variant``-labeled counters, and the batch load factor
    in an occupancy histogram — the series the BENCH transaction-drop
    gate and the probe-group dashboards read.
    """
    tx = metrics.counter(
        "hashtable_transactions_total",
        "memory transactions issued by the dedup conflict table",
        labels=("variant",),
    )
    groups = metrics.counter(
        "hashtable_probe_groups_total",
        "coalesced probe groups issued by the dedup conflict table",
        labels=("variant",),
    )
    steps = metrics.counter(
        "hashtable_probe_steps_total",
        "per-thread probe steps walked in the dedup conflict table",
        labels=("variant",),
    )
    atomics = metrics.counter(
        "hashtable_atomics_total",
        "atomic operations issued by the dedup conflict table",
        labels=("variant",),
    )
    load = metrics.histogram(
        "hashtable_load_factor",
        "dedup conflict-table load factor per resolved batch",
        labels=("variant",),
        buckets=OCCUPANCY_BUCKETS,
    )

    def record(table) -> None:
        v = table.variant
        tx.labels(variant=v).inc(table.transactions)
        groups.labels(variant=v).inc(table.probe_groups)
        steps.labels(variant=v).inc(table.total_probes)
        atomics.labels(variant=v).inc(table.atomics)
        load.labels(variant=v).observe(table.load_factor)

    return record


def write_path_counters(metrics: MetricsRegistry, op: str) -> tuple:
    """The dedup-accounting counter pair every write kernel shares:
    ``(winners, losers)`` for one op class.  Winners performed the
    device write; losers were eliminated by the §3.4 atomic-max pass."""
    winners = metrics.counter(
        "write_dedup_winners_total",
        "batch threads that won conflict resolution and wrote",
        labels=("op",),
    ).labels(op=op)
    losers = metrics.counter(
        "write_dedup_losers_total",
        "batch threads eliminated by the atomic-max dedup",
        labels=("op",),
    ).labels(op=op)
    return winners, losers


@dataclass
class UpdateResult:
    """Outcome of one batched update/delete kernel."""

    #: (B,) bool — the key was found (stage 1 hit).
    found: np.ndarray
    #: (B,) bool — this thread won conflict resolution and performed the
    #: write (at most one winner per distinct key).
    winners: np.ndarray
    #: number of leaf values actually written.
    writes: int
    #: number of write conflicts eliminated (threads that lost).
    conflicts_eliminated: int
    #: hash-table probe statistics of this batch.
    total_probes: int
    max_probe: int
    load_factor: float
    log: TransactionLog


class UpdateEngine:
    """Reusable batched updater bound to one mapped layout."""

    def __init__(
        self,
        layout: CuartLayout,
        *,
        root_table=None,
        hash_slots: int = DEFAULT_UPDATE_HASH_SLOTS,
        hash_table: str = "bucketed",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.layout = layout
        self.root_table = root_table
        self.hash_slots = hash_slots
        self.hash_table = hash_table
        # the conflict table is reused (reset) across batches — the real
        # kernel allocates it once and memsets between launches, and a
        # fresh multi-MiB allocation per batch dominates small batches
        self._table = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_winners, self._m_losers = write_path_counters(
            self.metrics, "update"
        )
        self._record_table = hashtable_stat_recorder(self.metrics)
        self._m_writes = self.metrics.counter(
            "leaf_value_writes_total", "leaf value words written on device"
        )

    def conflict_table(self):
        """The reusable §3.4 conflict table (allocated on first use).
        The delete stage of a write launch resets and reuses it too."""
        if self._table is None:
            self._table = make_conflict_table(
                self.hash_slots, variant=self.hash_table
            )
        return self._table

    def apply(
        self,
        keys_mat: np.ndarray,
        key_lens: np.ndarray,
        new_values: np.ndarray,
        *,
        deletes: np.ndarray | None = None,
        log: TransactionLog | None = None,
        located: LookupResult | None = None,
    ) -> UpdateResult:
        """Apply one update batch; thread ``i`` writes ``new_values[i]``
        (or a nil pointer where ``deletes[i]``) to ``keys_mat[i]``.

        Updates to keys not present in the index are skipped (found=False)
        — structural inserts need a host re-map (section 5.1 leaves full
        device-side management to future work).  The caller gates the
        launch (the engine's write launch fires the fault hooks before
        any stage runs, so an aborted batch replays as-is).  ``located``
        is stage 1's outcome for these rows when the caller's launch
        already walked the tree for them
        (:meth:`~repro.cuart.lookup.LookupResult.take`); the kernel
        then starts at stage 2.
        """
        layout = self.layout
        layout.check_fresh()
        B = keys_mat.shape[0]
        if log is None:
            log = TransactionLog()
        new_values = np.asarray(new_values, dtype=np.uint64)
        if new_values.shape != (B,):
            raise SimulationError("new_values must be one value per query")
        if deletes is None:
            deletes = np.zeros(B, dtype=bool)
        if np.any((new_values == np.uint64(NIL_VALUE)) & ~deletes):
            raise SimulationError(
                "NIL_VALUE is the deletion signal; pass deletes=... instead"
            )

        # ---- stage 1: locate the leaves -----------------------------
        if located is None:
            located = lookup_batch(
                layout, keys_mat, key_lens, root_table=self.root_table,
                log=log,
            )
        locations = located.locations
        found = locations != np.uint64(0)
        thread_ids = np.arange(B, dtype=np.int64)

        # ---- stage 2: conflict resolution via atomic-max table ------
        # one fused linear-probe pass per batch: insert, grid sync and
        # read-back (see AtomicMaxHashTable.resolve_winners) instead of
        # re-walking every probe chain a second time per key
        table = self.conflict_table()
        table.reset()
        table.log = log
        winners = np.zeros(B, dtype=bool)
        winners[found] = table.resolve_winners(
            locations[found], thread_ids[found]
        )
        self._record_table(table)

        # ---- stage 3: winners write ----------------------------------
        writes = 0
        win_rows = np.nonzero(winners)[0]
        wlocs = locations[win_rows]
        wcodes = link_types(wlocs)
        widx = link_indices(wlocs)
        for code in LEAF_TYPE_CODES:
            sel = wcodes == code
            if not sel.any():
                continue
            buf = layout.leaves[code]
            vals = np.where(
                deletes[win_rows[sel]], np.uint64(NIL_VALUE), new_values[win_rows[sel]]
            )
            buf.values[widx[sel]] = vals
            # one 16-byte store per winner (value word, write-combined)
            log.record(16, int(sel.sum()))
            writes += int(sel.sum())
        # dynamic leaves: patch the value field inside the heap record
        # (whole-array scatter of the little-endian value words)
        from repro.constants import LINK_DYNLEAF

        sel = wcodes == LINK_DYNLEAF
        if sel.any():
            heap = layout.dyn.heap
            offs = widx[sel].astype(np.int64)
            vals = np.where(
                deletes[win_rows[sel]], np.uint64(NIL_VALUE),
                new_values[win_rows[sel]],
            ).astype("<u8")
            heap[offs[:, None] + np.arange(2, 10, dtype=np.int64)[None, :]] = (
                vals.view(np.uint8).reshape(-1, 8)
            )
            log.record(16, int(sel.sum()), aligned=False)
            writes += int(sel.sum())

        layout.device_mutations += writes
        conflicts = int(found.sum()) - int(winners.sum())
        self._m_winners.inc(int(winners.sum()))
        self._m_losers.inc(conflicts)
        self._m_writes.inc(writes)
        return UpdateResult(
            found=found,
            winners=winners,
            writes=writes,
            conflicts_eliminated=conflicts,
            total_probes=table.total_probes,
            max_probe=table.max_probe,
            load_factor=table.load_factor,
            log=log,
        )
