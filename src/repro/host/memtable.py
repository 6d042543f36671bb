"""Log-structured write absorption: host memtable + merge-compaction.

Heavy write traffic used to pay a device round-trip per coalesced
batch — every update/insert/delete burst was scattered into the §3.4
device kernels synchronously, so sustained write throughput was bounded
by PCIe + kernel makespan even when readers would be satisfied
host-side.  This module absorbs writes the way an LSM engine does
(LUDA's GPU-assisted-compaction idea, PAPERS.md, transplanted to an
index):

* **absorb** — a write acks in O(1): its hit/miss outcome is resolved
  host-side against the delta + one memoized ``contains`` probe, the
  effective mutation is recorded in the *active segment*, and nothing
  touches the device.  Miss writes (update/delete of an absent key) are
  dropped outright — they are device no-ops a serial client would
  observe as misses.
* **seal** — an active segment reaching ``segment_ops`` effective
  mutations is sealed and queued; the count of sealed segments is the
  *compaction debt*.
* **merge-compact** — when the debt exceeds ``max_debt`` (or a caller
  forces a drain at a scan barrier / end of stream), the sealed
  segments fold per key with last-writer-wins semantics and scatter
  into the device layout as at most two class batches, one ``write``
  batch (the surviving updates, then deletes) and one ``insert`` batch,
  through the caller's dispatch hook — in the executors that is
  :meth:`~repro.host.engine.CuartEngine.submit`, so
  compaction batches ride the double-buffered second stream
  (:mod:`repro.gpusim.streams`) behind foreground lookups.  Folding
  shrinks device work under skew: N writes to one hot key become one
  row, and an insert cancelled by a later delete becomes zero rows.

Reads stay *serially correct* throughout: the delta is a
:class:`~repro.host.overlay.WriteOverlay` with definite per-key
statuses, so read-your-writes is one dict probe, and keys without a
pending write read the device layout, which the compactor only ever
moves *forward* to a folded prefix of the absorbed history.  The batch
pipeline (:class:`repro.host.mixed.BatchPipeline`) hands its queued
lookups to each compaction's write launch as stage 0, so a lookup
queued before a compaction reads the pre-install state, as a serial
run does.

**Byte-identity.**  For update/delete traffic the folded batches are
byte-identical to serial execution: updates write leaf value words in
place, deletes clear the leaf (values to ``NIL_VALUE``, key bytes to 0
— :mod:`repro.cuart.delete`) and never restructure nodes, so disjoint
keys commute; and because the serialized layout includes the free-leaf
lists, each row kind is dispatched in absorb order (the fold keeps
each surviving op's global sequence number) so free-list push order
matches the serial history.  Insert / delete-then-reinsert traffic is
content-identical but may legitimately differ in slot-reuse order —
the lockstep suite compares those through a canonical re-serialization.

**Degrade interaction** (the PR 4 circuit breaker): while the device
circuit is open, :meth:`Memtable.should_compact` holds — writes keep
absorbing into segments at host speed and *nothing* is scattered into
the degraded path, so the circuit-open cost of a write burst is O(1)
per op instead of a degraded CPU batch per flush.  Reads are served
from the delta plus the last installed layout (the engine's existing
degraded lookup path).  When the circuit closes, the next trigger
drains the accumulated debt through the normal device kernels exactly
once — the delta is the replay log, and a key is retired from it only
after its folded write is installed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ReproError
from repro.host.engine import require_serving_engine
from repro.host.overlay import WriteOverlay
from repro.obs.metrics import MetricsRegistry

__all__ = ["Memtable", "MemtableConfig", "Segment"]


@dataclass(frozen=True)
class MemtableConfig:
    """Knobs for the write-absorption layer."""

    #: effective mutations the active segment holds before sealing.
    segment_ops: int = 256
    #: sealed segments tolerated before a (non-forced) compaction is
    #: due.  0 compacts as soon as anything seals.
    max_debt: int = 4

    def __post_init__(self) -> None:
        if self.segment_ops < 1:
            raise ReproError(
                f"segment_ops must be >= 1, got {self.segment_ops}"
            )
        if self.max_debt < 0:
            raise ReproError(f"max_debt must be >= 0, got {self.max_debt}")


class Segment:
    """One append window of effective mutations.

    ``ops`` maps key -> ``(kind, value, op_seq)`` with kind ``"put"``
    (update/insert payload) or ``"del"``; within a segment the last
    write to a key wins (dict overwrite), which *is* the first level of
    LWW folding.  ``op_seq`` is the global absorb sequence number of the
    surviving op — the compactor sorts class batches by it so device
    dispatch order (and with it free-list push order, which serializes)
    matches the serial history.
    """

    __slots__ = ("seq", "ops")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.ops: dict = {}

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Segment(seq={self.seq}, ops={len(self.ops)})"


class Memtable:
    """Host-side log-structured delta over one engine (module
    docstring).  Owned by a dispatch surface (mixed executor / server
    core), one per engine/shard; the owner calls the ``absorb_*``
    trio from its hot loop and :meth:`compact` at trigger points,
    passing its own dispatch hook so device batches are accounted like
    any other flush."""

    def __init__(
        self,
        engine,
        config: Optional[MemtableConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        require_serving_engine(engine)
        self.engine = engine
        self.config = config if config is not None else MemtableConfig()
        #: the delta: definite per-key pending effects + the memoized
        #: base-existence probe (absorb resolves hit/miss through it).
        self.delta = WriteOverlay(engine.contains)
        self.active = Segment(0)
        self.sealed: deque = deque()
        self._op_seq = 0
        # -- lifetime stats (the BENCH write_burst scenario reads these)
        self.absorbed: dict = {}
        self.dropped: dict = {}
        self.compactions = 0
        self.dispatched_rows = 0
        self.folded_away = 0
        self.max_debt_seen = 0

        m = metrics if metrics is not None else engine.metrics
        self.metrics = m
        self._m_absorbed = m.counter(
            "memtable_absorbed_total",
            "writes acked host-side into the memtable", labels=("op",),
        )
        self._m_dropped = m.counter(
            "memtable_dropped_total",
            "miss writes short-circuited without any device work",
            labels=("op",),
        )
        self._m_compactions = m.counter(
            "memtable_compactions_total",
            "merge-compaction installs into the device layout",
        )
        self._m_rows = m.counter(
            "memtable_compacted_rows_total",
            "device rows scattered by compaction, by op class",
            labels=("op",),
        )
        self._m_folded = m.counter(
            "memtable_folded_ops_total",
            "absorbed ops retired without a device row (LWW folding)",
        )
        self._g_debt = m.gauge(
            "memtable_debt_segments",
            "sealed segments awaiting merge-compaction",
        )
        self._g_delta = m.gauge(
            "memtable_delta_keys", "keys with a pending effect in the delta",
        )

    # -- read side -----------------------------------------------------

    @property
    def debt(self) -> int:
        """Sealed segments awaiting compaction."""
        return len(self.sealed)

    def pending_ops(self) -> int:
        """Effective mutations not yet installed on the device."""
        return len(self.active.ops) + sum(len(s.ops) for s in self.sealed)

    def read(self, key) -> Optional[tuple[bool, object]]:
        """Read-your-writes: ``None`` when the key has no pending
        effect (go to the device), else ``(found, value)``."""
        return self.delta.read(key)

    # -- write side (the O(1) ack path) --------------------------------

    def absorb_update(self, key, value) -> bool:
        """Absorb one update; returns its hit/miss outcome exactly as a
        serial client would observe it.  Misses are dropped — the
        device would not mutate anything for them."""
        delta = self.delta
        entry = delta.entries.get(key)
        if entry is not None:
            if entry[0] == "absent":
                return self._drop("update")
        elif not delta.base_exists(key):
            return self._drop("update")
        delta.entries[key] = ("present", value)
        self._append("update", key, ("put", value))
        return True

    def absorb_delete(self, key) -> bool:
        """Absorb one delete; returns hit/miss.  Double deletes (and
        deletes of never-present keys) are dropped."""
        delta = self.delta
        entry = delta.entries.get(key)
        if entry is not None:
            if entry[0] == "absent":
                return self._drop("delete")
        elif not delta.base_exists(key):
            return self._drop("delete")
        delta.entries[key] = ("absent", None)
        self._append("delete", key, ("del", None))
        return True

    def absorb_insert(self, key, value) -> None:
        """Absorb one insert (upsert semantics, like the device
        kernel): the key is definitely present afterwards."""
        self.delta.entries[key] = ("present", value)
        self._append("insert", key, ("put", value))

    def _drop(self, op: str) -> bool:
        self.absorbed[op] = self.absorbed.get(op, 0) + 1
        self.dropped[op] = self.dropped.get(op, 0) + 1
        self._m_absorbed.labels(op=op).inc()
        self._m_dropped.labels(op=op).inc()
        return False

    def _append(self, op: str, key, entry: tuple) -> None:
        seq = self._op_seq
        self._op_seq = seq + 1
        seg = self.active
        if key in seg.ops:
            # within-segment LWW: the older op dies right here, before
            # the compactor ever sees it
            self.folded_away += 1
            self._m_folded.inc()
        seg.ops[key] = (entry[0], entry[1], seq)
        self.absorbed[op] = self.absorbed.get(op, 0) + 1
        self._m_absorbed.labels(op=op).inc()
        # the hot-key cache mirrors installed state: the write path
        # refreshes a resident key when compaction installs this row,
        # and until then reads of the key are answered from the delta
        if len(seg.ops) >= self.config.segment_ops:
            self.seal()

    def seal(self) -> None:
        """Seal the active segment (if non-empty) and open a new one."""
        if self.active.ops:
            self.sealed.append(self.active)
            self.active = Segment(self.active.seq + 1)
            debt = len(self.sealed)
            if debt > self.max_debt_seen:
                self.max_debt_seen = debt
            self._g_debt.set(debt)

    # -- merge-compaction ----------------------------------------------

    def device_healthy(self) -> bool:
        """False while the engine's device circuit is open — compaction
        holds (the debt is the replay log) rather than scattering into
        the degraded CPU path."""
        health = self.engine.device_health
        return health is None or health.healthy

    def should_compact(self) -> bool:
        """A non-forced compaction is due: debt over budget and the
        device circuit closed."""
        return len(self.sealed) > self.config.max_debt \
            and self.device_healthy()

    def compact(
        self,
        dispatch: Optional[Callable] = None,
        *,
        force: bool = False,
    ) -> Optional[dict]:
        """Seal the active segment and drain every sealed one into the
        device layout.

        ``dispatch(kind, payloads)`` scatters one folded class batch,
        ``write`` then ``insert`` (defaults to ``engine.submit``) —
        owners pass their own hook so compaction batches are accounted
        like any other flush; the pipeline's hook carries its queued
        lookups on the write batch's launch as stage 0 (or launches
        them alone before an insert batch), so those read the
        pre-install state.  ``force=True``
        dispatches even while the circuit is open (end of stream:
        correctness over cost; the engine's degrade path still applies
        the writes).  Returns a summary dict, or ``None`` when nothing
        was compacted (nothing pending, or deferred on an open circuit).
        """
        if not (force or self.device_healthy()):
            return None
        self.seal()
        if not self.sealed:
            return None
        sealed = self.sealed
        fold: dict = {}
        n_ops = 0
        while sealed:
            seg = sealed.popleft()
            n_ops += len(seg.ops)
            fold.update(seg.ops)

        engine = self.engine
        contains = engine.contains
        updates: list = []
        inserts: list = []
        deletes: list = []
        for key, (kind, value, seq) in fold.items():
            if kind == "put":
                # classification against the *applied* base decides the
                # kernel class: update scatters in place (byte-identical
                # to the serial history), insert claims a slot
                if contains(key):
                    updates.append((key, value, seq))
                else:
                    inserts.append((key, value, seq))
            elif contains(key):
                deletes.append((key, seq))
            # else: delete of a never-installed insert — fully cancelled

        n_rows = len(updates) + len(inserts) + len(deletes)

        if dispatch is None:
            dispatch = engine.submit
        # absorb order within each row kind keeps free-list push order (a
        # serialized part of the layout) identical to serial execution;
        # folded keys are distinct, so updates-then-deletes in one write
        # batch is the same launch order the device runs
        if updates or deletes:
            updates.sort(key=lambda t: t[2])
            deletes.sort(key=lambda t: t[1])
            dispatch("write", [(k, v) for k, v, _ in updates]
                     + [(k, None) for k, _ in deletes])
        if inserts:
            inserts.sort(key=lambda t: t[2])
            dispatch("insert", [(k, v) for k, v, _ in inserts])

        # install: retire folded keys from the delta (their entries now
        # restate applied state) and invalidate stale existence memos
        delta = self.delta
        for key in fold:
            delta.forget(key)

        self.compactions += 1
        self.dispatched_rows += n_rows
        self.folded_away += n_ops - n_rows
        self._m_compactions.inc()
        self._m_folded.inc(n_ops - n_rows)
        if updates:
            self._m_rows.labels(op="update").inc(len(updates))
        if deletes:
            self._m_rows.labels(op="delete").inc(len(deletes))
        if inserts:
            self._m_rows.labels(op="insert").inc(len(inserts))
        self._g_debt.set(len(self.sealed))
        self._g_delta.set(len(delta.entries))
        return {
            "ops_folded": n_ops,
            "keys": len(fold),
            "rows": n_rows,
            "updates": len(updates),
            "deletes": len(deletes),
            "inserts": len(inserts),
        }

    # -- reporting ------------------------------------------------------

    def absorbed_writes(self) -> int:
        return sum(self.absorbed.values())

    def absorbed_write_ratio(self) -> float:
        """Fraction of absorbed writes that never became a device row
        (miss drops + LWW folding); 0.0 until something was absorbed,
        and an *interim* number while debt is outstanding."""
        total = self.absorbed_writes()
        if not total:
            return 0.0
        return max(1.0 - self.dispatched_rows / total, 0.0)

    def stats(self) -> dict:
        """Lifetime counters for reports and the BENCH scenario."""
        return {
            "absorbed": dict(self.absorbed),
            "dropped": dict(self.dropped),
            "absorbed_writes": self.absorbed_writes(),
            "dispatched_rows": self.dispatched_rows,
            "folded_away": self.folded_away,
            "absorbed_write_ratio": round(self.absorbed_write_ratio(), 4),
            "compactions": self.compactions,
            "debt": len(self.sealed),
            "max_debt_seen": self.max_debt_seen,
            "pending_ops": self.pending_ops(),
            "delta_keys": len(self.delta.entries),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Memtable(compactions={self.compactions}, "
                f"debt={len(self.sealed)}, "
                f"pending={self.pending_ops()})")
