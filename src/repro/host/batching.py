"""Query coalescing (section 4.1).

"Queries are coalesced into batches in order to reduce the compute
overhead, typically with a power-of-two size to ease up scheduling and
optimal load on the GPUs."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, OCCUPANCY_BUCKETS
from repro.util.keys import keys_to_matrix
from repro.util.validation import require_power_of_two


@dataclass
class QueryBatch:
    """One coalesced batch ready for device dispatch."""

    keys_mat: np.ndarray
    key_lens: np.ndarray
    #: positions of these queries in the original stream (results are
    #: scattered back through this).
    origin: np.ndarray

    @property
    def size(self) -> int:
        return self.keys_mat.shape[0]


def coalesce(
    keys: Sequence[bytes], batch_size: int, *, width: int | None = None
) -> list[QueryBatch]:
    """Split a query stream into power-of-two batches (the final batch
    may be short — the device pads the launch, the model charges the full
    grid).

    The whole stream is encoded into *one* preallocated key matrix
    (:func:`repro.util.keys.keys_to_matrix` bulk path); every emitted
    batch is a zero-copy view of it.
    """
    require_power_of_two(batch_size, "batch_size")
    mat, lens = keys_to_matrix(keys, width=width)
    return coalesce_encoded(mat, lens, batch_size)


def coalesce_encoded(
    mat: np.ndarray, lens: np.ndarray, batch_size: int
) -> list[QueryBatch]:
    """Slice an already-encoded key matrix into batch views (no copies)."""
    require_power_of_two(batch_size, "batch_size")
    n = mat.shape[0]
    out = []
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        out.append(
            QueryBatch(
                keys_mat=mat[start:stop],
                key_lens=lens[start:stop],
                origin=np.arange(start, stop, dtype=np.int64),
            )
        )
    return out


def split_batch(batch: QueryBatch) -> list[QueryBatch]:
    """Halve a batch (stream order preserved) — used by the resilience
    layer when a capacity recovery is capped and a smaller dispatch may
    still fit."""
    if batch.size < 2:
        raise ReproError("cannot split a batch of fewer than 2 queries")
    mid = batch.size // 2
    return [
        QueryBatch(
            keys_mat=batch.keys_mat[:mid],
            key_lens=batch.key_lens[:mid],
            origin=batch.origin[:mid],
        ),
        QueryBatch(
            keys_mat=batch.keys_mat[mid:],
            key_lens=batch.key_lens[mid:],
            origin=batch.origin[mid:],
        ),
    ]


#: op kind -> coalescing class.  Updates and deletes share the ``write``
#: class: one §3.4 launch runs a batch's update rows, then its delete
#: rows ("the same implementation for both, signaling a deletion through
#: setting a nil pointer").  Every other kind is its own class.
OP_CLASS = {"update": "write", "delete": "write"}

#: op kinds a later same-class op on the same key may join in one batch
#: (multi-read; LWW-by-thread-index updates, and a delete after updates,
#: which the write launch's delete stage runs after its update stage).
_JOINABLE = frozenset({"lookup", "update"})

#: classes whose same-key ops share one device row (:func:`fold_writes`),
#: so their batch limit counts distinct keys rather than ops.
_FOLDED = frozenset({"write"})

#: per-key barrier flags sit this far above the class bits of the mask.
_BARRIER_SHIFT = 32
_CLASS_MASK = (1 << _BARRIER_SHIFT) - 1


def fold_writes(rows: list) -> tuple[list, np.ndarray]:
    """One device row per key of a write batch, and each input row's
    index into them.  A key's last row wins: a later update overwrites
    an earlier one (the launch's last-writer-wins by thread index), and
    a delete, which no later same-key write joins, ends the key's rows.
    Kept rows stay in stream order, so deletes free their slots in the
    order a serial run would.  Every row of one key in one launch sees
    the key's presence before the launch, so the launch's outcome fans
    back out through the index."""
    last = {row[0]: i for i, row in enumerate(rows)}
    keep = sorted(last.values())
    slot = {rows[i][0]: j for j, i in enumerate(keep)}
    back = np.fromiter((slot[row[0]] for row in rows), dtype=np.int64,
                       count=len(rows))
    return [rows[i] for i in keep], back


class OpClassCoalescer:
    """Per-op-class accumulation for mixed read/write streams (§3.1),
    with **key-level conflict tracking**.

    The naive executor cuts a device batch at *every* op-type boundary,
    fragmenting an interleaved OLTP stream into tiny batches that each
    pay a full kernel launch.  This coalescer instead accumulates ops in
    per-class queues: ``lookup``, ``write`` (updates and deletes, see
    :data:`OP_CLASS`) and ``insert``.  :meth:`add` takes the op kind
    and emits ``(class, payloads)`` batches.  Ops that touch
    *different* keys never force a flush, whatever their classes: a
    cross-class ordering requirement (a read issued after a write to
    the same key must observe the write) is recorded as an **edge** in
    a tiny dependency DAG over the class queues, and queues keep filling
    toward full batches.  A queue only flushes when

    * it reaches ``batch_size`` device rows (``size-full``): ops, or
      distinct keys for the ``write`` class, whose batch launches one
      row per key (:func:`fold_writes`) — its DAG ancestors flush
      first, in topological order (``dep-order``), so every recorded
      before/after relation holds at execution time; or
    * an incoming op genuinely **conflicts on a key** (``key-conflict``):
      it touches a key whose queued op in the *same* class it may not
      join, or the ordering edge it needs would close a cycle (e.g.
      ``update k → lookup k → update k``: the second update cannot both
      follow the queued lookup and share the queued write batch).
      Only the conflicting queue and its ancestors flush; every other
      queue keeps accumulating.

    Same-key co-accumulation within one class is allowed only where
    batching provably preserves serial semantics: repeated lookups of
    one key; repeated updates of one key (the device's intra-batch
    last-writer-wins by thread index equals serial last-wins); and a
    delete after queued updates of its key (the write launch runs its
    delete stage after its update stage, as serial order does).  Any
    same-class op after a queued delete or insert of its key does *not*
    commute — a second delete must report a miss, an update after a
    delete must miss, a re-insert must observe the first insert — so
    those flush their own class (``key-conflict``).

    Why per-key order is sufficient: device batches execute in flush
    order, and flushes always release ancestor-closed sets of queues in
    topological order, so every cross-class edge is honoured.  For each
    key, its pending ops always form a DAG *path* in stream order (two
    same-class ops separated by another class on the same key force a
    cycle, hence a flush), so serial per-key semantics — the property
    the lockstep oracle tests pin — are preserved exactly.
    """

    def __init__(
        self, batch_size: int, *, metrics: MetricsRegistry | None = None
    ) -> None:
        require_power_of_two(batch_size, "batch_size")
        self.batch_size = batch_size
        self._queues: dict[str, list] = {}
        self._order: list[str] = []
        #: per class, the distinct keys of its queued ops.
        self._keys: dict[str, list] = {}
        #: key -> bitmask of classes with a pending op on that key (the
        #: exact pending-key filter; bits assigned per class on demand),
        #: plus a barrier flag per class whose queued op on the key no
        #: later same-class op may join (a delete or an insert).
        self._pending: dict = {}
        self._bit_of: dict[str, int] = {}
        self._kind_of_bit: dict[int, str] = {}
        #: op kind -> (class, class bit, mask bits it sets on its key).
        self._op_info: dict[str, tuple] = {}
        #: direct ordering edges: ``preds[q]`` must all flush before q.
        self._preds: dict[str, set] = {}
        #: running count of flushed batches (stable batch-id sequence
        #: for the flight recorder, regardless of flush reason).
        self.batches_flushed = 0
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._flushes = metrics.counter(
            "coalescer_flushes_total",
            "batches flushed, by what forced the flush",
            labels=("reason",),
        )
        self._flush_full = self._flushes.labels(reason="size-full")
        self._flush_conflict = self._flushes.labels(reason="key-conflict")
        self._flush_order = self._flushes.labels(reason="dep-order")
        self._flush_drain = self._flushes.labels(reason="drain")
        self._flush_deadline = self._flushes.labels(reason="deadline")
        self._occupancy = metrics.histogram(
            "coalescer_batch_occupancy",
            "flushed batch size as a fraction of batch_size",
            buckets=OCCUPANCY_BUCKETS,
        )

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def flush_reasons(self) -> dict[str, int]:
        """Current ``{reason: batches}`` tallies (registry-backed)."""
        return {
            "size-full": self._flush_full.value,
            "key-conflict": self._flush_conflict.value,
            "dep-order": self._flush_order.value,
            "drain": self._flush_drain.value,
            "deadline": self._flush_deadline.value,
        }

    # -- dependency bookkeeping -------------------------------------------
    def _classify(self, kind: str) -> tuple:
        """Resolve (and cache) an op kind's class, class bit and mask."""
        cls = OP_CLASS.get(kind, kind)
        bit = self._bit_of.get(cls)
        if bit is None:
            bit = 1 << len(self._bit_of)
            self._bit_of[cls] = bit
            self._kind_of_bit[bit] = cls
        mark = bit if kind in _JOINABLE else bit | (bit << _BARRIER_SHIFT)
        info = self._op_info[kind] = (cls, bit, mark)
        return info

    def _ancestors(self, kind: str) -> set:
        """Transitive predecessor closure of one class (excludes it)."""
        seen: set = set()
        stack = list(self._preds.get(kind, ()))
        while stack:
            p = stack.pop()
            if p not in seen:
                seen.add(p)
                stack.extend(self._preds.get(p, ()))
        return seen

    def _closure_in_order(self, kinds) -> list[str]:
        """Topologically order a predecessor-closed class set; ties break
        by first-arrival order (the DAG has at most a handful of nodes,
        and this only runs on flush events)."""
        member = [k for k in self._order if k in kinds]
        out: list[str] = []
        placed: set = set()
        while member:
            for k in member:
                if all(p in placed or p not in kinds
                       for p in self._preds.get(k, ())):
                    out.append(k)
                    placed.add(k)
                    member.remove(k)
                    break
            else:  # pragma: no cover - the graph is acyclic by construction
                out.extend(member)
                break
        return out

    def pending_kinds(self) -> tuple:
        """Op classes with a non-empty queue, in first-arrival order."""
        return tuple(self._order)

    def peek_oldest(self, kind: str):
        """First (oldest) queued payload of one class, or ``None`` —
        the serving front-end reads its enqueue stamp to decide when the
        class's batch-close deadline fires."""
        q = self._queues.get(kind)
        return q[0] if q else None

    def flush_due(self, kind: str) -> list[tuple[str, list]]:
        """Deadline batch-close (the serving front-end's timer path):
        flush one class and its ordering ancestors now, charged to the
        ``deadline`` flush reason."""
        if kind not in self._queues:
            return []
        return self._flush_with_ancestors(kind, self._flush_deadline)

    def _rows(self, kind: str) -> int:
        """Device rows one class queue would launch."""
        return len(self._keys[kind] if kind in _FOLDED
                   else self._queues[kind])

    def _pop_queue(self, kind: str) -> list:
        """Remove one class queue and every trace of it (pending-key
        bits, ordering edges, arrival order)."""
        self.batches_flushed += 1
        self._occupancy.observe(self._rows(kind) / self.batch_size)
        q = self._queues.pop(kind)
        self._order.remove(kind)
        bit = self._bit_of[kind]
        bit |= bit << _BARRIER_SHIFT
        pending = self._pending
        for k in self._keys.pop(kind):
            m = pending.get(k)
            if m is not None:
                m &= ~bit
                if m:
                    pending[k] = m
                else:
                    del pending[k]
        self._preds.pop(kind, None)
        for ps in self._preds.values():
            ps.discard(kind)
        return q

    def _flush_with_ancestors(
        self, kind: str, reason_counter, *, cascade_counter=None
    ) -> list[tuple[str, list]]:
        """Flush one class preceded by its DAG ancestors, in dependency
        order.  The target class is charged to ``reason_counter``; the
        ancestors to ``cascade_counter`` (default: same reason)."""
        if cascade_counter is None:
            cascade_counter = reason_counter
        closure = self._ancestors(kind)
        closure.add(kind)
        out: list[tuple[str, list]] = []
        for k in self._closure_in_order(closure):
            q = self._pop_queue(k)
            (reason_counter if k == kind else cascade_counter).inc()
            out.append((k, q))
        return out

    def add(self, kind: str, key, payload) -> tuple:
        """Queue one op of kind ``lookup`` / ``update`` / ``delete`` /
        ``insert``; returns ``((class, payloads), ...)`` batches that
        must execute *now*, in order (key-conflict flushes and/or a full
        class with its ordering ancestors).  The common case — no pending
        op on the key, queue not full — is a handful of dict/list ops."""
        info = self._op_info.get(kind)
        if info is None:
            info = self._classify(kind)
        cls, bit, mark = info
        pending = self._pending
        mask = pending.get(key)
        if not mask:
            q = self._queues.get(cls)
            if q is None:
                q = self._queues[cls] = []
                self._keys[cls] = []
                self._order.append(cls)
            q.append(payload)
            self._keys[cls].append(key)
            pending[key] = mark
            if self._rows(cls) >= self.batch_size:
                return tuple(self._flush_with_ancestors(
                    cls, self._flush_full, cascade_counter=self._flush_order
                ))
            return ()
        out: list[tuple[str, list]] = []
        if mask & (bit << _BARRIER_SHIFT):
            # same-class op after a queued delete / insert of this key
            # (delete-delete, delete-update, insert-insert): the queued
            # op must complete first
            out.extend(
                self._flush_with_ancestors(cls, self._flush_conflict)
            )
            mask = pending.get(key, 0)
        m = mask & _CLASS_MASK & ~bit
        while m:
            pbit = m & -m
            m &= m - 1
            prev = self._kind_of_bit[pbit]
            # the new op must execute after `prev`'s queue: record
            # the edge, unless it would close a cycle — then `prev`
            # (and its ancestors, which include this class) flush now
            if cls in self._ancestors(prev):
                out.extend(
                    self._flush_with_ancestors(prev, self._flush_conflict)
                )
            elif prev in self._queues:
                self._preds.setdefault(cls, set()).add(prev)
        q = self._queues.get(cls)
        if q is None:
            q = self._queues[cls] = []
            self._keys[cls] = []
            self._order.append(cls)
        q.append(payload)
        mask = pending.get(key, 0)
        if not mask & bit:
            self._keys[cls].append(key)
        pending[key] = mask | mark
        if self._rows(cls) >= self.batch_size:
            out.extend(
                self._flush_with_ancestors(
                    cls, self._flush_full, cascade_counter=self._flush_order
                )
            )
        return tuple(out)

    def drain(self) -> list[tuple[str, list]]:
        """Flush every queue in dependency order (ties by first-arrival
        class order), clearing all pending-key and edge state."""
        out: list[tuple[str, list]] = []
        for k in self._closure_in_order(set(self._order)):
            q = self._pop_queue(k)
            self._flush_drain.inc()
            out.append((k, q))
        return out


class QueryBatcher:
    """Streaming variant: accumulates queries and emits full batches.

    Mirrors the paper's host threads which pull queries from the workload
    generator and ship power-of-two batches to their stream.
    """

    def __init__(self, batch_size: int, *, width: int) -> None:
        require_power_of_two(batch_size, "batch_size")
        if width <= 0:
            raise ReproError(f"width must be positive, got {width}")
        self.batch_size = batch_size
        self.width = width
        self._pending: list[bytes] = []
        self._next_origin = 0

    def add(self, key: bytes) -> QueryBatch | None:
        """Queue one query; returns a full batch when one completes."""
        self._pending.append(key)
        if len(self._pending) >= self.batch_size:
            return self._emit()
        return None

    def add_many(self, keys: Sequence[bytes]) -> Iterator[QueryBatch]:
        for k in keys:
            batch = self.add(k)
            if batch is not None:
                yield batch

    def flush(self) -> QueryBatch | None:
        """Emit the final partial batch, if any."""
        if self._pending:
            return self._emit()
        return None

    def _emit(self) -> QueryBatch:
        chunk = self._pending
        self._pending = []
        mat, lens = keys_to_matrix(chunk, width=self.width)
        origin = np.arange(
            self._next_origin, self._next_origin + len(chunk), dtype=np.int64
        )
        self._next_origin += len(chunk)
        return QueryBatch(keys_mat=mat, key_lens=lens, origin=origin)
