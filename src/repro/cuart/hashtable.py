"""GPU-style open-addressing hash tables with atomic-max semantics
(section 3.4, after Farrell's "A Simple GPU Hash Table" [4]).

The update engine uses a conflict table to resolve write conflicts inside
a batch: every thread inserts ``(leaf location → its thread index)`` and
the table keeps the *maximum* thread index per location ("storing the
maximum element index that performs an update to a certain leaf").

Two layouts are provided behind one interface:

* :class:`AtomicMaxHashTable` — the paper's plain per-slot linear
  probing ("handled by simple linear probing as described in ref. [4]").
  Every probe step is one 16-byte memory transaction plus one atomic;
  the probe statistics are what produce figure 15's throughput collapse:
  "for larger trees and large batches, hash table collisions become
  quite frequent and then the linear probing algorithm causes the update
  throughput to drop".

* :class:`BucketedAtomicMaxHashTable` — the cache-line-aware fix from
  the bucketed-cuckoo / WarpSpeed line of work: slots are grouped into
  128-byte buckets of 8 records, keys hash to a *bucket*, and a warp
  probes cooperatively — one coalesced 128-byte transaction inspects a
  whole bucket, one lane CAS-claims an empty record inside it, and the
  group only advances when the bucket is full.  Probe chains shrink by
  the bucket fan-out and duplicate threads in a warp share the
  transaction, which is where the ≥4× device-traffic drop comes from.

Both tables are simulated deterministically but charge realistic costs:
the record each distinct key claims is computed by the same probe race a
CUDA ``atomicCAS`` loop runs (ties broken toward the lowest contender
index, a deterministic stand-in for hardware arbitration), and memory
traffic/atomics are recorded against the :class:`TransactionLog` at the
granularity the layout actually issues — per slot for linear, per
``(round, warp, bucket)`` coalesced group for bucketed (see
:func:`repro.gpusim.simt.bucket_probe_groups`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashTableFullError, SimulationError
from repro.gpusim.simt import bucket_probe_groups
from repro.gpusim.transactions import TransactionLog

#: Murmur3 64-bit finalizer constants (ref [4] hashes with Murmur3; a
#: plain multiplicative hash is low-discrepancy on the near-sequential
#: leaf indices inside packed links, which understates the collision
#: regime the paper measures).
_MIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT_33 = np.uint64(33)


def _mix(keys: np.ndarray) -> np.ndarray:
    """Murmur3 ``fmix64`` avalanche over an array of uint64 keys."""
    k = keys.astype(np.uint64)
    k = k ^ (k >> _SHIFT_33)
    k = k * _MIX_1
    k = k ^ (k >> _SHIFT_33)
    k = k * _MIX_2
    return k ^ (k >> _SHIFT_33)


#: slot record: 8-byte key + 8-byte value, read/written atomically.
SLOT_BYTES = 16
#: records per cache-line bucket in the bucketed layout.
BUCKET_RECORDS = 8
#: one bucket is exactly one 128-byte cache line / max-size transaction.
BUCKET_BYTES = BUCKET_RECORDS * SLOT_BYTES
#: reserved empty-slot marker (a packed link of 0 is the EMPTY link and
#: never a leaf location, so 0 is safe).
EMPTY_KEY = np.uint64(0)

#: selectable conflict-table layouts (``EngineConfig.hash_table``).
HASH_TABLE_VARIANTS = ("linear", "bucketed")


def _dedup(keys: np.ndarray):
    """One stable sort shared by dedup and the per-key group reduce.

    ``np.unique(return_inverse=True)`` plus a later ``argsort(inverse)``
    would sort the batch twice; this returns everything both consumers
    need from a single pass: ``(uniq, inverse, order, bounds)`` where
    ``keys[order]`` is sorted and ``bounds`` are the group starts within
    it (``np.maximum.reduceat``-ready).
    """
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    first = np.empty(sk.size, dtype=bool)
    first[0] = True
    np.not_equal(sk[1:], sk[:-1], out=first[1:])
    uniq = sk[first]
    inverse = np.empty(sk.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    bounds = np.nonzero(first)[0]
    return uniq, inverse, order, bounds


def _bucket_ranks(cb: np.ndarray):
    """Rank each contender within its bucket, lowest contender first.

    Contender order is encoded into a composite sort key (bucket * m +
    index — collision-free, so the cheaper non-stable sort suffices) and
    ranks are positions within each bucket's contiguous run.
    """
    m = cb.size
    idx = np.arange(m, dtype=np.int64)
    order = np.argsort(cb * np.int64(m) + idx)
    scb = cb[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(scb[1:], scb[:-1], out=first[1:])
    rank = idx - np.maximum.accumulate(np.where(first, idx, 0))
    return order, rank


def _merged(old_arr: np.ndarray, old: np.ndarray, at: np.ndarray, new):
    """``old_arr`` spread over the ``old`` positions of a longer array
    whose positions ``at`` hold ``new``."""
    out = np.empty(old.size, dtype=old_arr.dtype)
    out[old] = old_arr
    out[at] = new
    return out


class _ConflictTableBase:
    """State, stats and the atomic-max merge shared by both layouts.

    The simulated table has ``slots`` records, but the host keeps only
    the ones a batch claimed: their slot ids, sorted, with each slot's
    key and max-priority, then one sentinel record (slot ``slots``, no
    real slot) that ends every search.  Every other slot is empty, so a
    read of any slot is one binary search over the claimed records, and
    the host state is proportional to the distinct keys, not to
    ``slots``.
    """

    #: layout name, matching :data:`HASH_TABLE_VARIANTS`.
    variant = "base"

    def __init__(self, slots: int, log: TransactionLog | None = None) -> None:
        if slots <= 0 or slots & (slots - 1):
            raise SimulationError(
                f"hash table size must be a power of two, got {slots}"
            )
        self.slots = slots
        self.log = log
        self.reset()

    @property
    def occupied(self) -> int:
        """Slots claimed since the last reset."""
        return self._slot.size - 1

    @property
    def load_factor(self) -> float:
        return self.occupied / self.slots

    def reset(self) -> None:
        """Clear between batches (the real kernel memsets the table).

        Probe statistics restart too, so a reused table reports the same
        per-batch numbers a freshly constructed one would.  Dropping the
        claimed records empties every slot, in O(1)."""
        self._slot = np.array([self.slots], dtype=np.int64)
        self._key = np.array([EMPTY_KEY], dtype=np.uint64)
        self._val = np.array([-1], dtype=np.int64)
        self.total_probes = 0
        self.max_probe = 0
        # device-cost tallies since the last reset, tracked even when no
        # TransactionLog is attached so engines can export them as
        # metrics: memory transactions issued, coalesced probe groups
        # (== transactions for the bucketed layout; one per probe step
        # for linear), and atomic operations.
        self.transactions = 0
        self.probe_groups = 0
        self.atomics = 0

    # ------------------------------------------------------------------
    def _keys_at(self, slots: np.ndarray) -> np.ndarray:
        """The key each of ``slots`` holds, ``EMPTY_KEY`` where none was
        claimed (any shape)."""
        pos = self._slot.searchsorted(slots)
        return np.where(self._slot[pos] == slots, self._key[pos], EMPTY_KEY)

    def _values_at(self, slots: np.ndarray) -> np.ndarray:
        """The stored maxima of claimed ``slots``."""
        return self._val[self._slot.searchsorted(slots)]

    def _claim(self, slots: np.ndarray, keys: np.ndarray) -> None:
        """Record one round's CAS winners: ``slots`` (empty until now, and
        ascending, as both races find their winners in slot order) hold
        ``keys``, at priority -1 until the merge.  They are merged into
        the sorted records by position."""
        at = self._slot.searchsorted(slots) + np.arange(slots.size)
        old = np.ones(self._slot.size + slots.size, dtype=bool)
        old[at] = False
        self._slot = _merged(self._slot, old, at, slots)
        self._key = _merged(self._key, old, at, keys)
        self._val = _merged(self._val, old, at, -1)

    def _check_keys(self, keys: np.ndarray) -> None:
        if np.any(keys == EMPTY_KEY):
            raise SimulationError("key 0 is reserved as the empty-slot marker")

    def _full_error(self, requested: int) -> HashTableFullError:
        return HashTableFullError(
            "distinct keys exceed the free slots; increase the table "
            "('simply increasing the hash table size promises better "
            "results', section 4.5)",
            buffer="hash-table", slots=self.slots,
            occupied=self.occupied, requested=int(requested),
        )

    def _merge_max(
        self, slot_of: np.ndarray, priorities: np.ndarray,
        order: np.ndarray, bounds: np.ndarray,
    ) -> np.ndarray:
        """Atomic max per distinct key: reduce each key's contenders to
        one candidate, then one vectorized max-merge into the table
        (``slot_of`` is one distinct slot per key, so the fancy
        assignment never collides).  ``order``/``bounds`` come from the
        :func:`_dedup` pass — sorting by key groups the contenders.
        Returns each key's merged maximum."""
        grp_max = np.maximum.reduceat(priorities[order], bounds)
        pos = self._slot.searchsorted(slot_of)
        merged = np.maximum(self._val[pos], grp_max)
        self._val[pos] = merged
        return merged


class AtomicMaxHashTable(_ConflictTableBase):
    """Fixed-capacity linear-probe table: ``uint64 key → int64 max``."""

    variant = "linear"

    def __init__(self, slots: int, log: TransactionLog | None = None) -> None:
        super().__init__(slots, log)
        self._mask = np.uint64(slots - 1)

    # ------------------------------------------------------------------
    def _hash(self, keys: np.ndarray) -> np.ndarray:
        return _mix(keys) & self._mask

    # ------------------------------------------------------------------
    def insert_max(self, keys: np.ndarray, priorities: np.ndarray) -> None:
        """All "threads" insert concurrently; per distinct key the table
        retains the maximum priority.

        Probe accounting: a thread probes from ``hash(key)`` until it
        finds its key or claims an empty slot; its probe count is the
        distance to the key's final slot.  All threads sharing a key pay
        the same distance (they re-walk the same probe chain), which is
        exactly the CUDA behaviour.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        priorities = np.asarray(priorities, dtype=np.int64)
        if keys.size == 0:
            return
        self._check_keys(keys)

        uniq, inverse, order, bounds = _dedup(keys)
        slot_of = self._place(uniq)  # may raise HashTableFullError

        probes_per_key = self._probe_distances(uniq, slot_of)
        self._charge_insert(keys, probes_per_key, inverse)
        self._merge_max(slot_of, priorities, order, bounds)

    def resolve_winners(
        self, keys: np.ndarray, priorities: np.ndarray
    ) -> np.ndarray:
        """Insert + grid sync + read-back fused into one vectorized pass.

        Semantically identical to ``insert_max(keys, priorities)`` followed
        by ``lookup(keys) == priorities``, and it charges exactly the same
        transactions for both phases — but the read-back reuses the slot
        positions the probing pass already computed instead of re-walking
        every probe chain on the host, so one batch costs a single
        linear-probe pass.  Returns the per-thread winner mask (at most
        one ``True`` per distinct key).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        priorities = np.asarray(priorities, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        self._check_keys(keys)

        uniq, inverse, order, bounds = _dedup(keys)
        slot_of = self._place(uniq)  # may raise HashTableFullError

        probes_per_key = self._probe_distances(uniq, slot_of)
        self._charge_insert(keys, probes_per_key, inverse)

        # atomic max per distinct key (the __syncthreads() boundary)
        maxima = self._merge_max(slot_of, priorities, order, bounds)

        # read-back phase: same accounting as lookup — every distinct
        # key re-walks its probe chain once to read the stored max
        readback = int(probes_per_key.sum())
        self.transactions += readback
        self.probe_groups += readback
        if self.log is not None:
            self.log.begin_round(int(keys.size))
            self.log.record(SLOT_BYTES, readback)
            self.log.rounds[-1].distinct_bytes = self.slots * SLOT_BYTES
        return maxima[inverse] == priorities

    def _probe_distances(
        self, uniq: np.ndarray, slot_of: np.ndarray
    ) -> np.ndarray:
        """Per distinct key: probe-chain length to its final slot."""
        home = self._hash(uniq)
        dist = (slot_of.astype(np.uint64) - home) & self._mask
        return dist.astype(np.int64) + 1

    def _charge_insert(
        self, keys: np.ndarray, probes_per_key: np.ndarray,
        inverse: np.ndarray,
    ) -> None:
        """Per-thread probe distance = distance of its key's slot; every
        probe step is one 16-byte transaction plus an atomicCAS attempt,
        and every thread ends with one atomicMax on its key's slot."""
        thread_probes = probes_per_key[inverse]
        total_probes = int(thread_probes.sum())
        self.total_probes += total_probes
        self.max_probe = max(self.max_probe, int(probes_per_key.max()))
        atomics = total_probes + int(keys.size)
        self.transactions += total_probes
        self.probe_groups += total_probes
        self.atomics += atomics
        if self.log is not None:
            # the table is its own dependent phase with its own working
            # set: the full slot array competes for L2 (a 1Mi-entry table
            # is 16 MiB — never resident, which is why collisions hurt)
            self.log.begin_round(int(keys.size))
            self.log.record(SLOT_BYTES, total_probes)
            self.log.rounds[-1].distinct_bytes = self.slots * SLOT_BYTES
            self.log.record_atomics(atomics)

    def _place(self, uniq: np.ndarray) -> np.ndarray:
        """Claim one slot per distinct key via the linear-probe race.

        In round ``r`` a key stands on slot ``home + r``.  A key claimed
        by an earlier call stops at its own slot, and every slot before
        it on its chain is claimed, so it never contends.  A new key
        steps past every slot another key holds; on an empty slot the
        lowest-index contender wins the CAS (a deterministic stand-in
        for the hardware arbitration) and the others step on.  Claims
        last until the reset, so a key that meets a claimed slot crosses
        that whole run of claimed slots unopposed: it jumps to the
        round in which it reaches the slot after the run, and only the
        rounds in which some key reaches an unclaimed slot are visited.
        """
        n = uniq.size
        if n > self.slots - self.occupied:
            raise self._full_error(n)
        slot_of = self._own_slots(uniq)
        pending = np.flatnonzero(slot_of < 0)
        due_round = np.zeros(n, dtype=np.int64)
        home = self._hash(uniq).astype(np.int64)
        mask = self.slots - 1
        while pending.size:
            rnd = due_round[pending].min()
            due = pending[due_round[pending] == rnd]  # ascending contenders
            cand = (home[due] + rnd) & mask
            rows = np.flatnonzero(self._keys_at(cand) == EMPTY_KEY)
            if rows.size:
                # composite key = slot * m + contender: collision-free,
                # so the cheaper non-stable sort ranks contenders per
                # slot lowest-index first
                order = rows[np.argsort(
                    cand[rows] * np.int64(rows.size)
                    + np.arange(rows.size, dtype=np.int64))]
                first = np.ones(order.size, dtype=bool)
                first[1:] = cand[order[1:]] != cand[order[:-1]]
                won = order[first]
                slot_of[due[won]] = cand[won]
                self._claim(cand[won], uniq[due[won]])
            left = slot_of[due] < 0
            due_round[due[left]] = rnd + self._run_gaps(cand[left])
            pending = pending[slot_of[pending] < 0]
        return slot_of

    def _own_slots(self, uniq: np.ndarray) -> np.ndarray:
        """The slot each key holds from an earlier call, else -1."""
        out = np.full(uniq.size, -1, dtype=np.int64)
        if self.occupied:
            by_key = np.argsort(self._key[:-1])
            skeys = self._key[by_key]
            i = np.minimum(np.searchsorted(skeys, uniq), skeys.size - 1)
            hit = skeys[i] == uniq
            out[hit] = self._slot[by_key[i[hit]]]
        return out

    def _run_gaps(self, claimed: np.ndarray) -> np.ndarray:
        """For each claimed slot, the distance to the slot after the run
        of consecutive claimed slots it is in (a run reaching the last
        slot ends there; the key then meets slot 0 and jumps again)."""
        s = self._slot[:-1]
        run_last = s[np.append(np.flatnonzero(np.diff(s) != 1), s.size - 1)]
        return run_last[np.searchsorted(run_last, claimed)] + 1 - claimed

    # ------------------------------------------------------------------
    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Read back the stored maxima (stage-3 read of section 3.4).

        Probe accounting matches the write path: the chain steps walked
        here fold into ``total_probes``/``max_probe`` exactly like the
        transactions they are charged as, so per-batch probe stats cover
        the read-back too.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.full(keys.size, -1, dtype=np.int64)
        if keys.size == 0:
            return out
        uniq, inverse = np.unique(keys, return_inverse=True)
        home = self._hash(uniq)
        found_val = np.full(uniq.size, -1, dtype=np.int64)
        steps = np.zeros(uniq.size, dtype=np.int64)
        pending = np.arange(uniq.size)
        probe = np.zeros(uniq.size, dtype=np.uint64)
        for _ in range(self.slots):
            if pending.size == 0:
                break
            cand = ((home[pending] + probe[pending]) & self._mask).astype(np.int64)
            slot_keys = self._keys_at(cand)
            hit = slot_keys == uniq[pending]
            miss_end = slot_keys == EMPTY_KEY
            steps[pending] += 1
            found_val[pending[hit]] = self._values_at(cand[hit])
            pending = pending[~(hit | miss_end)]
            probe += np.uint64(1)
        probes_done = int(steps.sum())
        self.total_probes += probes_done
        self.max_probe = max(self.max_probe, int(steps.max()))
        self.transactions += probes_done
        self.probe_groups += probes_done
        if self.log is not None:
            self.log.begin_round(int(keys.size))
            self.log.record(SLOT_BYTES, probes_done)
            self.log.rounds[-1].distinct_bytes = self.slots * SLOT_BYTES
        return found_val[inverse]


class BucketedAtomicMaxHashTable(_ConflictTableBase):
    """Cache-line-bucketed table probed warp-cooperatively.

    The ``slots`` records are grouped into ``slots // 8`` buckets of
    eight 16-byte records (one 128-byte cache line each).  Keys hash to
    a bucket; a warp inspects the whole bucket in one coalesced
    transaction, each contending lane CAS-claims a distinct empty record
    (contenders are served in priority order — lowest contender index
    first — filling the bucket's empty records in slot order), and a
    lane advances to the next bucket only when the bucket it probed was
    left full.  That advance rule preserves the linear-probing miss
    invariant at bucket granularity: a probed bucket containing an empty
    record proves the key is absent.

    Winner semantics are identical to the linear table — both keep the
    per-distinct-key maximum priority — so the two layouts are drop-in
    interchangeable and differ only in device cost.
    """

    variant = "bucketed"

    def __init__(self, slots: int, log: TransactionLog | None = None) -> None:
        if slots < BUCKET_RECORDS:
            raise SimulationError(
                f"bucketed table needs at least {BUCKET_RECORDS} slots "
                f"(one full bucket), got {slots}"
            )
        super().__init__(slots, log)
        self.n_buckets = slots // BUCKET_RECORDS
        self._bucket_mask = np.uint64(self.n_buckets - 1)
        self._rec_off = np.arange(BUCKET_RECORDS, dtype=np.int64)

    # ------------------------------------------------------------------
    def _hash(self, keys: np.ndarray) -> np.ndarray:
        """Bucket index (not record index) for each key."""
        return _mix(keys) & self._bucket_mask

    # ------------------------------------------------------------------
    def insert_max(self, keys: np.ndarray, priorities: np.ndarray) -> None:
        """All "threads" insert concurrently; per distinct key the table
        retains the maximum priority.  See :meth:`_charge` for the
        warp-cooperative cost accounting."""
        keys = np.asarray(keys, dtype=np.uint64)
        priorities = np.asarray(priorities, dtype=np.int64)
        if keys.size == 0:
            return
        self._check_keys(keys)

        uniq, inverse, order, bounds = _dedup(keys)
        slot_of, steps_per_key, cas = self._place(uniq)
        self._charge(keys, steps_per_key, inverse, cas=cas)
        self._merge_max(slot_of, priorities, order, bounds)

    def resolve_winners(
        self, keys: np.ndarray, priorities: np.ndarray
    ) -> np.ndarray:
        """Insert + grid sync + read-back fused into one pass (same
        contract as :meth:`AtomicMaxHashTable.resolve_winners`).

        The read-back matches the linear table's accounting contract:
        every *distinct* key re-walks its bucket chain once (duplicate
        threads read the same lines through L2 for free in this model —
        the linear table makes the identical per-distinct assumption),
        modeled as a compacted pass with one lane per distinct key.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        priorities = np.asarray(priorities, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        self._check_keys(keys)

        uniq, inverse, order, bounds = _dedup(keys)
        slot_of, steps_per_key, cas = self._place(uniq)
        self._charge(keys, steps_per_key, inverse, cas=cas)

        # atomic max per distinct key (the __syncthreads() boundary)
        maxima = self._merge_max(slot_of, priorities, order, bounds)

        counts = bucket_probe_groups(
            self._hash(uniq).astype(np.int64),
            steps_per_key, self.n_buckets,
        )
        n_groups = int(counts.size)
        self.transactions += n_groups
        self.probe_groups += n_groups
        if self.log is not None:
            self.log.begin_round(int(keys.size))
            self.log.record(BUCKET_BYTES, n_groups)
            self.log.rounds[-1].distinct_bytes = self.slots * SLOT_BYTES
        return maxima[inverse] == priorities

    def _charge(
        self, keys: np.ndarray, steps_per_key: np.ndarray,
        inverse: np.ndarray, *, cas: int,
    ) -> int:
        """Charge one probing pass; returns the coalesced group count.

        Per-thread probe *steps* are bucket visits (all threads sharing
        a key re-walk the same bucket chain), but the transactions
        charged are the distinct ``(round, warp, bucket)`` groups — a
        warp's lanes probing the same bucket in the same lockstep round
        share one 128-byte transaction.  Atomics are one CAS per
        contender round that saw an empty record, plus one atomicMax per
        thread; key matches are resolved by the cooperative read and
        need no atomic.
        """
        thread_steps = steps_per_key[inverse]
        self.total_probes += int(thread_steps.sum())
        self.max_probe = max(self.max_probe, int(steps_per_key.max()))
        home_threads = self._hash(keys).astype(np.int64)
        counts = bucket_probe_groups(home_threads, thread_steps, self.n_buckets)
        n_groups = int(counts.size)
        atomics = cas + int(keys.size)
        self.transactions += n_groups
        self.probe_groups += n_groups
        self.atomics += atomics
        if self.log is not None:
            self.log.begin_round(int(keys.size))
            self.log.record(BUCKET_BYTES, n_groups)
            self.log.rounds[-1].distinct_bytes = self.slots * SLOT_BYTES
            self.log.record_atomics(atomics)
        return n_groups

    def _place(
        self, uniq: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Claim one record per distinct key via the bucket-claim race.

        Returns ``(slot_of, steps_per_key, cas_attempts)`` where
        ``steps_per_key`` counts the buckets each key probed.
        """
        n = uniq.size
        if n > self.slots - self.occupied:
            raise self._full_error(n)
        slot_of = np.full(n, -1, dtype=np.int64)
        steps = np.zeros(n, dtype=np.int64)
        pending = np.arange(n)
        probe = np.zeros(n, dtype=np.int64)
        home = self._hash(uniq).astype(np.int64)
        bmask = self.n_buckets - 1
        cas = 0
        for _ in range(self.n_buckets):
            if pending.size == 0:
                break
            cb = (home[pending] + probe[pending]) & bmask
            base = cb * BUCKET_RECORDS
            steps[pending] += 1
            if self.occupied == 0:
                # post-reset fast path (the common first round): every
                # bucket is known all-empty, so the cooperative read is
                # free and the race reduces to ranking contenders per
                # bucket — the first eight claim records 0..7 in order
                order, rank = _bucket_ranks(cb)
                wins = rank < BUCKET_RECORDS
                w_rows = order[wins]
                roff = rank[wins]
                claim_slots = base[w_rows] + roff
                self._claim(claim_slots, uniq[pending[w_rows]])
                cas += pending.size  # every contender saw an empty
                win = np.zeros(pending.size, dtype=bool)
                win[w_rows] = True
                slot_of[pending[w_rows]] = claim_slots
                probe[pending[~win]] += 1
                pending = pending[~win]
                continue
            rec = self._keys_at(base[:, None] + self._rec_off)  # (m, 8)
            # already claimed by the same key (an earlier insert_max call)
            match = rec == uniq[pending][:, None]
            same = match.any(axis=1)
            win = np.zeros(pending.size, dtype=bool)
            claim_off = np.zeros(pending.size, dtype=np.int64)
            cont = np.nonzero(~same)[0]
            if cont.size:
                empty = rec[cont] == EMPTY_KEY  # (c, 8)
                n_empty = empty.sum(axis=1)
                cas += int((n_empty > 0).sum())
                # contenders racing for one bucket are served lowest
                # contender index first (deterministic CAS arbitration),
                # filling the bucket's empty records in slot order;
                # contenders beyond the empties lose and advance — the
                # bucket they leave behind is full, preserving the
                # miss-termination invariant
                order, rank = _bucket_ranks(cb[cont])
                wins_sorted = rank < n_empty[order]
                if wins_sorted.any():
                    w_rows = cont[order[wins_sorted]]
                    w_rank = rank[wins_sorted]
                    emask = rec[w_rows] == EMPTY_KEY
                    csum = np.cumsum(emask, axis=1)
                    pick = emask & (csum == (w_rank + 1)[:, None])
                    roff = pick.argmax(axis=1)
                    self._claim(base[w_rows] + roff, uniq[pending[w_rows]])
                    win[w_rows] = True
                    claim_off[w_rows] = roff
            done = same | win
            off = np.where(same, match.argmax(axis=1), claim_off)
            slot_of[pending[done]] = base[done] + off[done]
            probe[pending[~done]] += 1
            pending = pending[~done]
        if (slot_of < 0).any():  # pragma: no cover - defensive
            raise HashTableFullError(
                "probe cycle exhausted without placement",
                buffer="hash-table", slots=self.slots,
                occupied=self.occupied, requested=int(n),
            )
        return slot_of, steps, cas

    # ------------------------------------------------------------------
    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Read back the stored maxima (stage-3 read of section 3.4).

        A probed bucket containing an empty record and not the key
        proves the key absent (the bucket-granularity miss invariant);
        probe steps fold into ``total_probes``/``max_probe`` and each
        coalesced group is charged as one 128-byte transaction.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.full(keys.size, -1, dtype=np.int64)
        if keys.size == 0:
            return out
        uniq, inverse = np.unique(keys, return_inverse=True)
        home = self._hash(uniq).astype(np.int64)
        bmask = self.n_buckets - 1
        found_val = np.full(uniq.size, -1, dtype=np.int64)
        steps = np.zeros(uniq.size, dtype=np.int64)
        pending = np.arange(uniq.size)
        probe = np.zeros(uniq.size, dtype=np.int64)
        for _ in range(self.n_buckets):
            if pending.size == 0:
                break
            cb = (home[pending] + probe[pending]) & bmask
            base = cb * BUCKET_RECORDS
            rec = self._keys_at(base[:, None] + self._rec_off)
            steps[pending] += 1
            match = rec == uniq[pending][:, None]
            hit = match.any(axis=1)
            miss_end = (rec == EMPTY_KEY).any(axis=1) & ~hit
            hit_slots = base[hit] + match[hit].argmax(axis=1)
            found_val[pending[hit]] = self._values_at(hit_slots)
            probe[pending] += 1
            pending = pending[~(hit | miss_end)]
        self.total_probes += int(steps.sum())
        self.max_probe = max(self.max_probe, int(steps.max()))
        home_threads = self._hash(keys).astype(np.int64)
        counts = bucket_probe_groups(
            home_threads, steps[inverse], self.n_buckets
        )
        n_groups = int(counts.size)
        self.transactions += n_groups
        self.probe_groups += n_groups
        if self.log is not None:
            self.log.begin_round(int(keys.size))
            self.log.record(BUCKET_BYTES, n_groups)
            self.log.rounds[-1].distinct_bytes = self.slots * SLOT_BYTES
        return found_val[inverse]


def make_conflict_table(
    slots: int, *, variant: str = "bucketed",
    log: TransactionLog | None = None,
):
    """Build the configured conflict-table layout (§3.4 dedup table)."""
    if variant == "linear":
        return AtomicMaxHashTable(slots, log=log)
    if variant == "bucketed":
        return BucketedAtomicMaxHashTable(slots, log=log)
    raise SimulationError(
        f"unknown hash-table variant {variant!r}; "
        f"expected one of {HASH_TABLE_VARIANTS}"
    )
