"""Device-side structural inserts — the paper's §5.1 future work.

"Possible future improvements include a full device-based management of
the whole ART, implementing structural modifying insertions and
deletions.  To achieve this, a more sophisticated buffer management
needs to be implemented, as the need to allocate new nodes or free old
nodes arises."

This engine implements the tractable core of that program on top of the
spare-capacity buffer management in :class:`CuartLayout`:

* **value updates** for keys already present (winner-resolved exactly
  like the §3.4 update engine);
* **new-leaf inserts** where the traversal ends at an inner node with no
  child for the branch byte (``MissReason.NO_CHILD``): a leaf slot is
  claimed from the free list / spare cursor and linked in — growing the
  node to the next type (with root-table link patching) when it is full;
* **leaf splits** (``LEAF_MISMATCH``): the stored leaf carries its full
  key, so the divergence point is computable on-device; a fresh ``N4``
  with the common prefix takes the old leaf and the new one;
* **prefix splits** (``PREFIX_MISMATCH``) when the node's compressed
  prefix fits the stored window: the node's prefix is shortened in place
  and a fresh ``N4`` is spliced above it (attached root tables are
  repointed, since the new branch node takes over the old path position);
* **root installs** into an empty tree;
* the remainder — divergence hidden beyond the optimistic prefix window,
  exhausted keys (prefix-of-another violations), long keys, capacity
  exhaustion — is **deferred** to the host (reported per query), the same
  CPU/GPU division of labour the paper argues for in §3.1 ("a CPU is
  more suitable to actually perform the update operations" for
  control-flow-heavy restructuring).

Duplicate new keys inside one batch race for the same empty slot; the
highest thread index claims it (the §3.4 priority rule) and the losers
are deferred — a second ``apply`` turns them into plain value updates,
so repeated application converges.

Leaf buffers lose their lexicographic buffer order when inserts append
out of order; the engine invalidates the range-query snapshot, which
transparently switches to a sorted row-indirection view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CUART_MAX_PREFIX,
    CUART_NODE_BYTES,
    DEFAULT_UPDATE_HASH_SLOTS,
    LEAF_TYPE_CODES,
    LINK_DYNLEAF,
    LINK_LEAF8,
    LINK_LEAF16,
    LINK_LEAF32,
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    MAX_SHORT_KEY,
    N48_EMPTY_SLOT,
    NIL_VALUE,
    NODE_CAPACITY,
)
from repro.cuart.hashtable import make_conflict_table
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import MissReason, lookup_batch
from repro.cuart.update import hashtable_stat_recorder, write_path_counters
from repro.errors import SimulationError
from repro.gpusim.streams import launch_kernel
from repro.gpusim.transactions import TransactionLog
from repro.obs.metrics import MetricsRegistry
from repro.util.packing import (
    link_index,
    link_indices,
    link_type,
    link_types,
    pack_link,
    pack_links,
)

from repro.art.stats import leaf_type_for_key

#: growth chain for full nodes.
_GROW_NEXT = {LINK_N4: LINK_N16, LINK_N16: LINK_N48, LINK_N48: LINK_N256}


@dataclass
class InsertResult:
    """Outcome of one batched insert."""

    #: (B,) bool — a new leaf was created and linked for this thread.
    inserted: np.ndarray
    #: (B,) bool — the key existed; its value was replaced (winner only).
    updated: np.ndarray
    #: (B,) bool — needs host-side restructuring / re-map.
    deferred: np.ndarray
    #: nodes grown to the next type while linking new leaves.
    grown_nodes: int
    log: TransactionLog

    @property
    def n_inserted(self) -> int:
        return int(self.inserted.sum())

    @property
    def n_updated(self) -> int:
        return int(self.updated.sum())

    @property
    def n_deferred(self) -> int:
        return int(self.deferred.sum())


class InsertEngine:
    """Batched device-side inserts bound to one mapped layout.

    The layout should be built with ``spare > 0`` or have free-list
    capacity from prior deletions; otherwise every new key defers.
    """

    def __init__(
        self,
        layout: CuartLayout,
        *,
        root_table=None,
        hash_slots: int = DEFAULT_UPDATE_HASH_SLOTS,
        hash_table: str = "bucketed",
        metrics: MetricsRegistry | None = None,
        injector=None,
    ) -> None:
        self.layout = layout
        self.root_table = root_table
        self.hash_slots = hash_slots
        self.hash_table = hash_table
        self.injector = injector
        # one reusable conflict table; each claim domain below resets it
        # rather than paying a fresh multi-MiB allocation per domain
        self._table = None
        m = self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self._m_winners, self._m_losers = write_path_counters(m, "insert")
        self._m_leaf_allocs = m.counter(
            "leaf_allocs_total", "device leaf slots claimed by inserts"
        )
        self._m_fl_pops = m.counter(
            "free_list_pops_total", "free-list slots reused by inserts"
        )
        self._m_splits = m.counter(
            "node_splits_total", "structural splits performed on device",
            labels=("kind",),
        )
        self._m_growths = m.counter(
            "node_growths_total", "nodes grown to the next type"
        )
        self._m_deferred = m.counter(
            "insert_deferred_total", "inserts deferred to host restructuring"
        )
        self._record_table = hashtable_stat_recorder(m)

    def _conflict_table(self, log: TransactionLog):
        table = self._table
        if table is None:
            table = self._table = make_conflict_table(
                self.hash_slots, variant=self.hash_table
            )
        else:
            table.reset()
        table.log = log
        return table

    # ------------------------------------------------------------------
    def apply(
        self,
        keys_mat: np.ndarray,
        key_lens: np.ndarray,
        values: np.ndarray,
        *,
        log: TransactionLog | None = None,
    ) -> InsertResult:
        layout = self.layout
        layout.check_fresh()
        B = keys_mat.shape[0]
        # fault hooks fire before stage 1: nothing has been claimed or
        # written, so an aborted insert batch can be replayed verbatim
        launch_kernel("insert", B, injector=self.injector)
        if self.injector is not None:
            self.injector.on_hashtable("insert", B)
        if log is None:
            log = TransactionLog()
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (B,):
            raise SimulationError("values must be one per query")
        if np.any(values == np.uint64(NIL_VALUE)):
            raise SimulationError("NIL_VALUE cannot be inserted")

        inserted = np.zeros(B, dtype=bool)
        updated = np.zeros(B, dtype=bool)
        deferred = np.zeros(B, dtype=bool)
        thread_ids = np.arange(B, dtype=np.int64)
        #: intra-batch relocation map: a growth relocates a node, so
        #: later winners holding its old link must chase the move (the
        #: "sophisticated buffer management" bookkeeping of §5.1)
        self._moves: dict[int, int] = {}
        #: rows freed by growth are reclaimed only *after* the batch —
        #: reusing a row mid-batch would let one logical node's stale
        #: link chase into another's (epoch-based reclamation)
        self._freed_this_batch: list[tuple[int, int]] = []

        # ---- stage 1: classify every key ------------------------------
        res = lookup_batch(
            layout, keys_mat, key_lens, root_table=self.root_table, log=log
        )
        reasons = res.reasons
        fl_before = sum(len(v) for v in layout.free_leaves.values())
        dedup_w = dedup_l = leaf_splits = prefix_splits = 0

        # ---- existing keys: winner-resolved value update ---------------
        hit = reasons == MissReason.HIT
        if hit.any():
            table = self._conflict_table(log)
            winners = np.zeros(B, dtype=bool)
            winners[hit] = table.resolve_winners(
                res.locations[hit], thread_ids[hit]
            )
            self._record_table(table)
            win_rows = np.nonzero(winners)[0]
            dedup_w += win_rows.size
            dedup_l += int(hit.sum()) - win_rows.size
            # whole-array value scatter per leaf type (winners are
            # distinct leaves, so targets never collide)
            wlocs = res.locations[win_rows]
            wcodes = link_types(wlocs)
            widx = link_indices(wlocs)
            for code in LEAF_TYPE_CODES:
                sel = wcodes == code
                if sel.any():
                    layout.leaves[code].values[widx[sel]] = values[win_rows[sel]]
            sel = wcodes == LINK_DYNLEAF
            if sel.any():  # dynamic leaves: patch the heap value field
                offs = widx[sel].astype(np.int64)
                vals = values[win_rows[sel]].astype("<u8")
                layout.dyn.heap[
                    offs[:, None] + np.arange(2, 10, dtype=np.int64)[None, :]
                ] = vals.view(np.uint8).reshape(-1, 8)
            log.record(16, win_rows.size)
            updated[hit] = winners[hit]
            layout.device_mutations += win_rows.size

        # ---- brand-new keys at claimable empty slots --------------------
        insertable = reasons == MissReason.NO_CHILD
        # keys longer than the fixed leaves always defer (§3.2.3 applies)
        too_long = key_lens > (layout.single_leaf_size or MAX_SHORT_KEY)
        deferred |= insertable & too_long
        insertable &= ~too_long
        grown = 0
        if insertable.any():
            claim_rows = np.nonzero(insertable)[0]
            claims = _claim_keys(res.stop_links[claim_rows],
                                 res.stop_bytes[claim_rows])
            table = self._conflict_table(log)
            win = table.resolve_winners(claims, thread_ids[claim_rows])
            self._record_table(table)
            dedup_w += int(win.sum())
            dedup_l += int((~win).sum())
            # losers raced a sibling insert to the same slot: retry later
            deferred[claim_rows[~win]] = True
            # vectorized scatter claims the easy wins in whole-array
            # passes; only growth / cleared-slot reuse / capacity misses
            # come back for the per-key structural path
            fallback, fb_slots = self._claim_scatter(
                layout, res, claim_rows[win], keys_mat, key_lens, values,
                inserted, log,
            )
            for row, slot in zip(fallback, fb_slots):
                ok, did_grow = self._link_new_leaf(
                    layout, res, int(row), keys_mat, key_lens, values, log,
                    leaf_slot=int(slot),
                )
                inserted[row] = ok
                deferred[row] = not ok
                grown += int(did_grow)

        # ---- leaf splits: divergence at a stored leaf -------------------
        split_rows = np.nonzero(
            (reasons == MissReason.LEAF_MISMATCH) & ~too_long
        )[0]
        if split_rows.size:
            # dedup by the leaf being split; leaf-link claims (types 5-7
            # in the top byte) are disjoint from NO_CHILD node claims
            table = self._conflict_table(log)
            win = table.resolve_winners(
                res.stop_links[split_rows], thread_ids[split_rows]
            )
            self._record_table(table)
            dedup_w += int(win.sum())
            dedup_l += int((~win).sum())
            deferred[split_rows[~win]] = True
            wrows = split_rows[win]
            # divergence points for the whole winner set in one byte
            # compare per leaf type; the splice itself stays per-key
            cpls = self._leaf_split_cpls(
                layout, res, wrows, keys_mat, key_lens
            )
            for row, cpl in zip(wrows, cpls):
                ok = self._split_leaf(
                    layout, res, int(row), keys_mat, key_lens, values, log,
                    cpl=int(cpl),
                )
                inserted[row] = ok
                deferred[row] = not ok
                leaf_splits += int(ok)

        # ---- prefix splits: divergence inside a stored window -----------
        pf_rows = np.nonzero(
            (reasons == MissReason.PREFIX_MISMATCH) & ~too_long
        )[0]
        if pf_rows.size:
            table = self._conflict_table(log)
            win = table.resolve_winners(
                res.stop_links[pf_rows], thread_ids[pf_rows]
            )
            self._record_table(table)
            dedup_w += int(win.sum())
            dedup_l += int((~win).sum())
            deferred[pf_rows[~win]] = True
            wrows = pf_rows[win]
            cpls = self._prefix_split_cpls(
                layout, res, wrows, keys_mat, key_lens
            )
            for row, cpl in zip(wrows, cpls):
                ok = self._split_prefix(
                    layout, res, int(row), keys_mat, key_lens, values, log,
                    cpl=(int(cpl) if cpl >= 0 else None),
                )
                inserted[row] = ok
                deferred[row] = not ok
                prefix_splits += int(ok)

        # ---- empty tree: install the root leaf --------------------------
        empty_rows = np.nonzero((reasons == MissReason.EMPTY) & ~too_long)[0]
        if empty_rows.size and layout.root_link == 0:
            row = int(empty_rows[-1])  # highest thread id wins
            leaf_link = self._write_leaf(layout, row, keys_mat, key_lens,
                                         values, log)
            if leaf_link is not None:
                layout.root_link = leaf_link
                inserted[row] = True
            else:
                deferred[row] = True
            deferred[empty_rows[:-1]] = True
        elif empty_rows.size:
            deferred[empty_rows] = True

        # ---- the remainder needs host restructuring ---------------------
        deferred |= np.isin(
            reasons, (MissReason.KEY_EXHAUSTED, MissReason.HOST_PENDING)
        ) & ~(inserted | updated)
        deferred |= too_long & (reasons != MissReason.HIT)
        # dedup losers among HIT rows are neither inserted nor deferred:
        # the winning thread already owns the key's final value

        # epoch boundary: now row reuse cannot alias in-flight links
        for code, idx in self._freed_this_batch:
            layout.free_nodes[code].append(idx)
        self._freed_this_batch = []

        if inserted.any():
            layout.invalidate_range_cache()
            layout.device_inserts += int(inserted.sum())
        self._m_winners.inc(dedup_w)
        self._m_losers.inc(dedup_l)
        self._m_leaf_allocs.inc(int(inserted.sum()))
        fl_after = sum(len(v) for v in layout.free_leaves.values())
        self._m_fl_pops.inc(max(fl_before - fl_after, 0))
        if leaf_splits:
            self._m_splits.labels(kind="leaf").inc(leaf_splits)
        if prefix_splits:
            self._m_splits.labels(kind="prefix").inc(prefix_splits)
        self._m_growths.inc(grown)
        self._m_deferred.inc(int(deferred.sum()))
        return InsertResult(
            inserted=inserted,
            updated=updated,
            deferred=deferred,
            grown_nodes=grown,
            log=log,
        )

    # ------------------------------------------------------------------
    def _claim_scatter(
        self, layout, res, win_rows, keys_mat, key_lens, values,
        inserted, log,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-array fast path for ``NO_CHILD`` claim winners.

        Winners appending into a node with room are linked with one bulk
        leaf allocation per leaf type, whole-array leaf stores and one
        link scatter per node type.  Rows needing genuinely structural
        work — node growth, delete-cleared slot reuse, capacity misses —
        are returned together with their pre-claimed leaf slots (slots
        are claimed for *all* winners in ascending row order per leaf
        type, so the slot assignment is identical to per-key
        processing).
        """
        n = win_rows.size
        empty = np.zeros(0, dtype=np.int64)
        if n == 0:
            return empty, empty
        # nothing has grown yet in this batch: stop links are current
        stop_links = res.stop_links[win_rows].astype(np.uint64)
        ncodes = link_types(stop_links)
        nidx = link_indices(stop_links)
        nbytes = res.stop_bytes[win_rows].astype(np.int64)

        # -- rank-independent append test per node type -----------------
        # (a delete-cleared slot for this byte means _add_child would
        # reuse it instead of appending: scalar path)
        append_ok = ncodes == LINK_N256
        for code in (LINK_N4, LINK_N16):
            sel = ncodes == code
            if sel.any():
                buf = layout.nodes[code]
                rows = nidx[sel]
                cnt = buf.counts[rows].astype(np.int64)
                cap = buf.keys.shape[1]
                live = (
                    np.arange(cap, dtype=np.int64)[None, :] < cnt[:, None]
                )
                reuse = (
                    (buf.keys[rows] == nbytes[sel][:, None])
                    & (buf.children[rows] == np.uint64(0))
                    & live
                ).any(axis=1)
                append_ok[sel] = ~reuse
        sel48 = ncodes == LINK_N48
        if sel48.any():
            buf = layout.nodes[LINK_N48]
            append_ok[sel48] = (
                buf.child_index[nidx[sel48], nbytes[sel48]] == N48_EMPTY_SLOT
            )

        # -- per-node rank among append candidates: ascending row order
        #    mirrors the slot order sequential processing would produce
        rank = np.zeros(n, dtype=np.int64)
        sub = np.nonzero(append_ok & (ncodes != LINK_N256))[0]
        if sub.size:
            inv = np.unique(stop_links[sub], return_inverse=True)[1]
            order = np.argsort(inv, kind="stable")
            grp = np.bincount(inv)
            starts = np.concatenate(([0], np.cumsum(grp)[:-1]))
            rank[sub[order]] = (
                np.arange(sub.size, dtype=np.int64) - starts[inv[order]]
            )

        # -- capacity check (+ N48 free-slot choice) --------------------
        eligible = append_ok.copy()
        for code in (LINK_N4, LINK_N16):
            sel = eligible & (ncodes == code)
            if sel.any():
                buf = layout.nodes[code]
                cnt = buf.counts[nidx[sel]].astype(np.int64)
                eligible[sel] = cnt + rank[sel] < NODE_CAPACITY[code]
        n48_slot = np.full(n, -1, dtype=np.int64)
        sel = eligible & sel48
        if sel.any():
            buf = layout.nodes[LINK_N48]
            rows = nidx[sel]
            cnt = buf.counts[rows].astype(np.int64)
            ok = cnt + rank[sel] < 48
            # the rank-th appender takes the (rank+1)-th free slot of the
            # pre-scatter snapshot — exactly the slot sequential
            # first-free searches would hand out.  A delete-cleared slot
            # is not free: its byte's index entry still names it
            ci = buf.child_index[rows]
            r, b = np.nonzero(ci != N48_EMPTY_SLOT)
            free = buf.children[rows] == np.uint64(0)
            free[r, ci[r, b]] = False
            csum = np.cumsum(free, axis=1)
            pick = free & (csum == (rank[sel] + 1)[:, None])
            ok &= pick.any(axis=1)
            slot = pick.argmax(axis=1)
            eligible[sel] = ok
            idxs = np.nonzero(sel)[0]
            n48_slot[idxs[ok]] = slot[ok]

        # -- leaf slots for ALL winners, per type in ascending row order
        if layout.single_leaf_size is None:
            klens = key_lens[win_rows].astype(np.int64)
            lcode = np.where(
                klens <= 8, LINK_LEAF8,
                np.where(klens <= 16, LINK_LEAF16, LINK_LEAF32),
            )
        else:
            lcode = np.full(
                n, leaf_type_for_key(layout.single_leaf_size),
                dtype=np.int64,
            )
        slots = np.full(n, -1, dtype=np.int64)
        for code in LEAF_TYPE_CODES:
            csel = np.nonzero(lcode == code)[0]
            if csel.size:
                got = layout.alloc_leaves(code, int(csel.size))
                slots[csel[: got.size]] = got

        good = eligible & (slots >= 0)

        # -- whole-array leaf stores ------------------------------------
        W = keys_mat.shape[1]
        for code in LEAF_TYPE_CODES:
            sel = good & (lcode == code)
            m = int(sel.sum())
            if not m:
                continue
            lbuf = layout.leaves[code]
            sl = slots[sel]
            rw = win_rows[sel]
            w = min(W, lbuf.keys.shape[1])
            lbuf.keys[sl] = 0
            lbuf.keys[sl, :w] = keys_mat[rw, :w]
            lbuf.key_lens[sl] = key_lens[rw]
            lbuf.values[sl] = values[rw]
            log.record(CUART_NODE_BYTES[code], m)

        leaf_links = np.zeros(n, dtype=np.uint64)
        g = np.nonzero(good)[0]
        if g.size:
            leaf_links[g] = pack_links(lcode[g].astype(np.uint8), slots[g])

        # -- link scatters per node type --------------------------------
        # claims are unique per (node, byte), so targets never collide
        for code in (LINK_N4, LINK_N16):
            sel = good & (ncodes == code)
            m = int(sel.sum())
            if not m:
                continue
            buf = layout.nodes[code]
            rows = nidx[sel]
            at = buf.counts[rows].astype(np.int64) + rank[sel]
            buf.keys[rows, at] = nbytes[sel].astype(np.uint8)
            buf.children[rows, at] = leaf_links[sel]
            np.add.at(buf.counts, rows, 1)
            log.record(16, m)
        sel = good & sel48
        m = int(sel.sum())
        if m:
            buf = layout.nodes[LINK_N48]
            rows = nidx[sel]
            buf.child_index[rows, nbytes[sel]] = n48_slot[sel].astype(np.uint8)
            buf.children[rows, n48_slot[sel]] = leaf_links[sel]
            np.add.at(buf.counts, rows, 1)
            log.record(16, 2 * m)  # index byte + link
        sel = good & (ncodes == LINK_N256)
        m = int(sel.sum())
        if m:
            buf = layout.nodes[LINK_N256]
            rows = nidx[sel]
            buf.children[rows, nbytes[sel]] = leaf_links[sel]
            np.add.at(buf.counts, rows, 1)
            buf.counts[rows] = np.minimum(buf.counts[rows], 256)
            log.record(16, m)

        inserted[win_rows[good]] = True
        fb = np.nonzero(~good)[0]
        return win_rows[fb], slots[fb]

    def _leaf_split_cpls(self, layout, res, rows, keys_mat, key_lens):
        """Common-prefix lengths for a batch of leaf splits: one
        whole-array byte compare per leaf type instead of a scalar loop
        per winner.  Non-fixed leaves (dynamic/host) keep ``-1`` — the
        per-key path rejects them before using the value."""
        cpls = np.full(rows.size, -1, dtype=np.int64)
        if rows.size == 0:
            return cpls
        links = res.stop_links[rows].astype(np.uint64)
        codes = link_types(links)
        idxs = link_indices(links)
        W = keys_mat.shape[1]
        for code in LEAF_TYPE_CODES:
            sel = codes == code
            if not sel.any():
                continue
            lbuf = layout.leaves[code]
            li = idxs[sel]
            w = min(W, lbuf.keys.shape[1])
            neq = lbuf.keys[li, :w] != keys_mat[rows[sel], :w]
            first = np.where(neq.any(axis=1), neq.argmax(axis=1), w)
            # zero padding makes both sides agree past their lengths, so
            # clamp at the shorter key (the scalar loop's limit)
            lim = np.minimum(
                lbuf.key_lens[li].astype(np.int64),
                key_lens[rows[sel]].astype(np.int64),
            )
            cpls[sel] = np.minimum(first, lim)
        return cpls

    def _prefix_split_cpls(self, layout, res, rows, keys_mat, key_lens):
        """In-window divergence points for a batch of prefix splits,
        one gather + compare per node type.  Growth relocations keep the
        retired record's prefix bytes intact, so the pre-move links the
        lookup returned still address valid prefix data.  ``-1`` marks
        rows the vectorized pass cannot judge (prefix beyond the stored
        window): the per-key path re-checks those."""
        cpls = np.full(rows.size, -1, dtype=np.int64)
        if rows.size == 0:
            return cpls
        links = res.stop_links[rows].astype(np.uint64)
        codes = link_types(links)
        idxs = link_indices(links)
        P = layout.prefix_window
        W = keys_mat.shape[1]
        d = res.stop_depths[rows].astype(np.int64)
        klens = key_lens[rows].astype(np.int64)
        for code in (LINK_N4, LINK_N16, LINK_N48, LINK_N256):
            sel = codes == code
            if not sel.any():
                continue
            buf = layout.nodes[code]
            ni = idxs[sel]
            plen = buf.prefix_len[ni].astype(np.int64)
            inwin = plen <= P
            if not inwin.any():
                continue
            srows = np.nonzero(sel)[0][inwin]
            ni = ni[inwin]
            plen = plen[inwin]
            lim = np.minimum(plen, np.maximum(klens[srows] - d[srows], 0))
            cols = d[srows, None] + np.arange(P, dtype=np.int64)[None, :]
            keyb = keys_mat[rows[srows][:, None], np.minimum(cols, W - 1)]
            valid = np.arange(P, dtype=np.int64)[None, :] < lim[:, None]
            neq = (buf.prefix[ni][:, :P] != keyb) & valid
            first = np.where(neq.any(axis=1), neq.argmax(axis=1), P)
            cpls[srows] = np.minimum(first, lim)
        return cpls

    def _link_new_leaf(
        self, layout, res, row, keys_mat, key_lens, values, log,
        leaf_slot=None,
    ) -> tuple[bool, bool]:
        """Allocate + write the leaf, link it under the stopping node
        (growing the node if full).  Returns (success, grew)."""
        node_link = self._chase(int(res.stop_links[row]))
        parent_link = self._chase(int(res.parent_links[row]))
        parent_byte = int(res.parent_bytes[row])
        byte = int(res.stop_bytes[row])
        if parent_link == 0 and node_link != layout.root_link:
            # the root table dispatched straight to this node, so its
            # parent was never visited; a growth would need to re-link
            # it — re-traverse without the table to recover the chain
            single = lookup_batch(
                layout, keys_mat[row : row + 1], key_lens[row : row + 1],
                log=log,
            )
            if int(single.reasons[0]) != int(MissReason.NO_CHILD):
                # a sibling insert changed the picture: return the
                # pre-claimed slot so later allocations still line up
                self._release_slot(layout, row, key_lens, leaf_slot)
                return False, False
            node_link = self._chase(int(single.stop_links[0]))
            parent_link = self._chase(int(single.parent_links[0]))
            parent_byte = int(single.parent_bytes[0])
            byte = int(single.stop_bytes[0])
        leaf_link = self._write_leaf(layout, row, keys_mat, key_lens,
                                     values, log, slot=leaf_slot)
        if leaf_link is None:
            return False, False  # out of device leaf capacity

        ok, grew = self._add_child(layout, node_link, byte, leaf_link,
                                   parent_link=parent_link,
                                   parent_byte=parent_byte,
                                   log=log)
        if not ok:
            self._rollback_leaf(layout, leaf_link)
            return False, False
        return True, grew

    @staticmethod
    def _write_leaf(layout, row, keys_mat, key_lens, values, log, slot=None):
        """Allocate and fill one leaf; returns its link or None.  A
        pre-claimed ``slot`` (from the claim scatter's bulk allocation)
        skips the allocator; ``slot=-1`` means that bulk allocation
        already found the buffers exhausted."""
        klen = int(key_lens[row])
        leaf_code = (
            leaf_type_for_key(klen)
            if layout.single_leaf_size is None
            else leaf_type_for_key(layout.single_leaf_size)
        )
        if slot is None:
            leaf_idx = layout.alloc_leaf(leaf_code)
        else:
            leaf_idx = slot if slot >= 0 else None
        if leaf_idx is None:
            return None
        lbuf = layout.leaves[leaf_code]
        lbuf.keys[leaf_idx] = 0
        lbuf.keys[leaf_idx, :klen] = keys_mat[row, :klen]
        lbuf.key_lens[leaf_idx] = klen
        lbuf.values[leaf_idx] = values[row]
        log.record(CUART_NODE_BYTES[leaf_code], 1)  # leaf store
        return pack_link(leaf_code, leaf_idx)

    @staticmethod
    def _release_slot(layout, row, key_lens, slot) -> None:
        """Return an unused pre-claimed leaf slot to its free list."""
        if slot is None or slot < 0:
            return
        code = (
            leaf_type_for_key(int(key_lens[row]))
            if layout.single_leaf_size is None
            else leaf_type_for_key(layout.single_leaf_size)
        )
        layout.free_leaves[code].append(int(slot))

    @staticmethod
    def _rollback_leaf(layout, leaf_link) -> None:
        code = link_type(leaf_link)
        idx = link_index(leaf_link)
        lbuf = layout.leaves[code]
        lbuf.values[idx] = np.uint64(NIL_VALUE)
        lbuf.key_lens[idx] = 0
        lbuf.keys[idx] = 0
        layout.free_leaves[code].append(idx)

    def _split_leaf(
        self, layout, res, row, keys_mat, key_lens, values, log, cpl=None
    ) -> bool:
        """Divergence at a stored leaf: splice an N4 above it holding the
        common tail prefix, with the old leaf and the new one as its two
        children (classic ART lazy-expansion split, on-device because the
        leaf stores its complete key)."""
        leaf_link = int(res.stop_links[row])
        code = link_type(leaf_link)
        if code not in LEAF_TYPE_CODES:
            return False  # dynamic/host leaves: host work
        idx = link_index(leaf_link)
        lbuf = layout.leaves[code]
        ex_len = int(lbuf.key_lens[idx])
        ex_key = lbuf.keys[idx, :ex_len].tobytes()
        log.record(CUART_NODE_BYTES[code], 1)  # re-read for the split
        klen = int(key_lens[row])
        new_key = keys_mat[row, :klen].tobytes()

        if cpl is None or cpl < 0:  # no batched precompute: scalar scan
            cpl = 0
            limit = min(ex_len, klen)
            while cpl < limit and ex_key[cpl] == new_key[cpl]:
                cpl += 1
        if cpl == ex_len or cpl == klen:
            return False  # one key is a prefix of the other: reject
        d = int(res.stop_depths[row])
        if cpl < d:
            # the real divergence sits above this leaf, inside bytes an
            # ancestor's optimistic window skipped: host restructuring
            return False

        new_leaf = self._write_leaf(layout, row, keys_mat, key_lens,
                                    values, log)
        if new_leaf is None:
            return False
        branch = self._alloc_branch(layout, new_key[d:cpl], log)
        if branch is None:
            self._rollback_leaf(layout, new_leaf)
            return False
        branch_link, n4 = branch
        buf = layout.nodes[LINK_N4]
        buf.keys[n4, 0] = ex_key[cpl]
        buf.children[n4, 0] = np.uint64(leaf_link)
        buf.keys[n4, 1] = new_key[cpl]
        buf.children[n4, 1] = np.uint64(new_leaf)
        if ex_key[cpl] > new_key[cpl]:  # keep the key array sorted
            buf.keys[n4, 0], buf.keys[n4, 1] = new_key[cpl], ex_key[cpl]
            buf.children[n4, 0] = np.uint64(new_leaf)
            buf.children[n4, 1] = np.uint64(leaf_link)
        buf.counts[n4] = 2
        return self._install_over(layout, res, row, keys_mat, key_lens,
                                  leaf_link, branch_link, new_leaf, log)

    def _split_prefix(
        self, layout, res, row, keys_mat, key_lens, values, log, cpl=None
    ) -> bool:
        """Divergence inside a node's compressed prefix: shorten the
        node's prefix in place and splice an N4 above it (only when the
        full prefix fits the stored window — otherwise the tail bytes
        are not available on-device and the host must restructure)."""
        node_link = self._chase(int(res.stop_links[row]))
        code = link_type(node_link)
        if code not in (LINK_N4, LINK_N16, LINK_N48, LINK_N256):
            return False
        idx = link_index(node_link)
        buf = layout.nodes[code]
        plen = int(buf.prefix_len[idx])
        if plen > layout.prefix_window:
            return False  # tail bytes beyond the stored window: host work
        prefix = buf.prefix[idx, :plen].tobytes()
        d = int(res.stop_depths[row])
        klen = int(key_lens[row])
        if cpl is None:  # no batched precompute: scalar scan
            key_rest = keys_mat[row, d : min(d + plen, klen)].tobytes()
            cpl = 0
            limit = min(len(prefix), len(key_rest))
            while cpl < limit and prefix[cpl] == key_rest[cpl]:
                cpl += 1
        if cpl >= plen or d + cpl >= klen:
            return False  # no in-window divergence / key exhausted

        new_leaf = self._write_leaf(layout, row, keys_mat, key_lens,
                                    values, log)
        if new_leaf is None:
            return False
        branch = self._alloc_branch(layout, prefix[:cpl], log)
        if branch is None:
            self._rollback_leaf(layout, new_leaf)
            return False
        branch_link, n4 = branch
        # shorten the split node's prefix in place: drop cpl matched
        # bytes plus the branch byte
        rest = prefix[cpl + 1 :]
        buf.prefix[idx] = 0
        if rest:
            buf.prefix[idx, : len(rest)] = np.frombuffer(rest, dtype=np.uint8)
        buf.prefix_len[idx] = plen - cpl - 1
        log.record(32, 1)  # header rewrite

        b4 = layout.nodes[LINK_N4]
        old_byte = prefix[cpl]
        new_byte = int(keys_mat[row, d + cpl])
        lo, hi = sorted(((old_byte, node_link), (new_byte, new_leaf)))
        b4.keys[n4, 0], b4.children[n4, 0] = lo[0], np.uint64(lo[1])
        b4.keys[n4, 1], b4.children[n4, 1] = hi[0], np.uint64(hi[1])
        b4.counts[n4] = 2
        return self._install_over(layout, res, row, keys_mat, key_lens,
                                  node_link, branch_link, new_leaf, log)

    def _alloc_branch(self, layout, branch_prefix: bytes, log):
        """Allocate an empty N4 carrying ``branch_prefix``."""
        n4 = layout.alloc_node(LINK_N4)
        if n4 is None:
            return None
        buf = layout.nodes[LINK_N4]
        buf.prefix[n4] = 0
        stored = branch_prefix[: layout.prefix_window]
        if stored:
            buf.prefix[n4, : len(stored)] = np.frombuffer(stored, dtype=np.uint8)
        buf.prefix_len[n4] = len(branch_prefix)
        buf.keys[n4] = 0
        buf.children[n4] = 0
        buf.counts[n4] = 0
        log.record(CUART_NODE_BYTES[LINK_N4], 1)  # branch store
        return pack_link(LINK_N4, n4), n4

    def _install_over(
        self, layout, res, row, keys_mat, key_lens, displaced_link,
        branch_link, new_leaf, log,
    ) -> bool:
        """Point the displaced node's parent (or the root) at the branch
        node that now occupies its path position, and patch attached
        root tables the same way."""
        parent_link = self._chase(int(res.parent_links[row]))
        parent_byte = int(res.parent_bytes[row])
        if parent_link == 0 and displaced_link != layout.root_link:
            # dispatched via the root table: recover the parent chain
            single = lookup_batch(
                layout, keys_mat[row : row + 1], key_lens[row : row + 1],
                log=log,
            )
            stop = self._chase(int(single.stop_links[0]))
            if stop != displaced_link and stop != branch_link:
                # the path changed under us: give the work back
                self._rollback_leaf(layout, new_leaf)
                self._rollback_branch(layout, branch_link)
                return False
            parent_link = self._chase(int(single.parent_links[0]))
            parent_byte = int(single.parent_bytes[0])
        if parent_link == 0:
            layout.root_link = branch_link
        else:
            self._repoint_parent(layout, parent_link, parent_byte,
                                 branch_link)
            log.record(16, 1)
        # table entries that pointed at the displaced node now belong to
        # the branch occupying its old path position
        layout.relocated(displaced_link, branch_link)
        return True

    def _rollback_branch(self, layout, branch_link) -> None:
        layout.free_nodes[LINK_N4].append(link_index(branch_link))

    def _add_child(
        self, layout, node_link, byte, child_link, *, parent_link,
        parent_byte, log,
    ) -> tuple[bool, bool]:
        """Set ``node.children[byte] = child_link``; grow if full."""
        code = link_type(node_link)
        idx = link_index(node_link)
        buf = layout.nodes[code]
        count = int(buf.counts[idx])
        if code in (LINK_N4, LINK_N16):
            cap = NODE_CAPACITY[code]
            # reuse a delete-cleared slot for this byte if present
            existing = np.nonzero(
                (buf.keys[idx, :count] == byte)
                & (buf.children[idx, :count] == np.uint64(0))
            )[0]
            if existing.size:
                buf.children[idx, existing[0]] = np.uint64(child_link)
                log.record(16, 1)
                return True, False
            if count < cap:
                buf.keys[idx, count] = byte
                buf.children[idx, count] = np.uint64(child_link)
                buf.counts[idx] = count + 1
                log.record(16, 1)
                return True, False
            return self._grow_and_add(
                layout, code, idx, byte, child_link, parent_link,
                parent_byte, log,
            )
        if code == LINK_N48:
            slot = int(buf.child_index[idx, byte])
            if slot != N48_EMPTY_SLOT:
                buf.children[idx, slot] = np.uint64(child_link)
                log.record(16, 1)
                return True, False
            if count < 48:
                # a slot is free only when no index byte names it (a
                # delete clears the link but keeps the byte's entry)
                free = buf.children[idx] == np.uint64(0)
                named = buf.child_index[idx]
                free[named[named != N48_EMPTY_SLOT]] = False
                slot = int(np.nonzero(free)[0][0])
                buf.child_index[idx, byte] = slot
                buf.children[idx, slot] = np.uint64(child_link)
                buf.counts[idx] = count + 1
                log.record(16, 2)  # index byte + link
                return True, False
            return self._grow_and_add(
                layout, code, idx, byte, child_link, parent_link,
                parent_byte, log,
            )
        # N256 always has room
        was_empty = buf.children[idx, byte] == np.uint64(0)
        buf.children[idx, byte] = np.uint64(child_link)
        if was_empty:
            buf.counts[idx] = min(count + 1, 256)
        log.record(16, 1)
        return True, False

    def _grow_and_add(
        self, layout, code, idx, byte, child_link, parent_link,
        parent_byte, log,
    ) -> tuple[bool, bool]:
        """Copy the full node into the next larger type, add the child,
        re-link the parent and patch attached root tables."""
        new_code = _GROW_NEXT[code]
        new_idx = layout.alloc_node(new_code)
        if new_idx is None:
            return False, False  # no spare capacity for the bigger type
        src = layout.nodes[code]
        dst = layout.nodes[new_code]
        dst.prefix[new_idx] = src.prefix[idx]
        dst.prefix_len[new_idx] = src.prefix_len[idx]
        # copy children into the new organization
        if new_code == LINK_N16:
            dst.keys[new_idx] = 0
            dst.children[new_idx] = 0
            n = int(src.counts[idx])
            dst.keys[new_idx, :n] = src.keys[idx, :n]
            dst.children[new_idx, :n] = src.children[idx, :n]
            dst.counts[new_idx] = n
        elif new_code == LINK_N48:
            dst.child_index[new_idx] = N48_EMPTY_SLOT
            dst.children[new_idx] = 0
            slot = 0
            for j in range(int(src.counts[idx])):
                if src.children[idx, j] == 0:
                    continue  # delete-cleared slot: drop it
                dst.child_index[new_idx, int(src.keys[idx, j])] = slot
                dst.children[new_idx, slot] = src.children[idx, j]
                slot += 1
            dst.counts[new_idx] = slot
        else:  # N256
            dst.children[new_idx] = 0
            n = 0
            for b in range(256):
                s = int(src.child_index[idx, b])
                if s != N48_EMPTY_SLOT and src.children[idx, s] != 0:
                    dst.children[new_idx, b] = src.children[idx, s]
                    n += 1
            dst.counts[new_idx] = n
        # copy traffic: read old + write new record
        log.record(CUART_NODE_BYTES[code], 1)
        log.record(CUART_NODE_BYTES[new_code], 1)

        old_link = pack_link(code, idx)
        new_link = pack_link(new_code, new_idx)
        # record the move and retire the old record; the row returns to
        # the free list only at the end of the batch (see apply)
        self._moves[old_link] = new_link
        self._freed_this_batch.append((code, idx))
        src.counts[idx] = 0
        src.children[idx] = 0
        if parent_link:
            self._repoint_parent(layout, parent_link, parent_byte, new_link)
            log.record(16, 1)
        else:
            layout.root_link = new_link
        layout.relocated(old_link, new_link)

        ok, _ = self._add_child(
            layout, new_link, byte, child_link,
            parent_link=parent_link, parent_byte=parent_byte, log=log,
        )
        return ok, True

    def _chase(self, link: int) -> int:
        """Resolve a link through this batch's relocation chain."""
        while link in self._moves:
            link = self._moves[link]
        return link

    @staticmethod
    def _repoint_parent(layout, parent_link, byte, new_link) -> None:
        code = link_type(parent_link)
        idx = link_index(parent_link)
        buf = layout.nodes[code]
        if code in (LINK_N4, LINK_N16):
            slots = np.nonzero(
                buf.keys[idx, : int(buf.counts[idx])] == byte
            )[0]
            buf.children[idx, slots[0]] = np.uint64(new_link)
        elif code == LINK_N48:
            slot = int(buf.child_index[idx, byte])
            buf.children[idx, slot] = np.uint64(new_link)
        else:
            buf.children[idx, byte] = np.uint64(new_link)


def _claim_keys(stop_links: np.ndarray, stop_bytes: np.ndarray) -> np.ndarray:
    """64-bit claim id per (node, branch byte) pair.

    Layout: node type (8 bits) | node index (48 bits) | byte (8 bits).
    Node buffers beyond 2^48 records are beyond any simulated scale.
    """
    links = stop_links.astype(np.uint64)
    types = links >> np.uint64(56)
    idx = links & np.uint64((1 << 56) - 1)
    if idx.size and int(idx.max()) >= 1 << 48:  # pragma: no cover
        raise SimulationError("node index exceeds claim-key space")
    return (
        (types << np.uint64(56))
        | (idx << np.uint64(8))
        | stop_bytes.astype(np.uint64)
    )
