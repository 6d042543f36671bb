"""Batched exact-lookup kernel over the CuART buffers.

This is the SIMT traversal of figure 3 executed with NumPy: one *round*
of the loop advances every still-active query by one tree level, exactly
like the lockstep warp execution it stands in for.  Each round records
its global-memory transactions — one known-size, aligned read per visited
node (the whole point of the per-type buffer split, section 3.2.1) — into
a :class:`~repro.gpusim.transactions.TransactionLog` for the cost model.

Key-byte comparisons are *word-oriented* in CuART (section 4.4: "the
comparison loops, where GRT adapts to shorter keys byte-oriented compared
to CuART which does it word-oriented"); the compute accounting charges
``ceil(n/8)`` cycles per compared 8-byte word accordingly.

Beyond values, the kernel reports *where and why* each traversal ended
(:class:`MissReason`), which is what the update, delete and insert
engines build on: a ``NO_CHILD`` miss, for example, is exactly an
insertable empty slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.constants import (
    CUART_MAX_PREFIX,
    CUART_NODE_BYTES,
    LEAF_CAPACITY,
    LEAF_TYPE_CODES,
    LINK_DYNLEAF,
    LINK_EMPTY,
    LINK_HOST,
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    N48_EMPTY_SLOT,
    NIL_VALUE,
)
from repro.cuart.layout import CuartLayout
from repro.gpusim.streams import launch_kernel
from repro.gpusim.transactions import TransactionLog
from repro.util.packing import link_indices, link_types

#: per-node traversal compute, section 3.1: "in the case of ART it is at
#: around 20 clock cycles per node".
NODE_COMPUTE_CYCLES = 20


class MissReason(enum.IntEnum):
    """Why (or that) a traversal terminated."""

    HIT = 0
    #: the stopping node has no child for the branch byte — an insert
    #: could claim this slot (device-side insert engine).
    NO_CHILD = 1
    #: the key diverged inside a compressed prefix — an insert would have
    #: to split the path (host work).
    PREFIX_MISMATCH = 2
    #: the key ran out of bytes inside an inner node.
    KEY_EXHAUSTED = 3
    #: reached a leaf storing a different key — an insert would have to
    #: split the leaf (host work).
    LEAF_MISMATCH = 4
    #: the tree is empty / the link chain hit EMPTY.
    EMPTY = 5
    #: resolution deferred to the CPU (host-memory leaf link).
    HOST_PENDING = 6


@dataclass
class _TraversalState:
    """Per-thread registers of the traversal loop."""

    links: np.ndarray  # (B,) u64 current node link
    depth: np.ndarray  # (B,) i64 key bytes consumed
    values: np.ndarray  # (B,) u64 result, NIL until a hit
    host_refs: np.ndarray  # (B,) i64 host-leaf index or -1
    locations: np.ndarray  # (B,) u64 matched leaf link (0 = none)
    parent_links: np.ndarray  # (B,) u64 last visited inner node
    parent_bytes: np.ndarray  # (B,) u8 branch byte taken at the parent
    stop_links: np.ndarray  # (B,) u64 node where traversal terminated
    stop_bytes: np.ndarray  # (B,) u8 branch byte at the stopping node
    stop_depths: np.ndarray  # (B,) i64 key bytes consumed on arrival there
    reasons: np.ndarray  # (B,) u8 MissReason
    active: np.ndarray  # (B,) bool

    @classmethod
    def launch(cls, batch: int, root_link: int) -> "_TraversalState":
        return cls(
            links=np.full(batch, np.uint64(root_link), dtype=np.uint64),
            depth=np.zeros(batch, dtype=np.int64),
            values=np.full(batch, np.uint64(NIL_VALUE), dtype=np.uint64),
            host_refs=np.full(batch, -1, dtype=np.int64),
            locations=np.zeros(batch, dtype=np.uint64),
            parent_links=np.zeros(batch, dtype=np.uint64),
            parent_bytes=np.zeros(batch, dtype=np.uint8),
            stop_links=np.zeros(batch, dtype=np.uint64),
            stop_bytes=np.zeros(batch, dtype=np.uint8),
            stop_depths=np.zeros(batch, dtype=np.int64),
            reasons=np.full(batch, MissReason.EMPTY, dtype=np.uint8),
            active=np.ones(batch, dtype=bool),
        )

    def stop(self, rows: np.ndarray, reason: int, byte=None) -> None:
        """Terminate ``rows`` recording where and why."""
        self.active[rows] = False
        self.reasons[rows] = reason
        self.stop_links[rows] = self.links[rows]
        self.stop_depths[rows] = self.depth[rows]
        if byte is not None:
            self.stop_bytes[rows] = byte


@dataclass
class LookupResult:
    """Outcome of one batched lookup kernel."""

    #: (B,) uint64 — looked-up values; ``NIL_VALUE`` for misses, deleted
    #: keys and host-pending rows.
    values: np.ndarray
    #: (B,) int64 — ``-1`` or an index into ``layout.host_leaves`` that
    #: the CPU must resolve (section 3.2.3, strategy b).
    host_refs: np.ndarray
    #: (B,) uint64 — packed leaf link of the matched leaf (0 when the
    #: query missed); the update engine uses this as the memory location
    #: for conflict resolution (section 3.4, stage 1).
    locations: np.ndarray
    #: (B,) uint64/uint8 — packed link of the last visited inner node
    #: ("keeping the last visited offset in local memory", section 3.3)
    #: and the branch byte that led to the leaf; 0 when unknown (e.g. the
    #: root table dispatched straight to a leaf).
    parent_links: np.ndarray
    parent_bytes: np.ndarray
    #: (B,) uint8 — :class:`MissReason` per query.
    reasons: np.ndarray
    #: (B,) uint64/uint8/int64 — where the traversal terminated, the
    #: branch byte there (the insert engine's claimable slot for
    #: NO_CHILD) and the key depth consumed on arrival (what a leaf or
    #: prefix split needs to compute its divergence point).
    stop_links: np.ndarray
    stop_bytes: np.ndarray
    stop_depths: np.ndarray
    #: memory transactions of this kernel.
    log: TransactionLog

    @property
    def hits(self) -> np.ndarray:
        return self.values != np.uint64(NIL_VALUE)

    def take(self, rows) -> "LookupResult":
        """The outcome of a subset of the batch's rows, sharing its log:
        one launch walks the tree once for every row, and each of its
        stages reads its own rows' leaves and parents."""
        return replace(self, **{
            f.name: getattr(self, f.name)[rows]
            for f in fields(self) if f.name != "log"
        })


def lookup_batch(
    layout: CuartLayout,
    keys_mat: np.ndarray,
    key_lens: np.ndarray,
    *,
    root_table=None,
    log: TransactionLog | None = None,
    injector=None,
) -> LookupResult:
    """Run one batch of exact lookups against the mapped layout.

    Parameters
    ----------
    layout:
        the mapped device buffers.
    keys_mat, key_lens:
        dense query batch from :func:`repro.util.keys.keys_to_matrix`.
    root_table:
        optional :class:`repro.cuart.root_table.RootTable` (compacted
        upper layers, section 3.2.2).
    log:
        transaction log to append to (a fresh one is created otherwise).
    injector:
        optional :class:`repro.gpusim.faults.FaultInjector`; a launch
        abort fires here, before any traversal work.
    """
    layout.check_fresh()
    B, W = keys_mat.shape
    launch_kernel("lookup", B, injector=injector)
    if log is None:
        log = TransactionLog()
    log.launched_threads = max(log.launched_threads, B)

    st = _TraversalState.launch(B, layout.root_link)

    if root_table is not None:
        start_links, start_depths, covered = root_table.start_links(
            keys_mat, key_lens, log
        )
        st.links[covered] = start_links[covered]
        st.depth[covered] = start_depths[covered]
        # a table hit on an EMPTY entry is an immediate miss
        dead = covered & (link_types(st.links) == LINK_EMPTY)
        st.active[dead] = False

    max_rounds = W + 2  # every round consumes ≥1 key byte or terminates
    for _ in range(max_rounds):
        rows = np.nonzero(st.active)[0]
        if rows.size == 0:
            break
        log.begin_round(rows.size)
        tcodes = link_types(st.links[rows])
        distinct = 0
        for code in np.unique(tcodes):
            grp = rows[tcodes == code]
            if code == LINK_EMPTY:
                st.stop(grp, MissReason.EMPTY)
            elif code in (LINK_N4, LINK_N16):
                distinct += _step_small_node(
                    layout, int(code), grp, keys_mat, key_lens, st, log
                )
            elif code == LINK_N48:
                distinct += _step_n48(layout, grp, keys_mat, key_lens, st, log)
            elif code == LINK_N256:
                distinct += _step_n256(layout, grp, keys_mat, key_lens, st, log)
            elif code in LEAF_TYPE_CODES:
                distinct += _step_leaf(
                    layout, int(code), grp, keys_mat, key_lens, st, log
                )
            elif code == LINK_HOST:
                # signal in the return value: resolve on the CPU
                st.host_refs[grp] = link_indices(st.links[grp])
                st.stop(grp, MissReason.HOST_PENDING)
            elif code == LINK_DYNLEAF:
                distinct += _step_dyn_leaf(
                    layout, grp, keys_mat, key_lens, st, log
                )
            else:  # pragma: no cover - defensive
                st.stop(grp, MissReason.EMPTY)
        log.rounds[-1].distinct_bytes = distinct
    return LookupResult(
        values=st.values,
        host_refs=st.host_refs,
        locations=st.locations,
        parent_links=st.parent_links,
        parent_bytes=st.parent_bytes,
        reasons=st.reasons,
        stop_links=st.stop_links,
        stop_bytes=st.stop_bytes,
        stop_depths=st.stop_depths,
        log=log,
    )


# ---------------------------------------------------------------------------
# per-node-type round steps
# ---------------------------------------------------------------------------


def _check_prefix(
    buf, idx: np.ndarray, rows: np.ndarray, keys_mat: np.ndarray,
    key_lens: np.ndarray, st: _TraversalState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimistic path-compression check shared by all inner nodes.

    Returns ``(prefix_ok, has_branch_byte, new_depth)``.  Bytes beyond
    the stored window are not compared here — the final leaf comparison
    verifies them (classic optimistic ART, enabled by leaves storing
    complete keys).
    """
    W = keys_mat.shape[1]
    P = buf.prefix.shape[1]  # the layout's stored-prefix window
    plen = buf.prefix_len[idx].astype(np.int64)
    has_byte = st.depth[rows] + plen < key_lens[rows]
    prefix_ok = np.ones(rows.size, dtype=bool)
    stored = np.minimum(plen, P)
    if stored.max(initial=0) > 0:
        pos = st.depth[rows, None] + np.arange(P, dtype=np.int64)[None, :]
        gathered = keys_mat[rows[:, None], np.minimum(pos, W - 1)]
        valid = np.arange(P, dtype=np.int64)[None, :] < stored[:, None]
        # positions past the key's end compare against padding: only
        # in-key positions participate (shorter keys fail has_byte anyway)
        in_key = pos < key_lens[rows, None]
        mismatch = ((gathered != buf.prefix[idx]) & valid & in_key).any(axis=1)
        prefix_ok = ~mismatch
    return prefix_ok, has_byte, st.depth[rows] + plen


def _settle(
    rows: np.ndarray, prefix_ok: np.ndarray, has_byte: np.ndarray,
    found: np.ndarray, child: np.ndarray, new_depth: np.ndarray,
    byte: np.ndarray, st: _TraversalState,
) -> None:
    """Commit one round's outcome: survivors descend (remembering where
    they came from), the rest stop with their precise miss reason."""
    st.stop(rows[~prefix_ok], MissReason.PREFIX_MISMATCH)
    exhausted = prefix_ok & ~has_byte
    st.stop(rows[exhausted], MissReason.KEY_EXHAUSTED)
    viable = prefix_ok & has_byte
    no_child = viable & ~found
    st.stop(rows[no_child], MissReason.NO_CHILD, byte=byte[no_child])
    ok = viable & found
    go = rows[ok]
    st.parent_links[go] = st.links[go]
    st.parent_bytes[go] = byte[ok]
    st.links[go] = child[ok]
    st.depth[go] = new_depth[ok] + 1


def _distinct_rows(idx: np.ndarray, n_rows: int) -> int:
    """Number of distinct buffer rows in ``idx`` via a bitmask scatter —
    O(rows) instead of the sort an ``np.unique`` would pay per step."""
    seen = np.zeros(n_rows, dtype=bool)
    seen[idx] = True
    return int(np.count_nonzero(seen))


def _step_small_node(
    layout, code, rows, keys_mat, key_lens, st: _TraversalState, log
) -> int:
    buf = layout.nodes[code]
    idx = link_indices(st.links[rows])
    log.record(layout.node_record_bytes[code], rows.size)
    log.record_compute(NODE_COMPUTE_CYCLES * rows.size)
    prefix_ok, has_byte, ndepth = _check_prefix(
        buf, idx, rows, keys_mat, key_lens, st
    )
    W = keys_mat.shape[1]
    byte = keys_mat[rows, np.minimum(ndepth, W - 1)]
    node_keys = buf.keys[idx]  # (m, cap)
    cap = node_keys.shape[1]
    slot_valid = np.arange(cap, dtype=np.int64)[None, :] < buf.counts[idx][:, None]
    eq = (node_keys == byte[:, None]) & slot_valid
    found = eq.any(axis=1)
    slot = eq.argmax(axis=1)
    child = buf.children[idx, slot]
    # a slot whose child link was cleared by a device delete is absent
    found &= child != np.uint64(0)
    _settle(rows, prefix_ok, has_byte, found, child, ndepth, byte, st)
    return _distinct_rows(idx, buf.counts.size) * layout.node_record_bytes[code]


def _step_n48(layout, rows, keys_mat, key_lens, st: _TraversalState, log) -> int:
    buf = layout.n48
    idx = link_indices(st.links[rows])
    log.record(layout.node_record_bytes[LINK_N48], rows.size)
    log.record_compute(NODE_COMPUTE_CYCLES * rows.size)
    prefix_ok, has_byte, ndepth = _check_prefix(
        buf, idx, rows, keys_mat, key_lens, st
    )
    W = keys_mat.shape[1]
    byte = keys_mat[rows, np.minimum(ndepth, W - 1)]
    slot = buf.child_index[idx, byte].astype(np.int64)
    found = slot != N48_EMPTY_SLOT
    child = buf.children[idx, np.minimum(slot, 47)]
    found &= child != np.uint64(0)
    _settle(rows, prefix_ok, has_byte, found, child, ndepth, byte, st)
    return _distinct_rows(idx, buf.counts.size) * layout.node_record_bytes[LINK_N48]


def _step_n256(layout, rows, keys_mat, key_lens, st: _TraversalState, log) -> int:
    buf = layout.n256
    idx = link_indices(st.links[rows])
    # N256 needs no "bandwidth for latency" trade: unlike N4/16/48 there
    # is no key search, so the child slot's address is computable from
    # the key byte alone.  The kernel issues two *independent* aligned
    # reads in the same round — the 32-byte prefix header and the single
    # 8-byte child link — instead of streaming the 2 KiB record.
    log.record(32, rows.size)
    log.record(8, rows.size)
    log.record_compute(NODE_COMPUTE_CYCLES * rows.size)
    prefix_ok, has_byte, ndepth = _check_prefix(
        buf, idx, rows, keys_mat, key_lens, st
    )
    W = keys_mat.shape[1]
    byte = keys_mat[rows, np.minimum(ndepth, W - 1)]
    child = buf.children[idx, byte]
    found = child != np.uint64(0)
    _settle(rows, prefix_ok, has_byte, found, child, ndepth, byte, st)
    # distinct footprint: header + the hot child-link region per node
    return _distinct_rows(idx, buf.counts.size) * 40


def _step_leaf(
    layout, code, rows, keys_mat, key_lens, st: _TraversalState, log
) -> int:
    buf = layout.leaves[code]
    idx = link_indices(st.links[rows])
    log.record(CUART_NODE_BYTES[code], rows.size)
    cap = LEAF_CAPACITY[code]
    W = keys_mat.shape[1]
    w = min(cap, W)
    # matching requires equal length, and then both sides are zero-padded
    # within the compared window, so fixed-width equality is exact
    same_len = buf.key_lens[idx] == key_lens[rows]
    eq = (buf.keys[idx][:, :w] == keys_mat[rows, :w]).all(axis=1)
    match = same_len & eq
    log.record_compute(int(np.ceil(cap / 8)) * rows.size)
    st.values[rows[match]] = buf.values[idx[match]]
    st.locations[rows[match]] = st.links[rows[match]]
    st.stop(rows[~match], MissReason.LEAF_MISMATCH)
    st.stop(rows[match], MissReason.HIT)
    return _distinct_rows(idx, buf.values.size) * CUART_NODE_BYTES[code]


def _step_dyn_leaf(
    layout, rows, keys_mat, key_lens, st: _TraversalState, log
) -> int:
    """Strategy (c) of section 3.2.3: dynamically-sized device leaves.

    The whole warp serializes behind the longest key it compares — the
    paper's caveat that this "can severely hurt the overall lookup
    performance in case of exceptionally long keys".
    """
    heap = layout.dyn.heap
    off = link_indices(st.links[rows])
    m = rows.size
    H = layout.dyn.HEADER
    hdr = heap[off[:, None] + np.arange(H, dtype=np.int64)[None, :]]
    stored_len = hdr[:, 0].astype(np.int64) | (hdr[:, 1].astype(np.int64) << 8)
    val = np.zeros(m, dtype=np.uint64)
    for b in range(8):  # little-endian value reassembly
        val |= hdr[:, 2 + b].astype(np.uint64) << np.uint64(8 * b)
    W = keys_mat.shape[1]
    L = int(min(max(int(stored_len.max(initial=0)), 1), W))
    pos = off[:, None] + H + np.arange(L, dtype=np.int64)[None, :]
    stored = heap[np.minimum(pos, heap.size - 1)]
    jj = np.arange(L, dtype=np.int64)[None, :]
    valid = jj < stored_len[:, None]
    mismatch = ((stored != keys_mat[rows, :L]) & valid).any(axis=1)
    match = (stored_len == key_lens[rows]) & ~mismatch
    # transactions: 16-byte chunks covering header+key, byte-addressed
    # (unaligned), one dependent chunk chain per record
    chunks = np.ceil((H + stored_len) / 16.0).astype(np.int64)
    log.record(16, int(chunks.sum()), aligned=False)
    # byte-oriented compare loop: ~1 cycle per byte, warp-serialized
    log.record_compute(int(stored_len.sum()))
    st.values[rows[match]] = val[match]
    st.locations[rows[match]] = st.links[rows[match]]
    st.stop(rows[~match], MissReason.LEAF_MISMATCH)
    st.stop(rows[match], MissReason.HIT)
    return int((H + stored_len[np.unique(off, return_index=True)[1]]).sum())
