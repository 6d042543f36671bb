"""Mapping the host ART into the CuART struct-of-arrays device layout.

Section 3.2.1: "we map the index structure into several buffers instead
of just one ... one buffer per node type.  [It] allows the implementation
to determine the transaction read size before initiating the actual
memory request ... combined with a guaranteed alignment of at least 16
bytes".

Buffers (NumPy arrays standing in for device allocations):

===============  =========================================================
``N4``/``N16``   ``keys (n, cap) u8``, ``children (n, cap) u64`` packed
                 links, ``counts (n,) u8``
``N48``          ``child_index (n, 256) u8`` (0xFF = empty),
                 ``children (n, 48) u64``
``N256``         ``children (n, 256) u64`` (0 = empty)
all inner nodes  ``prefix (n, 15) u8`` stored window, ``prefix_len (n,)``
                 full skipped length (optimistic path compression)
``leaf8/16/32``  ``keys (n, cap) u8``, ``key_lens (n,) u8``,
                 ``values (n,) u64`` — *lexicographically ordered*
===============  =========================================================

Every layout is built from a :class:`repro.art.bulk.BulkPlan` of the
tree (:func:`repro.art.bulk.tree_plan`): the plan's rows are the keys in
lexicographic order, and each leaf type numbers its rows in that order,
which is what makes range queries "trivial because it is only required
to transmit both the start and the end index within the leaf arrays".
Inner nodes are numbered per type in pre-order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.art.bulk import BulkPlan, tree_plan
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    CUART_MAX_PREFIX,
    CUART_NODE_BYTES,
    LEAF_CAPACITY,
    LEAF_TYPE_CODES,
    LINK_DYNLEAF,
    LINK_EMPTY,
    LINK_HOST,
    LINK_LEAF8,
    LINK_LEAF16,
    LINK_LEAF32,
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    MAX_SHORT_KEY,
    N48_EMPTY_SLOT,
    NODE_TYPE_CODES,
)
from repro.errors import KeyTooLongError, StaleLayoutError
from repro.util.packing import pack_link, pack_links


class LongKeyStrategy(enum.Enum):
    """How the device layout copes with keys longer than the largest
    fixed leaf (section 3.2.3)."""

    #: raise :class:`KeyTooLongError` at mapping time — the caller must
    #: route long keys elsewhere (strategy (a), handled by
    #: :mod:`repro.host.hybrid`: long keys never reach the device).
    ERROR = "error"
    #: strategy (b): keep long leaves in host memory; the device stores a
    #: ``LINK_HOST`` link and lookups return a "resolve on CPU" signal.
    HOST_LINK = "host_link"
    #: strategy (c), what GRT does: a dynamically-sized device leaf heap,
    #: compared with a variable-length loop on-device.
    DYNAMIC = "dynamic"


@dataclass
class _NodeBuffers:
    """Per-type SoA arrays for one inner-node type."""

    keys: np.ndarray | None  # (n, cap) u8, only N4/N16
    children: np.ndarray  # (n, cap|48|256) u64
    child_index: np.ndarray | None  # (n, 256) u8, only N48
    counts: np.ndarray  # (n,) int16
    prefix: np.ndarray  # (n, CUART_MAX_PREFIX) u8
    prefix_len: np.ndarray  # (n,) int32


@dataclass
class _LeafBuffers:
    """Per-size SoA arrays for one fixed leaf type."""

    keys: np.ndarray  # (n, cap) u8
    key_lens: np.ndarray  # (n,) int32
    values: np.ndarray  # (n,) u64


@dataclass
class _DynLeafHeap:
    """Device heap for strategy (c): records ``[len u16][value u64][key]``
    packed back to back, addressed by byte offset."""

    heap: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    offsets: list[int] = field(default_factory=list)

    HEADER = 10  # 2-byte length + 8-byte value


class CuartLayout:
    """The mapped, device-resident CuART index.

    Build once from a populated host tree (pipeline stage 2 of section
    4.1), always from the tree's :class:`repro.art.bulk.BulkPlan` with
    whole-array writes; afterwards the kernels in :mod:`repro.cuart.lookup`,
    :mod:`repro.cuart.update` and :mod:`repro.cuart.delete` operate on the
    buffers only.  Non-structural mutations (value updates, lazy
    deletions) happen in place; structural changes require re-mapping —
    :meth:`check_fresh` guards against using a stale layout.
    """

    def __init__(
        self,
        tree: AdaptiveRadixTree,
        *,
        long_keys: LongKeyStrategy = LongKeyStrategy.ERROR,
        single_leaf_size: int | None = None,
        spare: float = 0.0,
        prefix_window: int = CUART_MAX_PREFIX,
    ) -> None:
        """``single_leaf_size`` (8, 16 or 32) forces every leaf into one
        fixed buffer — the paper's *initial* design ("we replaced the
        dynamically sized leaf buffer by a fixed size leaf, which can
        store up to 32 byte keys") before it switched to the 8/16/32
        split; kept as an ablation knob (see benchmarks/ablations).

        ``spare`` over-allocates every buffer by that fraction (plus a
        small fixed floor) so the device-side insert engine
        (:mod:`repro.cuart.insert`, the paper's §5.1 "more sophisticated
        buffer management") has node and leaf slots to allocate from
        without a host re-map.

        ``prefix_window`` sets the per-node stored-prefix bytes (the
        paper frees GRT's type byte to reach 15).  Smaller windows
        shrink node records but push more verification onto optimistic
        leaf checks; the prefix-window ablation bench sweeps this.
        """
        if single_leaf_size is not None and single_leaf_size not in (8, 16, 32):
            raise KeyTooLongError(
                f"single_leaf_size must be 8, 16 or 32, got {single_leaf_size}"
            )
        if spare < 0:
            raise StaleLayoutError(f"spare must be non-negative, got {spare}")
        if not 1 <= prefix_window <= 255:
            raise KeyTooLongError(
                f"prefix_window must be 1..255, got {prefix_window}"
            )
        self.prefix_window = prefix_window
        #: per-record transaction sizes for this window (16-byte padded);
        #: equals :data:`repro.constants.CUART_NODE_BYTES` at the default
        self.node_record_bytes = _record_bytes(prefix_window)
        self.single_leaf_size = single_leaf_size
        self.long_keys = long_keys
        self.spare = spare
        self._source_version = tree.version
        self._source = tree
        #: device-side mutations (updates/deletes) since mapping.
        self.device_mutations = 0
        #: device-side structural inserts since mapping.
        self.device_inserts = 0
        #: root tables that must be patched when a node is relocated by
        #: growth (registered by RootTable).
        self.attached_tables: list = []

        plan = tree_plan(tree)
        leaf_types = _leaf_types(plan.lens, single_leaf_size, long_keys)
        counts = _plan_counts(plan, leaf_types)
        if spare > 0:
            floor = 8
            for c in NODE_TYPE_CODES + LEAF_TYPE_CODES:
                counts[c] = counts[c] + max(int(counts[c] * spare), floor)
        self._alloc(counts)
        #: host-memory leaves for :attr:`LongKeyStrategy.HOST_LINK`.
        self.host_leaves: list[tuple[bytes, int]] = []
        #: free leaf slots per leaf type, filled by device-side deletes
        #: ("the leaf index is pushed into a list of free leaves which can
        #: be used for future inserts", section 3.3).
        self.free_leaves: dict[int, list[int]] = {c: [] for c in LEAF_TYPE_CODES}
        #: node rows recycled by growth (old, smaller node records).
        self.free_nodes: dict[int, list[int]] = {c: [] for c in NODE_TYPE_CODES}
        self._next_node = {c: 0 for c in NODE_TYPE_CODES}
        self._next_leaf = {c: 0 for c in LEAF_TYPE_CODES}
        #: deepest traversal level (node visits) seen while mapping; used
        #: by the range-query transaction accounting.
        self.max_levels = 0
        self.root_link = self._build_from_plan(plan, leaf_types)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _alloc(self, counts: dict) -> None:
        P = self.prefix_window
        self.nodes: dict[int, _NodeBuffers] = {}
        for code, cap in ((LINK_N4, 4), (LINK_N16, 16)):
            n = counts[code]
            self.nodes[code] = _NodeBuffers(
                keys=np.zeros((n, cap), dtype=np.uint8),
                children=np.zeros((n, cap), dtype=np.uint64),
                child_index=None,
                counts=np.zeros(n, dtype=np.int16),
                prefix=np.zeros((n, P), dtype=np.uint8),
                prefix_len=np.zeros(n, dtype=np.int32),
            )
        n = counts[LINK_N48]
        self.nodes[LINK_N48] = _NodeBuffers(
            keys=None,
            children=np.zeros((n, 48), dtype=np.uint64),
            child_index=np.full((n, 256), N48_EMPTY_SLOT, dtype=np.uint8),
            counts=np.zeros(n, dtype=np.int16),
            prefix=np.zeros((n, P), dtype=np.uint8),
            prefix_len=np.zeros(n, dtype=np.int32),
        )
        n = counts[LINK_N256]
        self.nodes[LINK_N256] = _NodeBuffers(
            keys=None,
            children=np.zeros((n, 256), dtype=np.uint64),
            child_index=None,
            counts=np.zeros(n, dtype=np.int16),
            prefix=np.zeros((n, P), dtype=np.uint8),
            prefix_len=np.zeros(n, dtype=np.int32),
        )
        self.leaves: dict[int, _LeafBuffers] = {}
        for code in LEAF_TYPE_CODES:
            n = counts[code]
            self.leaves[code] = _LeafBuffers(
                keys=np.zeros((n, LEAF_CAPACITY[code]), dtype=np.uint8),
                key_lens=np.zeros(n, dtype=np.int32),
                values=np.zeros(n, dtype=np.uint64),
            )
        self.dyn = _DynLeafHeap(
            heap=np.zeros(counts["dyn_bytes"], dtype=np.uint8)
        )

    def _build_from_plan(self, plan: BulkPlan, leaf_types: np.ndarray) -> int:
        """Fill every buffer from ``plan`` with whole-array writes and
        return the packed root link; ``leaf_types`` is each sorted row's
        link type (:func:`_leaf_types`).

        Leaves come straight from the plan's sorted key matrix: each leaf
        type numbers its rows in key order, so the leaf buffers are
        lexicographically sorted, and so are the host leaves and the
        dynamic heap's records of long keys.  Inner nodes are filled per
        level and type with fancy-index scatters, their indices assigned
        in pre-order by sorting the groups on ``(lo, depth)``.
        """
        mat = plan.mat
        lens = plan.lens
        n = plan.n
        W = mat.shape[1]
        if n == 0:
            return pack_link(LINK_EMPTY, 0)
        # -- leaves ----------------------------------------------------
        leaf_idx = np.empty(n, dtype=np.int64)
        for code in LEAF_TYPE_CODES:
            sel = leaf_types == code
            cnt = int(sel.sum())
            leaf_idx[sel] = np.arange(cnt, dtype=np.int64)
            self._next_leaf[code] = cnt
            if cnt:
                buf = self.leaves[code]
                w = min(W, LEAF_CAPACITY[code])
                buf.keys[:cnt, :w] = mat[sel, :w]
                buf.key_lens[:cnt] = lens[sel]
                buf.values[:cnt] = plan.values[sel]
        rows = np.flatnonzero(leaf_types == LINK_HOST)
        leaf_idx[rows] = np.arange(rows.size)
        self.host_leaves = [
            (mat[i, :k].tobytes(), v)
            for i, k, v in zip(rows.tolist(), lens[rows].tolist(),
                               plan.values[rows].tolist())
        ]
        rows = np.flatnonzero(leaf_types == LINK_DYNLEAF)
        if rows.size:
            # records [len u16][value u64][key] back to back, in key order
            klen = lens[rows]
            rec = np.hstack([
                klen.astype("<u2").view(np.uint8).reshape(-1, 2),
                plan.values[rows].astype("<u8").view(np.uint8).reshape(-1, 8),
                mat[rows],
            ])
            size = _DynLeafHeap.HEADER + klen
            offs = np.cumsum(size) - size
            cols = np.arange(rec.shape[1])
            used = cols < size[:, None]
            self.dyn.heap[(offs[:, None] + cols)[used]] = rec[used]
            leaf_idx[rows] = offs
            self.dyn.offsets = offs.tolist()
        leaf_links = pack_links(leaf_types, leaf_idx)
        levels = plan.levels
        if not levels:  # single-key tree: the root is that leaf
            self.max_levels = 1
            return int(leaf_links[0])
        # -- pre-order node index assignment ---------------------------
        all_lo = np.concatenate([lv.lo for lv in levels])
        all_dep = np.concatenate([lv.depth for lv in levels])
        all_tc = np.concatenate([lv.type_code for lv in levels])
        order = np.lexsort((all_dep, all_lo))
        pre_idx = np.empty(all_tc.size, dtype=np.int64)
        pre_tc = all_tc[order]
        for code in NODE_TYPE_CODES:
            sel = pre_tc == code
            cnt = int(sel.sum())
            pre_idx[sel] = np.arange(cnt, dtype=np.int64)
            self._next_node[code] = cnt
        gidx = np.empty(all_tc.size, dtype=np.int64)
        gidx[order] = pre_idx
        bounds = np.cumsum([lv.lo.size for lv in levels])[:-1]
        level_idx = np.split(gidx, bounds)
        level_links = [
            pack_links(lv.type_code, li)
            for lv, li in zip(levels, level_idx)
        ]
        # -- per-level, per-type batched fills --------------------------
        P = self.prefix_window
        colsP = np.arange(P, dtype=np.int64)
        for li, lv in enumerate(levels):
            idx = level_idx[li]
            clink = np.empty(lv.child_byte.size, dtype=np.uint64)
            lm = lv.child_is_leaf
            clink[lm] = leaf_links[lv.child_ref[lm]]
            im = ~lm
            if im.any():
                clink[im] = level_links[li + 1][lv.child_ref[im]]
            cols = lv.depth[:, None] + colsP[None, :]
            valid = cols < lv.split[:, None]
            pref = mat[lv.lo[:, None], np.minimum(cols, W - 1)]
            pref[~valid] = 0
            plen = lv.split - lv.depth
            pidx = idx[lv.child_parent]
            for code in NODE_TYPE_CODES:
                gsel = lv.type_code == code
                if not gsel.any():
                    continue
                buf = self.nodes[code]
                rows = idx[gsel]
                buf.prefix[rows] = pref[gsel]
                buf.prefix_len[rows] = plen[gsel]
                buf.counts[rows] = lv.fanout[gsel]
                csel = gsel[lv.child_parent]
                prow = pidx[csel]
                cbyte = lv.child_byte[csel]
                cslot = lv.child_slot[csel]
                if code in (LINK_N4, LINK_N16):
                    buf.keys[prow, cslot] = cbyte
                    buf.children[prow, cslot] = clink[csel]
                elif code == LINK_N48:
                    buf.child_index[prow, cbyte] = cslot
                    buf.children[prow, cslot] = clink[csel]
                else:  # N256
                    buf.children[prow, cbyte] = clink[csel]
        self.max_levels = len(levels) + 1
        return int(level_links[0][0])

    # ------------------------------------------------------------------
    # bookkeeping / accounting
    # ------------------------------------------------------------------
    def check_fresh(self) -> None:
        """Raise :class:`StaleLayoutError` if the host tree structurally
        changed after this layout was mapped."""
        if self._source.version != self._source_version:
            raise StaleLayoutError(
                "host tree changed since mapping; re-map the layout "
                "(structural inserts cannot be reflected in-place)",
                mapped_version=self._source_version,
                tree_version=self._source.version,
            )

    # ------------------------------------------------------------------
    # device-side allocation (insert engine, §5.1 buffer management)
    # ------------------------------------------------------------------
    def alloc_leaf(self, code: int) -> int | None:
        """Claim a leaf slot: recycled free-list entries first ("a list
        of free leaves which can be used for future inserts", §3.3),
        then the spare-capacity cursor.  ``None`` when exhausted."""
        if self.free_leaves[code]:
            return self.free_leaves[code].pop()
        nxt = self._next_leaf[code]
        if nxt < len(self.leaves[code].values):
            self._next_leaf[code] = nxt + 1
            return nxt
        return None

    def alloc_leaves(self, code: int, count: int) -> np.ndarray:
        """Claim up to ``count`` leaf slots in one call, in exactly the
        order ``count`` repeated :meth:`alloc_leaf` calls would return
        them (free-list entries popped from the tail first, then the
        spare cursor).  Returns the claimed indices; shorter than
        ``count`` when capacity runs out."""
        out: list[int] = []
        fl = self.free_leaves[code]
        take = min(len(fl), count)
        if take:
            out.extend(fl[-1 : -take - 1 : -1])
            del fl[-take:]
        need = count - take
        if need:
            nxt = self._next_leaf[code]
            avail = min(need, len(self.leaves[code].values) - nxt)
            if avail > 0:
                out.extend(range(nxt, nxt + avail))
                self._next_leaf[code] = nxt + avail
        return np.asarray(out, dtype=np.int64)

    def alloc_node(self, code: int) -> int | None:
        """Claim an inner-node slot (growth allocations)."""
        if self.free_nodes[code]:
            return self.free_nodes[code].pop()
        nxt = self._next_node[code]
        if nxt < len(self.nodes[code].counts):
            self._next_node[code] = nxt + 1
            return nxt
        return None

    def spare_leaf_slots(self, code: int) -> int:
        return (
            len(self.leaves[code].values) - self._next_leaf[code]
            + len(self.free_leaves[code])
        )

    def spare_node_slots(self, code: int) -> int:
        return (
            len(self.nodes[code].counts) - self._next_node[code]
            + len(self.free_nodes[code])
        )

    def grow_leaf_buffer(self, code: int, min_extra: int = 1) -> int:
        """Extend one per-type leaf buffer in place (capacity-pressure
        recovery, the §5.1 "sophisticated buffer management").

        Rows are appended to the SoA arrays, so existing rows keep their
        indices and every packed link into this buffer stays valid — a
        device ``cudaMalloc`` + copy, never a relocation, and therefore
        no re-map.  Grows by at least ``min_extra`` rows and at most a
        doubling.  Returns the number of rows added.
        """
        buf = self.leaves[code]
        n = len(buf.values)
        extra = max(min_extra, max(n, 8))
        buf.keys = np.vstack(
            [buf.keys, np.zeros((extra, buf.keys.shape[1]), dtype=np.uint8)]
        )
        buf.key_lens = np.concatenate(
            [buf.key_lens, np.zeros(extra, dtype=buf.key_lens.dtype)]
        )
        buf.values = np.concatenate(
            [buf.values, np.zeros(extra, dtype=np.uint64)]
        )
        return extra

    def grow_node_buffer(self, code: int, min_extra: int = 1) -> int:
        """Extend one per-type inner-node buffer in place; same
        index-stability contract as :meth:`grow_leaf_buffer`."""
        buf = self.nodes[code]
        n = len(buf.counts)
        extra = max(min_extra, max(n, 8))
        if buf.keys is not None:
            buf.keys = np.vstack(
                [buf.keys, np.zeros((extra, buf.keys.shape[1]), dtype=np.uint8)]
            )
        buf.children = np.vstack(
            [buf.children,
             np.zeros((extra, buf.children.shape[1]), dtype=np.uint64)]
        )
        if buf.child_index is not None:
            buf.child_index = np.vstack(
                [buf.child_index,
                 np.full((extra, 256), N48_EMPTY_SLOT, dtype=np.uint8)]
            )
        buf.counts = np.concatenate(
            [buf.counts, np.zeros(extra, dtype=buf.counts.dtype)]
        )
        buf.prefix = np.vstack(
            [buf.prefix,
             np.zeros((extra, buf.prefix.shape[1]), dtype=np.uint8)]
        )
        buf.prefix_len = np.concatenate(
            [buf.prefix_len, np.zeros(extra, dtype=buf.prefix_len.dtype)]
        )
        return extra

    def relocated(self, old_link: int, new_link: int) -> None:
        """Patch attached root tables after a node moved (growth)."""
        for table in self.attached_tables:
            table.links[table.links == np.uint64(old_link)] = np.uint64(new_link)

    def invalidate_range_cache(self) -> None:
        """Drop the sorted-leaf snapshot; device inserts append leaves
        out of lexicographic buffer order, so the next range query must
        rebuild (and from then on carries a row indirection)."""
        if hasattr(self, "_range_key_cache"):
            del self._range_key_cache

    def mark_synced(self) -> None:
        """Declare the host tree and this layout content-equivalent again.

        The end-to-end engine mirrors every device-side insert, update
        and delete into the host tree; the mirrored host mutations bump
        the tree version, which :meth:`check_fresh` would otherwise
        reject.  Only call when both sides index the same key set.
        """
        self._source_version = self._source.version

    def node_count(self, code: int) -> int:
        if code in NODE_TYPE_CODES:
            return len(self.nodes[code].counts)
        return len(self.leaves[code].values)

    def live_populations(self) -> dict:
        """Current device buffer occupancy, O(#types): per node/leaf type,
        the number of live records (allocated minus recycled) and the
        free-list depth.  The observability layer publishes these as
        gauges after every write batch."""
        return {
            "nodes": {
                c: self._next_node[c] - len(self.free_nodes[c])
                for c in NODE_TYPE_CODES
            },
            "leaves": {
                c: self._next_leaf[c] - len(self.free_leaves[c])
                for c in LEAF_TYPE_CODES
            },
            "free_nodes": {
                c: len(self.free_nodes[c]) for c in NODE_TYPE_CODES
            },
            "free_leaves": {
                c: len(self.free_leaves[c]) for c in LEAF_TYPE_CODES
            },
        }

    def device_bytes(self) -> int:
        """Total device memory of all buffers (16-byte-aligned records)."""
        total = 0
        for code in NODE_TYPE_CODES + LEAF_TYPE_CODES:
            total += self.node_count(code) * self.node_record_bytes[code]
        total += self.dyn.heap.nbytes
        return total

    def leaf_value_location(self, code: int, index: int) -> int:
        """Stable scalar id of one leaf's value slot (used by the update
        engine's hash table as the conflict-resolution key)."""
        return pack_link(code, index)

    # convenience accessors used by kernels -----------------------------
    def children(self, code: int, idx: int) -> list[tuple[int, int]]:
        """``(byte, link)`` of every non-empty child of inner node ``idx``
        of type ``code``, read from the node buffers: slot order for
        N4/N16, byte order for N48/N256.  Deleted children (zeroed
        links) are skipped."""
        buf = self.nodes[code]
        if code == LINK_N48:
            slot = buf.child_index[idx]
            byts = np.flatnonzero(slot != N48_EMPTY_SLOT)
            links = buf.children[idx, slot[byts]]
        elif code == LINK_N256:
            byts = np.arange(256)
            links = buf.children[idx]
        else:
            n = int(buf.counts[idx])
            byts = buf.keys[idx, :n]
            links = buf.children[idx, :n]
        return [(b, link) for b, link in zip(byts.tolist(), links.tolist())
                if link]

    @property
    def n4(self) -> _NodeBuffers:
        return self.nodes[LINK_N4]

    @property
    def n16(self) -> _NodeBuffers:
        return self.nodes[LINK_N16]

    @property
    def n48(self) -> _NodeBuffers:
        return self.nodes[LINK_N48]

    @property
    def n256(self) -> _NodeBuffers:
        return self.nodes[LINK_N256]


def _leaf_types(
    lens: np.ndarray, single_leaf_size: int | None, long_keys: LongKeyStrategy
) -> np.ndarray:
    """Link type of the leaf of every key length in ``lens``: the
    smallest fixed leaf that holds the key (only the ``single_leaf_size``
    one when that is set), else the long-key strategy's ``LINK_HOST`` or
    ``LINK_DYNLEAF``.  Under ``ERROR`` the first long key raises."""
    fixed = [
        c for c in LEAF_TYPE_CODES
        if single_leaf_size in (None, LEAF_CAPACITY[c])
    ]
    limit = single_leaf_size or MAX_SHORT_KEY
    too_long = lens > limit
    if long_keys is LongKeyStrategy.ERROR and too_long.any():
        klen = int(lens[np.argmax(too_long)])
        raise KeyTooLongError(
            f"key of {klen} bytes exceeds the {limit}-byte fixed-leaf "
            "maximum and long_keys=ERROR "
            "(see LongKeyStrategy / repro.host.hybrid)",
            key_len=klen, max_len=limit, strategy=long_keys.name,
        )
    long_type = (
        LINK_DYNLEAF if long_keys is LongKeyStrategy.DYNAMIC else LINK_HOST
    )
    caps = [LEAF_CAPACITY[c] for c in fixed]
    return np.array(fixed + [long_type], dtype=np.uint8)[
        np.searchsorted(caps, lens)
    ]


def _plan_counts(plan: BulkPlan, leaf_types: np.ndarray) -> dict:
    """How many records of each type the buffers need, and the dynamic
    heap's bytes."""
    bc = np.bincount(leaf_types, minlength=LINK_DYNLEAF + 1)
    for lv in plan.levels:
        bc += np.bincount(lv.type_code, minlength=bc.size)
    counts: dict = {c: int(bc[c]) for c in NODE_TYPE_CODES + LEAF_TYPE_CODES}
    dyn_lens = plan.lens[leaf_types == LINK_DYNLEAF]
    counts["dyn_bytes"] = int((_DynLeafHeap.HEADER + dyn_lens).sum())
    return counts


def _record_bytes(prefix_window: int) -> dict:
    """Per-type transaction sizes for a given stored-prefix window,
    padded to 16-byte alignment like :data:`CUART_NODE_BYTES`."""

    def pad16(n: int) -> int:
        return (n + 15) & ~15

    header = 4 + prefix_window + 1
    return {
        LINK_N4: pad16(header + 4 + 4 * 8),
        LINK_N16: pad16(header + 16 + 16 * 8),
        LINK_N48: pad16(header + 256 + 48 * 8),
        LINK_N256: pad16(header + 256 * 8),
        LINK_LEAF8: CUART_NODE_BYTES[LINK_LEAF8],
        LINK_LEAF16: CUART_NODE_BYTES[LINK_LEAF16],
        LINK_LEAF32: CUART_NODE_BYTES[LINK_LEAF32],
    }
