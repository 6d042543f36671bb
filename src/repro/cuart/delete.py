"""Device-side deletions (section 3.3).

"To process a deletion directly on the device, the tree is traversed,
keeping the last visited offset in local memory.  Once a leaf is reached,
its contents are cleared and the reference to the leaf is removed from
the last visited node.  The leaf index is pushed into a list of free
leaves which can be used for future inserts.  By not modifying the
structure of the tree (i.e. not collapsing nodes immediately), the
deletion performance can be increased significantly."

Unlike the nil-value deletes of the update engine (which only blank the
payload), this kernel also unlinks the leaf from its parent and recycles
the leaf slot.  Nodes are *not* collapsed or shrunk — the tree structure
is left as-is, exactly like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CUART_NODE_BYTES,
    DEFAULT_UPDATE_HASH_SLOTS,
    LEAF_TYPE_CODES,
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    N48_EMPTY_SLOT,
    NIL_VALUE,
)
from repro.cuart.hashtable import make_conflict_table
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import LookupResult, lookup_batch
from repro.cuart.update import hashtable_stat_recorder, write_path_counters
from repro.gpusim.transactions import TransactionLog
from repro.obs.metrics import MetricsRegistry
from repro.util.packing import link_indices, link_types


@dataclass
class DeleteResult:
    #: (B,) bool — the key existed and its leaf is now cleared.
    deleted: np.ndarray
    #: leaves unlinked from their parent (and pushed onto the free list).
    unlinked: int
    #: leaves only cleared because their parent was unknown (dispatched
    #: straight to a leaf by the root table) — they still read as deleted.
    cleared_only: int
    log: TransactionLog


def delete_batch(
    layout: CuartLayout,
    keys_mat: np.ndarray,
    key_lens: np.ndarray,
    *,
    root_table=None,
    hash_slots: int = DEFAULT_UPDATE_HASH_SLOTS,
    hash_table: str = "bucketed",
    log: TransactionLog | None = None,
    table=None,
    metrics: MetricsRegistry | None = None,
    located: LookupResult | None = None,
) -> DeleteResult:
    """Delete a batch of keys on the device.

    Duplicate deletions of one key inside the batch are deduplicated with
    the same atomic-max hash table the update engine uses, so each leaf
    is cleared and unlinked exactly once.  Callers issuing many batches
    can pass a ``table`` to reuse (it is reset here) and skip the
    per-batch allocation.  The caller gates the launch (the engine's write
    launch fires the fault hooks before the traversal and any clearing
    store, so an aborted batch left every leaf and parent link
    untouched).  ``located`` is the traversal's outcome for these rows
    when the caller's launch already walked the tree for them
    (:meth:`~repro.cuart.lookup.LookupResult.take`): each row's leaf and
    the last node visited above it.
    """
    layout.check_fresh()
    B = keys_mat.shape[0]
    if log is None:
        log = TransactionLog()

    res = located
    if res is None:
        res = lookup_batch(
            layout, keys_mat, key_lens, root_table=root_table, log=log
        )
    locations = res.locations
    found = locations != np.uint64(0)
    thread_ids = np.arange(B, dtype=np.int64)

    if table is None:
        table = make_conflict_table(hash_slots, variant=hash_table)
    else:
        table.reset()
    table.log = log
    winners = np.zeros(B, dtype=bool)
    if found.any():
        winners[found] = table.resolve_winners(
            locations[found], thread_ids[found]
        )
    if metrics is not None:
        hashtable_stat_recorder(metrics)(table)

    win_rows = np.nonzero(winners)[0]
    wlocs = locations[win_rows]
    wcodes = link_types(wlocs)
    widx = link_indices(wlocs)

    # ---- clear leaf contents + push onto the free list ---------------
    # group the work by the node types actually present in this batch:
    # one np.unique pass replaces a per-type any() scan over every code,
    # so a batch whose winners all live in one leaf class touches exactly
    # one buffer (the delete-tail-latency fix)
    unlinked = 0
    cleared_only = 0
    present_wcodes = np.unique(wcodes) if win_rows.size else wcodes[:0]
    for code in present_wcodes:
        if code not in LEAF_TYPE_CODES:
            continue
        sel = wcodes == code
        buf = layout.leaves[code]
        rows = widx[sel]
        buf.values[rows] = np.uint64(NIL_VALUE)
        buf.keys[rows] = 0
        buf.key_lens[rows] = 0
        log.record(CUART_NODE_BYTES[code], int(sel.sum()))  # clearing store

    # ---- remove the reference from the last visited node -------------
    # whole-array scatters per parent node type: distinct winner leaves
    # under one parent necessarily hang off distinct branch bytes, so the
    # scatter targets never collide
    pcodes = link_types(res.parent_links[win_rows])
    pidx = link_indices(res.parent_links[win_rows])
    pbytes = res.parent_bytes[win_rows].astype(np.int64)
    have_parent = res.parent_links[win_rows] != np.uint64(0)
    present_pcodes = (
        np.unique(pcodes[have_parent]) if have_parent.any() else pcodes[:0]
    )
    for code in present_pcodes:
        sel = have_parent & (pcodes == code)
        if code == LINK_N4 or code == LINK_N16:
            buf = layout.nodes[code]
            rows = pidx[sel]
            cap = buf.keys.shape[1]
            valid = (
                np.arange(cap, dtype=np.int64)[None, :]
                < buf.counts[rows].astype(np.int64)[:, None]
            )
            eq = (buf.keys[rows] == pbytes[sel][:, None]) & valid
            hit = eq.any(axis=1)
            slot = eq.argmax(axis=1)
            buf.children[rows[hit], slot[hit]] = np.uint64(0)
        elif code == LINK_N48:
            buf = layout.nodes[LINK_N48]
            rows = pidx[sel]
            slot = buf.child_index[rows, pbytes[sel]].astype(np.int64)
            ok = slot != N48_EMPTY_SLOT
            buf.children[rows[ok], slot[ok]] = np.uint64(0)
        elif code == LINK_N256:
            buf = layout.nodes[LINK_N256]
            buf.children[pidx[sel], pbytes[sel]] = np.uint64(0)
    unlinked = int(have_parent.sum())
    log.record(16, unlinked)  # child-link stores
    cleared_only = int(win_rows.size - unlinked)

    # free-list push: only safely recyclable (unlinked) leaves
    pushed = 0
    if have_parent.any():
        for code in np.unique(wcodes[have_parent]):
            if code not in LEAF_TYPE_CODES:
                continue
            sel = have_parent & (wcodes == code)
            layout.free_leaves[code].extend(widx[sel].tolist())
            pushed += int(sel.sum())

    deleted = np.zeros(B, dtype=bool)
    # every thread whose key resolved to a now-cleared location succeeded,
    # including the dedup losers
    deleted[found] = True
    layout.device_mutations += int(win_rows.size)
    if metrics is not None:
        m_winners, m_losers = write_path_counters(metrics, "delete")
        m_winners.inc(int(win_rows.size))
        m_losers.inc(int(found.sum()) - int(win_rows.size))
        metrics.counter(
            "free_list_pushes_total",
            "leaf slots recycled onto the free list by deletes",
        ).inc(pushed)
        metrics.counter(
            "delete_unlinked_total", "leaves unlinked from their parent"
        ).inc(unlinked)
        metrics.counter(
            "delete_cleared_only_total",
            "leaves cleared without a known parent (root-table dispatch)",
        ).inc(cleared_only)
    return DeleteResult(
        deleted=deleted, unlinked=unlinked, cleared_only=cleared_only, log=log
    )
