"""Compacted upper layers (section 3.2.2).

"In order to improve the total access latency, we merged the upper layers
into a multi-layer ART node, as proposed in [START] ... we merged the
first three layers into a lookup table.  We realized this optimization by
utilizing a dense array of compacted pointers (node links) ... Lookups
within the compacted root node are realized by using the first three
bytes of the key as an index into a dense array."

The table maps every possible ``k``-byte key prefix to the *deepest* node
whose traversal depth is still ≤ ``k`` bytes on that prefix's path, plus
the byte depth already consumed on arrival, so the kernel resumes a
normal traversal from there.  The paper uses ``k = 3`` (2^24 links =
128 MiB); the default here is configurable because the reproduction runs
trees of many sizes.
"""

from __future__ import annotations

import numpy as np

from repro.constants import LINK_EMPTY, NODE_TYPE_CODES
from repro.cuart.layout import CuartLayout
from repro.errors import SimulationError
from repro.gpusim.transactions import TransactionLog
from repro.util.packing import link_index, link_type, pack_link


class RootTable:
    """Dense first-``k``-bytes dispatch table over a mapped layout."""

    def __init__(self, layout: CuartLayout, k: int = 3) -> None:
        if not 1 <= k <= 3:
            raise SimulationError(f"root table depth must be 1..3, got {k}")
        layout.check_fresh()
        self.k = k
        self.layout = layout
        size = 256**k
        self.links = np.full(size, np.uint64(pack_link(LINK_EMPTY, 0)), dtype=np.uint64)
        self.depths = np.zeros(size, dtype=np.uint8)
        self._fill(int(layout.root_link), 0, 0)
        # growth relocations (device-side inserts) must patch our links
        layout.attached_tables.append(self)

    # ------------------------------------------------------------------
    def _fill(self, link: int, depth: int, prefix_value: int) -> None:
        """Point every table entry under ``prefix_value`` (``depth`` bytes
        known) at ``link``, then let deeper nodes refine their subranges.

        A leaf, EMPTY, host or dynamic-leaf link ends a path, and so does
        a compressed prefix longer than the stored window (the buffers
        do not hold the bytes it skips)."""
        k = self.k
        span = 256 ** (k - depth)
        start = prefix_value * span
        self.links[start : start + span] = np.uint64(link)
        self.depths[start : start + span] = depth
        code = link_type(link)
        if code not in NODE_TYPE_CODES:
            return
        layout = self.layout
        idx = link_index(link)
        buf = layout.nodes[code]
        plen = int(buf.prefix_len[idx])
        child_depth = depth + plen + 1
        if child_depth > k or plen > layout.prefix_window:
            return  # past the table horizon, or prefix bytes not stored
        base = prefix_value
        for b in buf.prefix[idx, :plen].tolist():
            base = (base << 8) | b
        for byte, child in layout.children(code, idx):
            self._fill(child, child_depth, (base << 8) | byte)

    # ------------------------------------------------------------------
    def start_links(
        self,
        keys_mat: np.ndarray,
        key_lens: np.ndarray,
        log: TransactionLog | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table dispatch for a query batch.

        Returns ``(links, depths, covered)``; rows with keys shorter than
        ``k`` bytes are not covered and must start at the tree root.  The
        dispatch itself is one 8-byte aligned read per query (the paper's
        latency win: three tree levels collapse into one load).
        """
        B, W = keys_mat.shape
        k = self.k
        covered = key_lens >= k
        idx = np.zeros(B, dtype=np.int64)
        for j in range(min(k, W)):
            idx = (idx << 8) | keys_mat[:, j].astype(np.int64)
        if W < k:  # all keys shorter than the horizon
            covered = np.zeros(B, dtype=bool)
        idx = np.where(covered, idx, 0)
        if log is not None:
            log.begin_round(int(covered.sum()))
            log.record(8, int(covered.sum()))
            # the hot subset of the table is what competes for L2
            touched = np.unique(idx[covered]).size
            log.rounds[-1].distinct_bytes = touched * 8
        return (
            self.links[idx],
            self.depths[idx].astype(np.int64),
            covered,
        )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Device memory of the dense link array (128 MiB at k=3)."""
        return self.links.nbytes
