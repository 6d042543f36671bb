"""Approximate (fuzzy) lookups over the CuART buffers.

Section 2.1 notes that "there also have been approaches for running
approximate lookups on the GPU by Groth et al. [8], making ART also
suitable for approximate queries" — the same group's companion work
("Parallelizing approximate search on adaptive radix trees", SEBD 2020).
This module provides the radix-tree variant of that capability over the
CuART layout: find every stored key within a Hamming distance budget of
the query (same length, ≤ k differing bytes).

The search is a budgeted beam over the device buffers: a frontier of
``(link, depth, mismatches)`` states expands level-synchronously — the
SIMT shape of [8] — taking the exact child for free and every other
child at +1 mismatch.  Compressed prefixes charge their own mismatch
counts; fixed leaves verify the remainder.  Transactions are charged per
visited node exactly like the exact kernel, so the cost model prices
approximate queries too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CUART_NODE_BYTES,
    LEAF_TYPE_CODES,
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    NIL_VALUE,
)
from repro.cuart.layout import CuartLayout
from repro.errors import ReproError
from repro.gpusim.transactions import TransactionLog
from repro.util.packing import link_index, link_type


@dataclass
class ApproxMatch:
    key: bytes
    value: int
    distance: int


@dataclass
class ApproxResult:
    matches: list[ApproxMatch]
    #: states expanded (the beam's work measure).
    states_visited: int
    log: TransactionLog

    def __len__(self) -> int:
        return len(self.matches)

    def best(self) -> ApproxMatch | None:
        return min(self.matches, key=lambda m: m.distance, default=None)


def approx_lookup(
    layout: CuartLayout,
    key: bytes,
    max_mismatches: int = 1,
    *,
    log: TransactionLog | None = None,
) -> ApproxResult:
    """All stored keys of ``len(key)`` bytes within Hamming distance
    ``max_mismatches`` of ``key``, with their distances."""
    layout.check_fresh()
    if max_mismatches < 0:
        raise ReproError("max_mismatches must be non-negative")
    if not key:
        raise ReproError("empty keys cannot be searched")
    if log is None:
        log = TransactionLog()
    matches: list[ApproxMatch] = []
    visited = 0
    if layout.root_link == 0:
        return ApproxResult(matches, visited, log)

    # frontier of (link, depth, mismatches-used); expanded level-sync
    frontier: list[tuple[int, int, int]] = [(int(layout.root_link), 0, 0)]
    klen = len(key)
    while frontier:
        log.begin_round(len(frontier))
        next_frontier: list[tuple[int, int, int]] = []
        distinct = 0
        for link, depth, miss in frontier:
            visited += 1
            code = link_type(link)
            idx = link_index(link)
            if code in LEAF_TYPE_CODES:
                distinct += CUART_NODE_BYTES[code]
                log.record(CUART_NODE_BYTES[code], 1)
                _check_leaf(layout, code, idx, key, miss, max_mismatches,
                            matches)
                continue
            if code in (LINK_N4, LINK_N16, LINK_N48, LINK_N256):
                distinct += CUART_NODE_BYTES[code]
                log.record(CUART_NODE_BYTES[code], 1)
                buf = layout.nodes[code]
                plen = int(buf.prefix_len[idx])
                # bytes beyond the stored window descend optimistically;
                # the leaf re-verification computes the true distance
                stored = min(plen, layout.prefix_window)
                if depth + plen + 1 > klen:
                    continue  # key too short to branch below this node
                # mismatches inside the (visible) compressed prefix
                pm = sum(
                    1
                    for j in range(stored)
                    if buf.prefix[idx, j] != key[depth + j]
                )
                miss2 = miss + pm
                if miss2 > max_mismatches:
                    continue
                ndepth = depth + plen
                byte = key[ndepth]
                for child_byte, child in layout.children(code, idx):
                    add = 0 if child_byte == byte else 1
                    if miss2 + add <= max_mismatches:
                        next_frontier.append((child, ndepth + 1, miss2 + add))
            # HOST / DYNLEAF states: approximate search over host-resident
            # or variable-length leaves is host work; skip silently
        log.rounds[-1].distinct_bytes = distinct
        frontier = next_frontier
    matches.sort(key=lambda m: (m.distance, m.key))
    return ApproxResult(matches, visited, log)


def _check_leaf(layout, code, idx, key, miss, budget, matches) -> None:
    buf = layout.leaves[code]
    stored_len = int(buf.key_lens[idx])
    if stored_len != len(key):
        return
    stored = buf.keys[idx, :stored_len].tobytes()
    # full re-verification from byte 0: optimistic prefix skips above may
    # have hidden mismatches, so the authoritative distance is computed
    # here (and is always >= the path's lower bound)
    dist = sum(1 for a, b in zip(stored, key) if a != b)
    v = int(buf.values[idx])
    if dist <= budget and v != NIL_VALUE:
        matches.append(ApproxMatch(key=stored, value=v, distance=dist))
