"""Range and prefix queries over the ordered leaf buffers.

Section 3.2.1: "transferring range queries from the accelerator to the
host is trivial because it is only required to transmit both the start
and the end index within the leaf arrays, because the keys are already
strictly ordered within the leaf buffers assuming a lexicographical
order, thus speeding up range queries significantly."

With the three fixed leaf sizes, one logical range maps to one
``[start, end)`` slice *per leaf buffer*; the host merges the (already
sorted) slices.  Keys cleared by device-side deletions surface as
``NIL_VALUE`` payloads and are filtered during materialization.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CUART_NODE_BYTES,
    LEAF_CAPACITY,
    LEAF_TYPE_CODES,
    NIL_VALUE,
)
from repro.cuart.layout import CuartLayout
from repro.gpusim.transactions import TransactionLog

#: representative inner-node transaction for the two boundary descents.
_DESCENT_NODE_BYTES = CUART_NODE_BYTES[2]  # N16 record


@dataclass
class RangeResult:
    """One range query's outcome."""

    #: per leaf-type code: the ``[start, end)`` slice of the leaf buffer —
    #: this pair of indices is all the device ships back per buffer.
    slices: dict
    #: materialized keys/values (sorted, deletions filtered).
    keys: list
    values: np.ndarray
    log: TransactionLog

    def __len__(self) -> int:
        return len(self.keys)


def _ordered_keys(
    layout: CuartLayout, code: int
) -> list[tuple[bytes, int, int]]:
    """Sorted ``(padded_bytes, true_length, row)`` leaf keys of one
    buffer, cached at first use.

    Tuple order equals exact lexicographic key order: padded bytes decide
    except for zero-extension ties, where the shorter key sorts first
    (``b"\x00" < b"\x00\x00"`` even though both pad to the same bytes).

    For a freshly mapped layout the buffer is already in order (each
    leaf type numbers its rows in key order) and the view is the
    identity; after device-side inserts the buffer order is broken, the
    engine invalidates this cache, and the rebuilt view carries the row
    indirection — range answers stay exact,
    only the paper's contiguous-slice property is weakened to "slice of
    the sorted view".  Deletions blank key bytes but the snapshot keeps
    the mapped bytes, so deleted rows are filtered by their NIL payloads.
    """
    cache = getattr(layout, "_range_key_cache", None)
    if cache is None:
        cache = {}
        layout._range_key_cache = cache
    if code not in cache:
        buf = layout.leaves[code]
        live = int(getattr(layout, "_next_leaf", {}).get(code, buf.keys.shape[0]))
        entries = [
            (buf.keys[i].tobytes(), int(buf.key_lens[i]), i)
            for i in range(live)
            if buf.key_lens[i] > 0 or buf.values[i] != 0
        ]
        entries.sort()
        cache[code] = entries
    return cache[code]


def _bound(key: bytes, width: int, fill: int) -> tuple[bytes, int]:
    """Search bound for ``key`` against a buffer of ``width``-byte
    records.  Truncation is safe: the true length carried in the tuple
    settles padded ties exactly (a stored key equal to the truncation is
    a proper prefix of the bound and sorts before it)."""
    padded = key[:width] + bytes([fill]) * max(width - len(key), 0)
    return (padded, len(key))


def range_query(
    layout: CuartLayout,
    lo: bytes,
    hi: bytes,
    *,
    log: TransactionLog | None = None,
) -> RangeResult:
    """All live ``(key, value)`` pairs with ``lo <= key <= hi``.

    Zero-padding both bounds to each buffer's width preserves the
    lexicographic semantics for prefix-free key sets: padding with 0x00
    makes a short bound compare exactly like its lexicographic position.
    """
    layout.check_fresh()
    if log is None:
        log = TransactionLog()
    slices: dict = {}
    out_keys: list[bytes] = []
    out_vals: list[int] = []
    # boundary descents: two traversals locate the start/end leaf indices
    log.begin_round(2)
    log.record(_DESCENT_NODE_BYTES, 2 * layout.max_levels)
    for code in LEAF_TYPE_CODES:
        buf = layout.leaves[code]
        n = buf.keys.shape[0]
        if n == 0:
            slices[code] = (0, 0)
            continue
        width = LEAF_CAPACITY[code]
        ordered = _ordered_keys(layout, code)
        start = bisect.bisect_left(ordered, _bound(lo, width, 0x00))
        hi_pad, hi_len = _bound(hi, width, 0x00)
        end = bisect.bisect_right(ordered, (hi_pad, hi_len, 1 << 62))
        slices[code] = (start, end)
        if end > start:
            # result transfer: the leaf records stream back to the host
            log.record(CUART_NODE_BYTES[code], end - start)
        for i in range(start, end):
            padded, klen, row = ordered[i]
            v = int(buf.values[row])
            if v == NIL_VALUE:
                continue  # lazily deleted
            out_keys.append(padded[:klen])
            out_vals.append(v)
    order = sorted(range(len(out_keys)), key=lambda i: out_keys[i])
    return RangeResult(
        slices=slices,
        keys=[out_keys[i] for i in order],
        values=np.array([out_vals[i] for i in order], dtype=np.uint64),
        log=log,
    )


def prefix_query(
    layout: CuartLayout,
    prefix: bytes,
    *,
    log: TransactionLog | None = None,
) -> RangeResult:
    """All live pairs whose key starts with ``prefix``.

    Equivalent to the range ``[prefix·00…, prefix·FF…]`` over each
    buffer's fixed width.
    """
    layout.check_fresh()
    if log is None:
        log = TransactionLog()
    slices: dict = {}
    out_keys: list[bytes] = []
    out_vals: list[int] = []
    log.begin_round(2)
    log.record(_DESCENT_NODE_BYTES, 2 * layout.max_levels)
    for code in LEAF_TYPE_CODES:
        buf = layout.leaves[code]
        n = buf.keys.shape[0]
        width = LEAF_CAPACITY[code]
        if n == 0 or len(prefix) > width:
            slices[code] = (0, 0)
            continue
        ordered = _ordered_keys(layout, code)
        start = bisect.bisect_left(ordered, _bound(prefix, width, 0x00))
        # upper bound: prefix extended with 0xFF fill; carry an
        # effectively-infinite length so padded ties all fall inside
        hi_pad, _ = _bound(prefix, width, 0xFF)
        end = bisect.bisect_right(ordered, (hi_pad, width + 1, 1 << 62))
        slices[code] = (start, end)
        if end > start:
            log.record(CUART_NODE_BYTES[code], end - start)
        for i in range(start, end):
            padded, klen, row = ordered[i]
            v = int(buf.values[row])
            if v == NIL_VALUE:
                continue
            key = padded[:klen]
            if key.startswith(prefix):
                out_keys.append(key)
                out_vals.append(v)
    order = sorted(range(len(out_keys)), key=lambda i: out_keys[i])
    return RangeResult(
        slices=slices,
        keys=[out_keys[i] for i in order],
        values=np.array([out_vals[i] for i in order], dtype=np.uint64),
        log=log,
    )


def count_range(
    layout: CuartLayout,
    lo: bytes,
    hi: bytes,
    *,
    log: TransactionLog | None = None,
) -> int:
    """COUNT(*) over ``lo <= key <= hi`` without materializing rows.

    The aggregation-pushdown case §3.2.1's ordered leaf buffers make
    cheap: the boundary positions alone give the count, so nothing but
    the two descents crosses the PCIe bus.  Lazily deleted rows inside
    the window are subtracted by checking payloads device-side.
    """
    layout.check_fresh()
    if log is None:
        log = TransactionLog()
    log.begin_round(2)
    log.record(_DESCENT_NODE_BYTES, 2 * layout.max_levels)
    total = 0
    for code in LEAF_TYPE_CODES:
        buf = layout.leaves[code]
        if buf.keys.shape[0] == 0:
            continue
        width = LEAF_CAPACITY[code]
        ordered = _ordered_keys(layout, code)
        start = bisect.bisect_left(ordered, _bound(lo, width, 0x00))
        hi_pad, hi_len = _bound(hi, width, 0x00)
        end = bisect.bisect_right(ordered, (hi_pad, hi_len, 1 << 62))
        if end <= start:
            continue
        rows = np.array([ordered[i][2] for i in range(start, end)])
        live = int((buf.values[rows] != np.uint64(NIL_VALUE)).sum())
        # one value-word check per candidate row (device-side filter)
        log.record(16, end - start)
        total += live
    return total
