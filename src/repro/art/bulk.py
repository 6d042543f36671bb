"""Bulk-loading: build an ART bottom-up from sorted keys.

Stage 1 of the paper's pipeline ("populating the ART index", §4.1)
dominates setup time when done with repeated root-to-leaf inserts.  For
a *sorted, distinct, prefix-free* key sequence the tree is determined
directly: find the common prefix (the node's compressed path), partition
by the next byte (the node's children), recurse — every node is
allocated exactly once at its final size, with no growth churn.

This implementation is array-native: the whole key set is bulk-encoded
into one padded matrix (:func:`repro.util.keys.encode_key_batch`),
sorted and validated with whole-array comparisons, and the tree levels
are discovered by a breadth-first frontier sweep whose per-level work is
a handful of NumPy operations — Python-object cost is paid only once per
actually-created node.  The result is byte-for-byte the same logical
tree the incremental path produces (property-tested).

The sweep emits a :class:`BulkPlan` — the tree's structure as parallel
arrays — and a plan is the only input of the device mapper
(:class:`repro.cuart.layout.CuartLayout`), which fills its SoA buffers
from it with batched array writes.  :func:`tree_plan` hands the mapper
the bulk load's own plan while no mutation has followed it, and sweeps a
new one from the tree's sorted items otherwise.  :func:`bulk_load`
validates the keys and builds the plan only: the pointer nodes are built
by :func:`build_pointer_tree` on the first read of
:attr:`AdaptiveRadixTree.root`, so an engine that maps, looks up on the
device and lists its content (:meth:`AdaptiveRadixTree.items` reads the
sorted input) never allocates them.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.art.nodes import InnerNode, Leaf, Node4, Node16, Node48, Node256
from repro.art.tree import AdaptiveRadixTree
from repro.constants import (
    LINK_N4,
    LINK_N16,
    LINK_N48,
    LINK_N256,
    NIL_VALUE,
)
from repro.errors import KeyPrefixError, ReproError
from repro.util.keys import encode_key_batch


@dataclass
class PlanLevel:
    """One tree level of a :class:`BulkPlan`: all inner nodes at the same
    distance from the root, as parallel arrays over the node groups and
    their child edges (edges sorted by ``(parent, byte)`` — children of
    one node are a contiguous ascending run)."""

    lo: np.ndarray  # (G,) first sorted key row of each node's range
    depth: np.ndarray  # (G,) key bytes consumed above the node
    split: np.ndarray  # (G,) branch column; prefix spans [depth, split)
    fanout: np.ndarray  # (G,)
    type_code: np.ndarray  # (G,) packed-link node type (by fanout)
    child_byte: np.ndarray  # (C,) branch byte
    child_parent: np.ndarray  # (C,) owning group index in this level
    child_is_leaf: np.ndarray  # (C,) bool
    child_ref: np.ndarray  # (C,) sorted key row (leaf) / next-level group
    child_slot: np.ndarray  # (C,) slot within the parent node


@dataclass
class BulkPlan:
    """Structural snapshot emitted by :func:`bulk_load`.

    ``version`` ties the plan to the exact tree state it describes:
    :func:`tree_plan` reuses a bulk load's plan only while its version
    still matches the tree (any insert/delete after the load makes it
    stale).
    """

    version: int
    mat: np.ndarray  # (n, W) sorted, zero-padded key matrix
    lens: np.ndarray  # (n,) key lengths, sorted-row order
    values: np.ndarray  # (n,) uint64 values, sorted-row order
    levels: list[PlanLevel]

    @property
    def n(self) -> int:
        return self.lens.size


def bulk_load(
    keys: Sequence[bytes], values: Sequence[int] | None = None
) -> AdaptiveRadixTree:
    """Build a tree from ``keys`` (will be sorted; must be distinct and
    prefix-free).  ``values`` default to each key's position in the
    *given* order.  Bad keys or values raise here; the pointer nodes
    wait for the first read of the tree's ``root``.

    >>> t = bulk_load([b"beta", b"alpha"])
    >>> t.search(b"alpha")
    1
    """
    keys_list = keys if isinstance(keys, list) else list(keys)
    if values is None:
        values_list = list(range(len(keys_list)))
    else:
        values_list = values if isinstance(values, list) else list(values)
    m = min(len(keys_list), len(values_list))
    if len(keys_list) > m:
        keys_list = keys_list[:m]
    if len(values_list) > m:
        values_list = values_list[:m]
    tree = AdaptiveRadixTree()
    if m == 0:
        return tree
    vals = _checked_values(values_list)
    mat, lens = encode_key_batch(keys_list)  # checks every key's type

    # lexicographic sort of the padded rows: memcmp on the padded bytes,
    # with the length as tiebreak (padded ties are prefix pairs — shorter
    # first keeps the classic "prefix precedes extension" order)
    void = np.ascontiguousarray(mat).view(np.dtype((np.void, mat.shape[1])))[:, 0]
    order = np.argsort(lens, kind="stable")
    order = order[np.argsort(void[order], kind="stable")]
    smat = mat[order]
    slens = lens[order]
    svals = vals[order]
    skeys = list(map(keys_list.__getitem__, order.tolist()))
    _validate_sorted(smat, slens, skeys)
    levels = _sweep_levels(smat, m)

    tree._size = m
    tree._version += 1
    tree._bulk_plan = BulkPlan(
        version=tree._version,
        mat=smat,
        lens=slens,
        values=svals,
        levels=levels,
    )
    tree._unbuilt = (levels, skeys, svals)
    return tree


def tree_plan(tree: AdaptiveRadixTree) -> BulkPlan:
    """The plan of ``tree``'s current content, the device mapper's input.

    A bulk load's own plan serves while no mutation has followed it;
    otherwise the tree's items are encoded and swept like a bulk load's
    keys.  A tree lists its keys sorted, distinct and prefix-free, so the
    sort and the validation are not repeated.  Nothing is cached on the
    tree.
    """
    plan = tree._bulk_plan
    if plan is not None and plan.version == tree.version:
        return plan
    pairs = list(tree.items())
    keys = list(map(itemgetter(0), pairs))
    if not set(map(type, keys)) <= {bytes}:
        # the insert path takes bytearray keys, the batch encoder does not
        keys = list(map(bytes, keys))
    mat, lens = encode_key_batch(keys)
    values = np.fromiter(
        map(itemgetter(1), pairs), dtype=np.uint64, count=len(pairs)
    )
    return BulkPlan(
        version=tree.version, mat=mat, lens=lens, values=values,
        levels=_sweep_levels(mat, len(pairs)),
    )


def build_pointer_tree(levels: list[PlanLevel], skeys: list, svals):
    """Build the pointer nodes of a bulk load — one :class:`Leaf` per
    sorted key and the inner nodes its ``levels`` describe — and return
    the root.  :attr:`AdaptiveRadixTree.root` calls it on its first read.

    The build allocates an acyclic tree whose every object survives, so
    a cyclic-collector pass here can free nothing and each full pass
    only re-walks the growing tree: pause the collector for the build
    (the idiom of Mercurial's ``util.nogc``) and restore the caller's
    setting, even when the build raises.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        leaf_objs = np.fromiter(
            map(Leaf, skeys, svals.tolist()), dtype=object, count=len(skeys)
        )
        if not levels:  # a one-key load: the leaf is the root
            return leaf_objs[0]
        return _build_nodes(levels, leaf_objs, skeys)
    finally:
        if gc_was_enabled:
            gc.enable()


def _checked_values(values_list: list) -> np.ndarray:
    """Vectorized value validation; falls back to the canonical per-item
    check (same exceptions as the incremental path) on any anomaly."""
    check = AdaptiveRadixTree._check_value
    try:
        vals = np.fromiter(values_list, dtype=np.uint64, count=len(values_list))
    except (OverflowError, ValueError, TypeError):
        for v in values_list:
            check(v)
        raise  # unreachable: some value must have failed the check
    ok_types = set(map(type, values_list)) == {int}
    if not ok_types or bool((vals == np.uint64(NIL_VALUE)).any()):
        for v in values_list:
            check(v)
    return vals


def _validate_sorted(
    smat: np.ndarray, slens: np.ndarray, skeys: list
) -> None:
    """Reject duplicates and prefix pairs — both are adjacent after the
    lexicographic sort, so two whole-array comparisons cover the set."""
    if slens.size < 2:
        return
    W = smat.shape[1]
    pl = slens[:-1]
    agree = (smat[1:] == smat[:-1]) | (np.arange(W)[None, :] >= pl[:, None])
    is_prefix = agree.all(axis=1)
    dup = is_prefix & (slens[1:] == pl)
    if dup.any():
        i = int(np.flatnonzero(dup)[0])
        raise ReproError(f"duplicate key {skeys[i + 1]!r} in bulk load")
    pref = is_prefix & (slens[1:] > pl)
    if pref.any():
        i = int(np.flatnonzero(pref)[0])
        raise KeyPrefixError(
            f"{skeys[i]!r} is a proper prefix of {skeys[i + 1]!r}"
        )


def _sweep_levels(smat: np.ndarray, m: int) -> list[PlanLevel]:
    """Breadth-first frontier sweep over the sorted key matrix.

    Every frontier group is a run of ≥2 sorted rows sharing ``depth``
    consumed bytes; its branch column is the first column where the
    run's extremes differ (sorted input: the extremes bound the group),
    and the child runs are delimited by value changes in that column.
    """
    levels: list[PlanLevel] = []
    if m < 2:
        return levels
    los = np.zeros(1, dtype=np.int64)
    his = np.full(1, m, dtype=np.int64)
    deps = np.zeros(1, dtype=np.int64)
    while los.size:
        G = los.size
        split = np.argmax(smat[los] != smat[his - 1], axis=1).astype(np.int64)
        sizes = his - los
        ends = np.cumsum(sizes)
        starts = ends - sizes
        total = int(ends[-1])
        # ragged expansion: all member rows of all groups, in group order
        row_idx = np.repeat(los - starts, sizes) + np.arange(
            total, dtype=np.int64
        )
        branch = smat[row_idx, np.repeat(split, sizes)]
        gid = np.repeat(np.arange(G, dtype=np.int64), sizes)
        startm = np.empty(total, dtype=bool)
        startm[0] = True
        startm[1:] = (gid[1:] != gid[:-1]) | (branch[1:] != branch[:-1])
        cpos = np.flatnonzero(startm)
        child_lo = row_idx[cpos]
        child_sizes = np.diff(np.append(cpos, total))
        child_byte = branch[cpos]
        child_parent = gid[cpos]
        fanout = np.bincount(child_parent, minlength=G)
        is_leaf = child_sizes == 1
        inner = ~is_leaf
        child_ref = np.empty(cpos.size, dtype=np.int64)
        child_ref[is_leaf] = child_lo[is_leaf]
        child_ref[inner] = np.arange(int(inner.sum()), dtype=np.int64)
        slot = (
            np.arange(cpos.size, dtype=np.int64)
            - (np.cumsum(fanout) - fanout)[child_parent]
        )
        tcode = np.where(
            fanout <= 4,
            LINK_N4,
            np.where(
                fanout <= 16,
                LINK_N16,
                np.where(fanout <= 48, LINK_N48, LINK_N256),
            ),
        ).astype(np.uint8)
        levels.append(
            PlanLevel(
                lo=los, depth=deps, split=split, fanout=fanout,
                type_code=tcode, child_byte=child_byte,
                child_parent=child_parent, child_is_leaf=is_leaf,
                child_ref=child_ref, child_slot=slot,
            )
        )
        deps = split[child_parent[inner]] + 1
        los = child_lo[inner]
        his = los + child_sizes[inner]
    return levels


def _build_nodes(
    levels: list[PlanLevel], leaf_objs: np.ndarray, skeys: list
) -> InnerNode:
    """Construct the host node objects bottom-up (children exist before
    their parent), filling each node's internal arrays directly; returns
    the root."""
    node_arrays: list = [None] * len(levels)
    for li in range(len(levels) - 1, -1, -1):
        lv = levels[li]
        C = lv.child_byte.size
        child_objs = np.empty(C, dtype=object)
        leaf_m = lv.child_is_leaf
        child_objs[leaf_m] = leaf_objs[lv.child_ref[leaf_m]]
        inner_m = ~leaf_m
        if inner_m.any():
            child_objs[inner_m] = node_arrays[li + 1][lv.child_ref[inner_m]]
        ends_l = np.cumsum(lv.fanout).tolist()
        cb = lv.child_byte.tolist()
        co = child_objs.tolist()
        tc_l = lv.type_code.tolist()
        G = lv.lo.size
        cbn = lv.child_byte
        built: list = []
        append = built.append
        new4, new16 = Node4.__new__, Node16.__new__
        a = 0
        # bypass __init__ for N4/N16 (the dominant types by far): the
        # fresh empty lists it builds would be immediately replaced
        if not (lv.split > lv.depth).any():
            # no compressed paths anywhere on this level (the common
            # case for uniform keys): a slimmer loop without the
            # per-group prefix slicing
            for t, b in zip(tc_l, ends_l):
                if t == LINK_N4:
                    node = new4(Node4)
                    node.prefix = b""
                    node.keys = cb[a:b]
                    node.children = co[a:b]
                elif t == LINK_N16:
                    node = new16(Node16)
                    node.prefix = b""
                    node.keys = cb[a:b]
                    node.children = co[a:b]
                elif t == LINK_N48:
                    node = Node48(b"")
                    ci = node.child_index
                    ch = node.children
                    for s in range(b - a):
                        ci[cb[a + s]] = s
                        ch[s] = co[a + s]
                    node._count = b - a
                else:
                    node = Node256(b"")
                    ch_arr = np.full(256, None, dtype=object)
                    ch_arr[cbn[a:b]] = child_objs[a:b]
                    node.children = ch_arr.tolist()
                    node._count = b - a
                append(node)
                a = b
            node_arrays[li] = np.fromiter(built, dtype=object, count=G)
            continue
        lo_l = lv.lo.tolist()
        dep_l = lv.depth.tolist()
        spl_l = lv.split.tolist()
        for lo_g, dep_g, spl_g, t, b in zip(lo_l, dep_l, spl_l, tc_l, ends_l):
            prefix = skeys[lo_g][dep_g:spl_g] if spl_g > dep_g else b""
            if t == LINK_N4:
                node = new4(Node4)
                node.prefix = prefix
                node.keys = cb[a:b]
                node.children = co[a:b]
            elif t == LINK_N16:
                node = new16(Node16)
                node.prefix = prefix
                node.keys = cb[a:b]
                node.children = co[a:b]
            elif t == LINK_N48:
                node = Node48(prefix)
                ci = node.child_index
                ch = node.children
                for s in range(b - a):
                    ci[cb[a + s]] = s
                    ch[s] = co[a + s]
                node._count = b - a
            else:
                # scatter the (byte, child) run with one fancy index
                # instead of a per-edge Python loop (full nodes carry
                # up to 256 edges each)
                node = Node256(prefix)
                ch_arr = np.full(256, None, dtype=object)
                ch_arr[cbn[a:b]] = child_objs[a:b]
                node.children = ch_arr.tolist()
                node._count = b - a
            append(node)
            a = b
        node_arrays[li] = np.fromiter(built, dtype=object, count=G)
    return node_arrays[0][0]
