"""Layout persistence: save/load the mapped device buffers as ``.npz``.

The paper's pipeline re-maps the index from the host tree on every
process start (stage 2 of §4.1); for large indexes the mapping pass
dominates startup.  Persisting the flat buffers sidesteps it: the arrays
are already contiguous and typed, so a saved layout loads as a plain
``np.load`` plus bookkeeping — no tree walk.

A loaded layout carries no host tree (there is nothing to re-map from);
it serves lookups, range queries, updates, deletes and device-side
inserts, but structural re-mapping requires re-populating a tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.art.tree import AdaptiveRadixTree
from repro.constants import LEAF_TYPE_CODES, NODE_TYPE_CODES
from repro.cuart.layout import CuartLayout, LongKeyStrategy
from repro.errors import ReproError

#: bumped on any incompatible change to the on-disk format.
FORMAT_VERSION = 1


def save_layout(layout: CuartLayout, path: str | Path) -> None:
    """Write the layout's buffers and bookkeeping to ``path`` (.npz)."""
    layout.check_fresh()
    arrays: dict[str, np.ndarray] = {}
    for code in NODE_TYPE_CODES:
        buf = layout.nodes[code]
        arrays[f"n{code}_children"] = buf.children
        arrays[f"n{code}_counts"] = buf.counts
        arrays[f"n{code}_prefix"] = buf.prefix
        arrays[f"n{code}_prefix_len"] = buf.prefix_len
        if buf.keys is not None:
            arrays[f"n{code}_keys"] = buf.keys
        if buf.child_index is not None:
            arrays[f"n{code}_child_index"] = buf.child_index
    for code in LEAF_TYPE_CODES:
        buf = layout.leaves[code]
        arrays[f"l{code}_keys"] = buf.keys
        arrays[f"l{code}_key_lens"] = buf.key_lens
        arrays[f"l{code}_values"] = buf.values
    arrays["dyn_heap"] = layout.dyn.heap
    meta = {
        "format": FORMAT_VERSION,
        "root_link": int(layout.root_link),
        "long_keys": layout.long_keys.value,
        "single_leaf_size": layout.single_leaf_size,
        "prefix_window": layout.prefix_window,
        "max_levels": layout.max_levels,
        "next_node": {str(c): layout._next_node[c] for c in NODE_TYPE_CODES},
        "next_leaf": {str(c): layout._next_leaf[c] for c in LEAF_TYPE_CODES},
        "free_leaves": {str(c): layout.free_leaves[c] for c in LEAF_TYPE_CODES},
        "free_nodes": {str(c): layout.free_nodes[c] for c in NODE_TYPE_CODES},
        "dyn_offsets": layout.dyn.offsets,
        "host_leaves": [
            (k.hex(), v) for k, v in layout.host_leaves
        ],
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    np.savez_compressed(Path(path), **arrays)


def load_layout(path: str | Path) -> CuartLayout:
    """Reconstruct a layout saved by :func:`save_layout`.

    The returned layout is bound to an empty placeholder tree; it is
    immediately queryable and device-mutable, but a host re-map needs
    fresh population.
    """
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        if meta.get("format") != FORMAT_VERSION:
            raise ReproError(
                f"unsupported layout format {meta.get('format')!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        from repro.cuart.layout import _record_bytes

        layout = CuartLayout.__new__(CuartLayout)
        layout.long_keys = LongKeyStrategy(meta["long_keys"])
        layout.single_leaf_size = meta["single_leaf_size"]
        layout.prefix_window = int(meta.get("prefix_window", 15))
        layout.node_record_bytes = _record_bytes(layout.prefix_window)
        layout.spare = 0.0
        placeholder = AdaptiveRadixTree()
        layout._source = placeholder
        layout._source_version = placeholder.version
        layout.device_mutations = 0
        layout.device_inserts = 0
        layout.attached_tables = []
        layout.max_levels = int(meta["max_levels"])
        layout.root_link = int(meta["root_link"])
        layout._next_node = {c: meta["next_node"][str(c)] for c in NODE_TYPE_CODES}
        layout._next_leaf = {c: meta["next_leaf"][str(c)] for c in LEAF_TYPE_CODES}
        layout.free_leaves = {
            c: list(meta["free_leaves"][str(c)]) for c in LEAF_TYPE_CODES
        }
        layout.free_nodes = {
            c: list(meta["free_nodes"][str(c)]) for c in NODE_TYPE_CODES
        }
        layout.host_leaves = [
            (bytes.fromhex(k), v) for k, v in meta["host_leaves"]
        ]

        from repro.cuart.layout import _DynLeafHeap, _LeafBuffers, _NodeBuffers

        layout.nodes = {}
        for code in NODE_TYPE_CODES:
            layout.nodes[code] = _NodeBuffers(
                keys=data[f"n{code}_keys"].copy()
                if f"n{code}_keys" in data
                else None,
                children=data[f"n{code}_children"].copy(),
                child_index=data[f"n{code}_child_index"].copy()
                if f"n{code}_child_index" in data
                else None,
                counts=data[f"n{code}_counts"].copy(),
                prefix=data[f"n{code}_prefix"].copy(),
                prefix_len=data[f"n{code}_prefix_len"].copy(),
            )
        layout.leaves = {}
        for code in LEAF_TYPE_CODES:
            layout.leaves[code] = _LeafBuffers(
                keys=data[f"l{code}_keys"].copy(),
                key_lens=data[f"l{code}_key_lens"].copy(),
                values=data[f"l{code}_values"].copy(),
            )
        layout.dyn = _DynLeafHeap(
            heap=data["dyn_heap"].copy(), offsets=list(meta["dyn_offsets"])
        )
    return layout


def iter_layout_items(layout: CuartLayout):
    """Yield every live ``(key, value)`` pair stored in a layout's
    buffers — fixed leaves, dynamic leaves and host-memory leaves.

    This is how an engine reconstructs its authoritative host tree from
    a loaded layout (the buffers carry complete keys, so no side channel
    is needed).
    """
    from repro.constants import NIL_VALUE

    for code in LEAF_TYPE_CODES:
        buf = layout.leaves[code]
        live = layout._next_leaf.get(code, buf.keys.shape[0])
        for i in range(live):
            klen = int(buf.key_lens[i])
            v = int(buf.values[i])
            if klen == 0 or v == NIL_VALUE:
                continue  # unallocated spare row or lazily deleted
            yield buf.keys[i, :klen].tobytes(), v
    heap = layout.dyn.heap
    for off in layout.dyn.offsets:
        klen = int(heap[off]) | (int(heap[off + 1]) << 8)
        v = int.from_bytes(bytes(heap[off + 2 : off + 10]), "little")
        if v != NIL_VALUE:
            yield bytes(heap[off + 10 : off + 10 + klen]), v
    yield from layout.host_leaves
