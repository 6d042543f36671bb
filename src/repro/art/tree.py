"""The Adaptive Radix Tree (host side).

Implements insert / search / delete with lazy expansion (single keys are
stored directly as leaves), pessimistic path compression (the complete
compressed prefix is kept on every inner node) and adaptive node resizing.

The tree is the *source of truth* of the reproduction pipeline: the GRT
and CuART device layouts are built by mapping a populated tree (paper
section 4.1, stage 2).  The CuART mapper reads only a plan of the tree
(:class:`repro.art.bulk.BulkPlan`, from :func:`repro.art.bulk.tree_plan`):
a bulk load's own plan until the first insert or delete, a plan swept
from :meth:`AdaptiveRadixTree.items` after it.  A bulk-loaded tree also
lists its pairs and answers searches from the plan, which
:func:`repro.art.bulk.absorb_writes` keeps fresh across an engine's
device updates and deletes; its pointer nodes are built on the first
read of :attr:`AdaptiveRadixTree.root`, which every insert, delete,
scan and statistics walk makes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

from repro.art.nodes import (
    Child,
    InnerNode,
    Leaf,
    Node4,
    grown_copy,
    maybe_shrunk_copy,
)
from repro.errors import KeyEncodingError, KeyPrefixError
from repro.util.keys import common_prefix_len


class AdaptiveRadixTree:
    """An ordered map from binary-comparable ``bytes`` keys to ``int``
    values (64-bit payloads; database row ids / value pointers).

    >>> t = AdaptiveRadixTree()
    >>> t.insert(b"alpha\\x00", 1)
    >>> t.search(b"alpha\\x00")
    1
    """

    __slots__ = ("_root", "_unbuilt", "_size", "_version", "_bulk_plan")

    def __init__(self) -> None:
        self._root: Optional[Child] = None
        #: what :func:`repro.art.bulk.build_pointer_tree` needs to build a
        #: bulk load's pointer nodes, ``(levels, sorted keys, sorted
        #: values)``, until the first read of :attr:`root`; then None.
        self._unbuilt: Optional[tuple] = None
        self._size = 0
        #: bumped on every mutation; device layouts snapshot it to detect
        #: staleness (:class:`repro.errors.StaleLayoutError`).
        self._version = 0
        #: the ``BulkPlan`` :func:`repro.art.bulk.bulk_load` built (and
        #: :func:`repro.art.bulk.absorb_writes` patched);
        #: :func:`repro.art.bulk.tree_plan` hands it to the device mapper
        #: until the first insert or delete drops it.
        self._bulk_plan = None

    @property
    def root(self) -> Optional[Child]:
        """The root node.  A bulk-loaded tree builds its pointer nodes on
        the first read (:func:`repro.art.bulk.build_pointer_tree`); a
        build that raises leaves the tree unbuilt, and the next read
        retries."""
        if self._unbuilt is not None:
            from repro.art.bulk import build_pointer_tree

            self._root = build_pointer_tree(*self._unbuilt)
            self._unbuilt = None  # releases the sorted key list
        return self._root

    @root.setter
    def root(self, node: Optional[Child]) -> None:
        self._root = node
        self._unbuilt = None

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self.search(key) is not None

    @property
    def version(self) -> int:
        return self._version

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, key: bytes) -> Optional[int]:
        """Return the value stored for ``key`` or ``None``.  An unbuilt
        bulk load bisects its sorted keys instead of building the
        pointer tree."""
        self._check_key(key)
        if self._unbuilt is not None:
            _, keys, values = self._unbuilt
            i = bisect_left(keys, key)
            return int(values[i]) if i < len(keys) and keys[i] == key else None
        node = self._root
        depth = 0
        while node is not None:
            if isinstance(node, Leaf):
                return node.value if node.key == key else None
            p = node.prefix
            if p:
                if key[depth : depth + len(p)] != p:
                    return None
                depth += len(p)
            if depth >= len(key):
                return None
            node = node.find_child(key[depth])
            depth += 1
        return None

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: int) -> None:
        """Insert ``key`` -> ``value``, replacing any previous value.

        Raises :class:`KeyPrefixError` if ``key`` is a proper prefix of an
        existing key or vice versa (use terminated encodings, see
        :mod:`repro.util.keys`).  A ``bytearray`` key is copied, so
        changing it afterwards leaves the tree as it is.
        """
        self._check_key(key)
        self._check_value(value)
        key = bytes(key)
        if self._bulk_plan is not None:
            self._bulk_plan = None
        if self.root is None:
            self.root = Leaf(key, value)
            self._size += 1
            self._version += 1
            return
        self.root = self._insert(self.root, key, value, 0)
        self._version += 1

    def _insert(self, node: Child, key: bytes, value: int, depth: int) -> Child:
        if isinstance(node, Leaf):
            return self._insert_at_leaf(node, key, value, depth)

        p = node.prefix
        rest = key[depth : depth + len(p)]
        cpl = common_prefix_len(p, rest)
        if cpl < len(p):
            # the compressed path diverges: split it at the mismatch
            return self._split_prefix(node, key, value, depth, cpl)
        depth += len(p)
        if depth >= len(key):
            # the new key ends inside this inner node: it would be a
            # proper prefix of every key below.
            raise KeyPrefixError(
                f"key {key!r} is a proper prefix of existing keys"
            )
        byte = key[depth]
        child = node.find_child(byte)
        if child is not None:
            new_child = self._insert(child, key, value, depth + 1)
            if new_child is not child:
                node.set_child(byte, new_child)
            return node
        if node.is_full:
            node = grown_copy(node)
        node.set_child(byte, Leaf(key, value))
        self._size += 1
        return node

    def _insert_at_leaf(self, leaf: Leaf, key: bytes, value: int, depth: int) -> Child:
        if leaf.key == key:
            leaf.value = value  # update in place; size unchanged
            return leaf
        ex = leaf.key[depth:]
        new = key[depth:]
        cpl = common_prefix_len(ex, new)
        if cpl == len(ex) or cpl == len(new):
            shorter = leaf.key if len(ex) < len(new) else key
            longer = key if shorter is leaf.key else leaf.key
            raise KeyPrefixError(
                f"key {shorter!r} is a proper prefix of {longer!r}"
            )
        branch = Node4(prefix=new[:cpl])
        branch.set_child(ex[cpl], leaf)
        branch.set_child(new[cpl], Leaf(key, value))
        self._size += 1
        return branch

    def _split_prefix(
        self, node: InnerNode, key: bytes, value: int, depth: int, cpl: int
    ) -> Child:
        if depth + cpl >= len(key):
            # raise before the prefix is cut: a rejected key leaves the
            # tree as it was
            raise KeyPrefixError(
                f"key {key!r} is a proper prefix of existing keys"
            )
        p = node.prefix
        branch = Node4(prefix=p[:cpl])
        node.prefix = p[cpl + 1 :]
        branch.set_child(p[cpl], node)
        branch.set_child(key[depth + cpl], Leaf(key, value))
        self._size += 1
        return branch

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; return ``True`` if it was present.

        Structural cleanup follows Leis: underfull nodes shrink to the
        next smaller type and single-child ``Node4`` nodes are merged into
        their child (path compression is restored).
        """
        self._check_key(key)
        if self._bulk_plan is not None:
            self._bulk_plan = None
        if self.root is None:
            return False
        if isinstance(self.root, Leaf):
            if self.root.key != key:
                return False
            self.root = None
            self._size -= 1
            self._version += 1
            return True
        new_root, removed = self._delete(self.root, key, 0)
        if removed:
            self.root = new_root
            self._size -= 1
            self._version += 1
        return removed

    def _delete(
        self, node: InnerNode, key: bytes, depth: int
    ) -> tuple[Optional[Child], bool]:
        p = node.prefix
        if key[depth : depth + len(p)] != p:
            return node, False
        depth += len(p)
        if depth >= len(key):
            return node, False
        byte = key[depth]
        child = node.find_child(byte)
        if child is None:
            return node, False
        if isinstance(child, Leaf):
            if child.key != key:
                return node, False
            node.remove_child(byte)
            return self._cleanup(node), True
        new_child, removed = self._delete(child, key, depth + 1)
        if not removed:
            return node, False
        assert new_child is not None
        if new_child is not child:
            node.set_child(byte, new_child)
        return node, True

    def _cleanup(self, node: InnerNode) -> Child:
        """Restore the ART invariants after a child was removed."""
        if isinstance(node, Node4) and node.num_children == 1:
            byte = node.keys[0]
            child = node.children[0]
            if isinstance(child, Leaf):
                return child
            # merge the path: parent prefix + branch byte + child prefix
            child.prefix = node.prefix + bytes([byte]) + child.prefix
            return child
        return maybe_shrunk_copy(node)

    # ------------------------------------------------------------------
    # ordered access (implemented in iterate.py, re-exported here)
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[bytes, int]]:
        """All ``(key, value)`` pairs in lexicographic key order.  An
        unbuilt bulk load lists its sorted input without building the
        pointer tree."""
        if self._unbuilt is not None:
            _, keys, values = self._unbuilt
            return zip(keys, values.tolist())
        from repro.art.iterate import iter_items

        return iter_items(self)

    def keys(self) -> Iterator[bytes]:
        return (k for k, _ in self.items())

    def minimum(self) -> Optional[tuple[bytes, int]]:
        """Smallest key and its value, or ``None`` for an empty tree."""
        from repro.art.iterate import minimum_leaf

        leaf = minimum_leaf(self.root)
        return None if leaf is None else (leaf.key, leaf.value)

    def maximum(self) -> Optional[tuple[bytes, int]]:
        """Largest key and its value, or ``None`` for an empty tree."""
        from repro.art.iterate import maximum_leaf

        leaf = maximum_leaf(self.root)
        return None if leaf is None else (leaf.key, leaf.value)

    def range_query(self, lo: bytes, hi: bytes) -> Iterator[tuple[bytes, int]]:
        """All pairs with ``lo <= key <= hi`` in order."""
        from repro.art.iterate import iter_range

        return iter_range(self, lo, hi)

    def prefix_query(self, prefix: bytes) -> Iterator[tuple[bytes, int]]:
        """All pairs whose key starts with ``prefix``, in order."""
        from repro.art.iterate import iter_prefix

        return iter_prefix(self, prefix)

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise KeyEncodingError(
                f"keys must be bytes, got {type(key).__name__}",
                got=type(key).__name__,
            )
        if len(key) == 0:
            raise KeyEncodingError("empty keys cannot be indexed", key_len=0)

    @staticmethod
    def _check_value(value: int) -> None:
        from repro.constants import NIL_VALUE

        if not isinstance(value, int):
            raise KeyEncodingError(
                f"values must be int, got {type(value).__name__}",
                got=type(value).__name__,
            )
        if not 0 <= value < NIL_VALUE:
            raise KeyEncodingError(
                f"values must fit an unsigned 64-bit payload and not equal "
                f"the NIL sentinel: {value}",
                value=value,
            )
