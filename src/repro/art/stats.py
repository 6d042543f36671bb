"""Tree statistics.

These drive two things:

* the memory-consumption accounting of the three layouts (classic ART,
  GRT single buffer, CuART per-type buffers), and
* the GPU cost model: the simulated kernels charge one (CuART) or two
  (GRT) memory transactions per *visited node*, so the per-level node
  type mix and the leaf-depth distribution are exactly what determines
  throughput (section 3.1 and the figure-10 discussion: "larger trees are
  more densely populated ... large nodes occur more frequently").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.art.nodes import Child, InnerNode, Leaf
from repro.constants import (
    CUART_NODE_BYTES,
    GRT_BODY_BYTES,
    GRT_HEADER_BYTES,
    LEAF_CAPACITY,
    LINK_LEAF8,
    LINK_LEAF16,
    LINK_LEAF32,
    LINK_TYPE_NAMES,
    NODE_CAPACITY,
)
from repro.errors import KeyTooLongError


def leaf_type_for_key(key_len: int) -> int:
    """Smallest fixed leaf type that fits ``key_len`` bytes (section
    3.2.1: "several leaf objects of different sizes (8, 16, 32 bytes) to
    better adapt to dynamic key sizes")."""
    if key_len <= LEAF_CAPACITY[LINK_LEAF8]:
        return LINK_LEAF8
    if key_len <= LEAF_CAPACITY[LINK_LEAF16]:
        return LINK_LEAF16
    if key_len <= LEAF_CAPACITY[LINK_LEAF32]:
        return LINK_LEAF32
    raise KeyTooLongError(
        f"key length {key_len} exceeds the largest fixed leaf "
        f"({LEAF_CAPACITY[LINK_LEAF32]} bytes); configure a long-key "
        "strategy (repro.cuart.longkeys)"
    )


@dataclass
class TreeStats:
    """Aggregate structural statistics of one populated tree."""

    num_keys: int = 0
    #: inner node counts keyed by packed-link type code (1..4).
    node_counts: Counter = field(default_factory=Counter)
    #: leaf counts keyed by leaf type code (5..7); long keys counted
    #: under the key ``"long"``.
    leaf_counts: Counter = field(default_factory=Counter)
    #: per traversal level (0 = root): Counter of node type codes.
    level_type_mix: list[Counter] = field(default_factory=list)
    #: distribution of leaf depths measured in *node visits* (levels).
    leaf_level_histogram: Counter = field(default_factory=Counter)
    #: distribution of path-compression prefix lengths over inner nodes
    #: (``{prefix_byte_len: node_count}``) — how much vertical collapsing
    #: the key set admits.
    prefix_length_histogram: Counter = field(default_factory=Counter)
    #: total key bytes skipped via path compression.
    compressed_bytes: int = 0
    max_key_len: int = 0
    sum_key_len: int = 0

    # -- derived ---------------------------------------------------------
    @property
    def total_inner_nodes(self) -> int:
        return sum(self.node_counts.values())

    @property
    def avg_leaf_level(self) -> float:
        """Average number of node visits to reach a leaf (the root counts
        as level 0; a leaf at level d costs d inner-node reads plus one
        leaf read)."""
        total = sum(self.leaf_level_histogram.values())
        if total == 0:
            return 0.0
        return (
            sum(lvl * cnt for lvl, cnt in self.leaf_level_histogram.items()) / total
        )

    @property
    def avg_key_len(self) -> float:
        return self.sum_key_len / self.num_keys if self.num_keys else 0.0

    # internal: filled by collect_stats
    _visit_mix: Counter = field(default_factory=Counter)

    # -- memory models -----------------------------------------------------
    def art_host_bytes(self, pointer_bytes: int = 8) -> int:
        """Approximate memory of the classic pointer ART (malloc'd nodes
        spread across the heap, section 4.2)."""
        total = 0
        for code, cnt in self.node_counts.items():
            cap = NODE_CAPACITY[code]
            if code in (1, 2):
                body = cap + cap * pointer_bytes
            elif code == 3:
                body = 256 + 48 * pointer_bytes
            else:
                body = 256 * pointer_bytes
            total += cnt * (16 + body)  # 16-byte malloc/node header
        total += sum(self.leaf_counts.values()) * (16 + 8 + self.max_key_len)
        return total

    def grt_device_bytes(self) -> int:
        """Size of the GRT single packed buffer."""
        total = 0
        for code, cnt in self.node_counts.items():
            total += cnt * (GRT_HEADER_BYTES + GRT_BODY_BYTES[code])
        # GRT leaves are dynamically sized: header + value + key bytes
        total += sum(self.leaf_counts.values()) * GRT_HEADER_BYTES
        total += self.sum_key_len + 8 * self.num_keys
        return total

    def cuart_device_bytes(self, root_table_entries: int = 0) -> int:
        """Total size of the CuART per-type buffers (+ optional compacted
        root table, section 3.2.2)."""
        total = 0
        for code, cnt in self.node_counts.items():
            total += cnt * CUART_NODE_BYTES[code]
        for code, cnt in self.leaf_counts.items():
            if code == "long":
                continue
            total += cnt * CUART_NODE_BYTES[code]
        total += root_table_entries * 8
        return total


def collect_stats(root: Optional[Child]) -> TreeStats:
    """Walk the tree once and gather :class:`TreeStats`."""
    stats = TreeStats()
    if root is None:
        return stats
    # iterative DFS carrying (node, level); also count, per level, how
    # many leaves live below each node to weight the visit mix.
    stats._visit_mix = Counter()
    _walk(root, 0, stats)
    return stats


def _walk(node: Child, level: int, stats: TreeStats) -> int:
    """Returns the number of leaves below ``node`` (for visit weighting)."""
    while len(stats.level_type_mix) <= level:
        stats.level_type_mix.append(Counter())
    if isinstance(node, Leaf):
        try:
            code = leaf_type_for_key(len(node.key))
        except KeyTooLongError:
            code = "long"
        stats.leaf_counts[code] += 1
        stats.level_type_mix[level][code] += 1
        stats.leaf_level_histogram[level] += 1
        stats.num_keys += 1
        stats.sum_key_len += len(node.key)
        stats.max_key_len = max(stats.max_key_len, len(node.key))
        return 1
    assert isinstance(node, InnerNode)
    stats.node_counts[node.TYPE] += 1
    stats.level_type_mix[level][node.TYPE] += 1
    stats.compressed_bytes += len(node.prefix)
    stats.prefix_length_histogram[len(node.prefix)] += 1
    below = 0
    for _, child in node.children_items():
        below += _walk(child, level + 1, stats)
    # a uniform-random present-key lookup visits this node with
    # probability below/num_keys; accumulate un-normalized weights now,
    # normalize in visit_mix_per_lookup().
    stats._visit_mix[node.TYPE] += below
    return below


def publish_stats(registry, stats: TreeStats) -> None:
    """Publish one :class:`TreeStats` into a metrics registry as gauges.

    Called after a tree walk (``collect_stats``) — typically at snapshot
    time, since the walk is O(tree); the cheap per-write-batch refresh of
    the *device-side* populations lives in
    :meth:`repro.host.engine.CuartEngine._refresh_device_gauges`.
    Absent node/leaf types are explicitly zeroed so a re-publish after
    deletions never leaves stale populations behind.
    """
    g_nodes = registry.gauge(
        "art_nodes", "host-tree inner node population", labels=("type",)
    )
    for code in NODE_CAPACITY:
        g_nodes.labels(type=LINK_TYPE_NAMES[code]).set(
            stats.node_counts.get(code, 0)
        )
    g_leaves = registry.gauge(
        "art_leaves", "host-tree leaf population", labels=("type",)
    )
    for code in LEAF_CAPACITY:
        g_leaves.labels(type=LINK_TYPE_NAMES[code]).set(
            stats.leaf_counts.get(code, 0)
        )
    g_leaves.labels(type="long").set(stats.leaf_counts.get("long", 0))
    registry.gauge("art_keys", "keys stored in the host tree").set(
        stats.num_keys
    )
    registry.gauge(
        "art_avg_leaf_level", "mean node visits to reach a leaf"
    ).set(stats.avg_leaf_level)
    registry.gauge(
        "art_compressed_bytes", "key bytes elided by path compression"
    ).set(stats.compressed_bytes)
    g_prefix = registry.gauge(
        "art_prefix_length_nodes",
        "inner nodes by path-compression prefix length",
        labels=("len",),
    )
    for plen, cnt in sorted(stats.prefix_length_histogram.items()):
        g_prefix.labels(len=str(plen)).set(cnt)


def visit_mix_per_lookup(stats: TreeStats) -> dict:
    """Expected number of inner nodes of each type visited by one
    uniform-random lookup of a *present* key, plus the leaf read.

    This is the workload profile handed to the GPU cost model.
    """
    if stats.num_keys == 0:
        return {}
    mix = {
        code: weight / stats.num_keys for code, weight in stats._visit_mix.items()
    }
    for code, cnt in stats.leaf_counts.items():
        mix[code] = mix.get(code, 0.0) + cnt / stats.num_keys
    return mix
