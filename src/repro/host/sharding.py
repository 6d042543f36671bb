"""Key-space-sharded multi-GPU serving: scale writes, not just reads.

:mod:`repro.host.multigpu` models *replicated* scale-out — reads fan
out across replicas but every update must be broadcast, so write-heavy
traffic gets exactly zero scale-out.  This module implements the
partitioned alternative the NUMA hash-table literature prescribes:
the key space is split on its first one or two bytes (the natural
radix-tree split axis, same as :mod:`repro.cuart.partition`) into
256 or 65536 partitions, a partition→shard assignment table routes
every operation to the one simulated device that owns its key, and
each shard runs a full :class:`~repro.host.engine.CuartEngine` —
its own device buffers, PCIe link, fault injector, circuit breaker
and double-buffered :class:`~repro.gpusim.streams.StreamScheduler`.

Correctness invariants
----------------------

* **Deterministic routing.**  A key's shard is a pure function of the
  key and the assignment table, so every operation on a key — in any
  order, through any API — reaches the same engine.
* **Shard-local conflicts.**  Because routing is per-key, a read-after
  -write or write-after-write conflict can only involve ops on the
  *same* shard.  The batch pipeline (:class:`~repro.host.mixed.
  BatchPipeline`, behind both serving doors) therefore keeps one *lane*
  per shard — coalescer, pending-write overlay, memtable — and each
  lane flushes and pipelines on its own shard: any interleaving of the
  lanes is equivalent to some serial order of the original stream.
* **Scans are global barriers.**  A range touches an unbounded key set
  spanning shards, so every lane drains before the scan runs and
  per-shard results are merged in key order.

Simulated scaling is measured the only way it can be in a one-process
simulation: each shard's :class:`StreamScheduler` accounts its batches
on its own simulated clock, and :meth:`ShardedEngine.drain` folds the
per-shard windows with
:meth:`~repro.gpusim.streams.StreamOverlapStats.merge_parallel` —
devices run concurrently, so the combined makespan is the slowest
shard's, while serial cost adds.  N balanced shards each carrying 1/N
of the work cut the makespan by ~N.

Online rebalancing (:meth:`ShardedEngine.rebalance`) drains in-flight
ops, greedily re-assigns the hottest partitions (per-partition heat
counters, :class:`ShardRouter`) to the least-loaded shards, migrates
the affected subtrees through the serialize/re-map path (collect items
from the source host trees, rebuild the affected shard layouts), and
charges the simulated PCIe cost of moving the records.  Heat resets
afterwards so the next skew episode is measured fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.art.tree import AdaptiveRadixTree
from repro.constants import NIL_VALUE
from repro.errors import ReproError, SimulationError
from repro.gpusim.pcie import link_for_device
from repro.gpusim.streams import StreamOverlapStats
from repro.host.config import EngineConfig
from repro.host.engine import SUBMIT_KINDS, CuartEngine
from repro.host.mixed import MixedReport, MixedWorkloadExecutor
from repro.host.results import BatchResult
from repro.obs.flightrec import NULL_FLIGHT_RECORDER
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER

SHARDING_MODES = ("hash", "range")


@dataclass(frozen=True, kw_only=True)
class ShardingConfig:
    """How the key space is split over simulated devices."""

    #: simulated devices, one full engine each.
    n_shards: int = 2
    #: ``"hash"`` scrambles partitions over shards (uniform load under
    #: key-space skew); ``"range"`` keeps contiguous key ranges together
    #: (locality for scans, but a hot range lands on one shard until a
    #: rebalance moves it).
    mode: str = "hash"
    #: partition on the first 1 byte (256 partitions) or 2 bytes (65536
    #: partitions — finer-grained migration under heavy skew).
    partition_bytes: int = 1
    #: seed for the hash-mode partition scramble.
    seed: int = 0x5bd1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise SimulationError(
                "n_shards must be positive", value=self.n_shards
            )
        if self.mode not in SHARDING_MODES:
            raise SimulationError(
                f"mode must be one of {SHARDING_MODES}", value=self.mode
            )
        if self.partition_bytes not in (1, 2):
            raise SimulationError(
                "partition_bytes must be 1 or 2", value=self.partition_bytes
            )

    @property
    def n_partitions(self) -> int:
        return 256 ** self.partition_bytes


class ShardRouter:
    """Partition→shard assignment table plus per-partition heat.

    Routing is a pure function of the key and the table; heat counters
    accumulate per routed operation and drive
    :meth:`balanced_assignment`, the greedy refinement the engine's
    :meth:`ShardedEngine.rebalance` applies.
    """

    def __init__(self, config: ShardingConfig) -> None:
        self.config = config
        self.n_shards = config.n_shards
        self.n_partitions = config.n_partitions
        if config.mode == "hash":
            # a seeded permutation taken mod n_shards is both scrambled
            # (adjacent key ranges land on different shards) and exactly
            # balanced (each shard owns n_partitions/n_shards slots)
            rng = np.random.default_rng(config.seed)
            perm = rng.permutation(self.n_partitions)
            self.assignment = (perm % self.n_shards).astype(np.int32)
        else:
            self.assignment = np.minimum(
                np.arange(self.n_partitions, dtype=np.int64)
                * self.n_shards // self.n_partitions,
                self.n_shards - 1,
            ).astype(np.int32)
        #: routed operations per partition since the last heat reset.
        self.heat = np.zeros(self.n_partitions, dtype=np.int64)

    def partition_of(self, key: bytes) -> int:
        """First-byte(s) partition index (short keys pad with 0)."""
        if not key:
            return 0
        if self.config.partition_bytes == 1:
            return key[0]
        return (key[0] << 8) | (key[1] if len(key) > 1 else 0)

    def shard_of(self, key: bytes, *, record: bool = False) -> int:
        pid = self.partition_of(key)
        if record:
            self.heat[pid] += 1
        return int(self.assignment[pid])

    def route(self, keys: Sequence[bytes], *, record: bool = True
              ) -> np.ndarray:
        """(n,) int32 shard ids for a key batch, accumulating heat."""
        pids = np.fromiter(
            (self.partition_of(k) for k in keys),
            dtype=np.int64, count=len(keys),
        )
        if record and len(pids):
            np.add.at(self.heat, pids, 1)
        return self.assignment[pids]

    def shard_heat(self) -> np.ndarray:
        """(n_shards,) total heat per shard under the current table."""
        return np.bincount(
            self.assignment, weights=self.heat, minlength=self.n_shards
        )

    def imbalance(self) -> float:
        """Max/mean per-shard heat (1.0 = perfectly balanced or idle)."""
        per_shard = self.shard_heat()
        mean = per_shard.mean()
        return float(per_shard.max() / mean) if mean > 0 else 1.0

    def balanced_assignment(
        self, *, max_moves: Optional[int] = None
    ) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """Greedy minimal-churn rebalance of the assignment table.

        Repeatedly moves one partition from the hottest shard to the
        coolest — picking the partition whose heat is closest to half
        the gap, so each move shrinks the spread — until no move
        improves the maximum or ``max_moves`` is reached.  Returns the
        new table and the ``(partition, src, dst)`` move list; the
        router's own table is *not* mutated (the engine applies it
        after migrating the data).
        """
        heat = self.heat
        assignment = self.assignment.copy()
        shard_heat = np.bincount(
            assignment, weights=heat, minlength=self.n_shards
        )
        moves: list[tuple[int, int, int]] = []
        limit = self.n_partitions if max_moves is None else max_moves
        while len(moves) < limit:
            src = int(np.argmax(shard_heat))
            dst = int(np.argmin(shard_heat))
            gap = shard_heat[src] - shard_heat[dst]
            if gap <= 0:
                break
            pids = np.nonzero((assignment == src) & (heat > 0))[0]
            if pids.size == 0:
                break
            h = heat[pids]
            ok = h < gap  # strictly shrinks the src-dst spread
            if not ok.any():
                break
            pids, h = pids[ok], h[ok]
            p = int(pids[np.argmin(np.abs(h - gap / 2))])
            assignment[p] = dst
            shard_heat[src] -= heat[p]
            shard_heat[dst] += heat[p]
            moves.append((p, src, dst))
        return assignment, moves

    def reset_heat(self) -> None:
        self.heat[:] = 0


class ShardedEngine:
    """N key-space shards, each a full :class:`CuartEngine`, behind the
    single-engine batch API.

    Construction mirrors the engines: pass an
    :class:`~repro.host.config.EngineConfig` (or its fields as kwargs)
    plus a :class:`ShardingConfig`.  Every shard engine shares the base
    metrics registry through a ``shard="i"``-labeled
    :class:`~repro.obs.metrics.ScopedRegistry` view and the base
    tracer; fault injection, when configured, is re-seeded per shard so
    devices fail independently.

    >>> eng = ShardedEngine(sharding=ShardingConfig(n_shards=2))
    >>> eng.populate([(b'key-a\\x00', 1), (b'key-b\\x00', 2)])
    >>> eng.map_to_device()
    >>> eng.lookup([b'key-a\\x00', b'missing\\x00'])
    [1, None]
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        sharding: Optional[ShardingConfig] = None,
        **kwargs,
    ) -> None:
        if config is None:
            config = EngineConfig(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either config=EngineConfig(...) or individual "
                "keyword arguments, not both"
            )
        self.config = config
        self.sharding = sharding if sharding is not None else ShardingConfig()
        self.batch_size = config.batch_size
        self.metrics = (
            config.metrics if config.metrics is not None else MetricsRegistry()
        )
        self.tracer = config.tracer if config.tracer is not None else NULL_TRACER
        self.flight = (
            config.flight_recorder
            if config.flight_recorder is not None
            else NULL_FLIGHT_RECORDER
        )
        self.router = ShardRouter(self.sharding)
        #: StreamEvents of the most recent ``submit``: the share of the
        #: shard that ran longest (see :meth:`submit`).
        self.last_events: list = []
        self._pcie = link_for_device(config.device.name)
        self.shards: list[CuartEngine] = []
        subtrack = getattr(self.tracer, "subtrack", None)
        for i in range(self.sharding.n_shards):
            faults = config.faults
            if faults is not None and faults.enabled:
                # independent fault streams per simulated device
                faults = replace(faults, seed=faults.seed + 1000 * i)
            # each shard traces onto its own pair of named tracks
            # (shardN/host, shardN/gpu-sim) so a chrome trace shows the
            # simulated devices side by side instead of collapsed onto
            # one host track; every event carries the shard id
            shard_tracer = (
                subtrack(f"shard{i}", {"shard": i})
                if subtrack is not None else self.tracer
            )
            self.shards.append(CuartEngine(replace(
                config,
                metrics=self.metrics.scoped(shard=str(i)),
                tracer=shard_tracer,
                faults=faults,
            )))
        m = self.metrics
        self._g_imbalance = m.gauge(
            "shard_imbalance_ratio",
            "max/mean per-shard routed heat since the last reset",
        )
        self._g_heat = m.gauge(
            "shard_heat", "routed ops per shard since the last reset",
            labels=("shard",),
        )
        self._m_rebalances = m.counter(
            "shard_rebalances_total", "online shard rebalances executed",
        )
        self._m_migrated = m.counter(
            "shard_keys_migrated_total",
            "keys moved between shards by rebalances",
        )
        self._m_migration_us = m.counter(
            "shard_migration_sim_us_total",
            "simulated microseconds of rebalance PCIe traffic",
        )

    # -- routing ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.sharding.n_shards

    @property
    def device_health(self):
        """Worst-case circuit-breaker state across shards: an unhealthy
        shard's :class:`~repro.host.resilience.DeviceHealth` if any
        circuit is open, else the first shard reporting health, else
        ``None`` (no resilience policy anywhere).  The serving layer
        treats one open circuit as cluster-wide pressure because a
        single degraded shard already serializes its keys through the
        CPU path."""
        first = None
        for shard in self.shards:
            h = shard.device_health
            if h is None:
                continue
            if not h.healthy:
                return h
            if first is None:
                first = h
        return first

    # -- scatter-merge ---------------------------------------------------
    def _merge_results(
        self, op: str, n: int, parts: list[tuple[np.ndarray, BatchResult]]
    ) -> BatchResult:
        """Scatter per-shard batch results back into stream order.

        Preserves the lazy status/attempts fast path: when no shard
        materialized a status vector (no resilience events), the merged
        result leaves them lazy too.
        """
        found = np.zeros(n, dtype=bool)
        values = None
        if any(r.value_array is not None for _, r in parts):
            values = np.full(n, np.uint64(NIL_VALUE), dtype=np.uint64)
        want_status = any(r._status is not None for _, r in parts)
        want_attempts = any(r._attempts is not None for _, r in parts)
        status = np.zeros(n, dtype=np.uint8) if want_status else None
        attempts = np.ones(n, dtype=np.int32) if want_attempts else None
        overrides: dict = {}
        summary: Optional[dict] = None
        for idx, r in parts:
            found[idx] = r.found_array
            if values is not None and r.value_array is not None:
                values[idx] = r.value_array
            if status is not None:
                status[idx] = r.status
            if attempts is not None:
                attempts[idx] = r.attempts
            for pos, val in r._overrides.items():
                overrides[int(idx[pos])] = val
            if r.summary is not None:
                if summary is None:
                    summary = dict(r.summary)
                else:
                    for k, v in r.summary.items():
                        summary[k] = summary.get(k, 0) + v
        return BatchResult(
            op, found=found, values=values, overrides=overrides,
            status=status, attempts=attempts, summary=summary,
        )

    # -- lifecycle -------------------------------------------------------
    def populate(self, items: Iterable[tuple[bytes, int]]) -> None:
        """Route ``(key, value)`` pairs to their owning shards' host
        trees (no heat recorded — placement, not traffic)."""
        items = list(items)
        sids = self.router.route([k for k, _ in items], record=False)
        for sid, shard in enumerate(self.shards):
            idx = np.flatnonzero(sids == sid)
            if idx.size:
                shard.populate([items[j] for j in idx])

    def map_to_device(self) -> None:
        for shard in self.shards:
            shard.map_to_device()

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def contains(self, key: bytes) -> bool:
        return self.shards[self.router.shard_of(key)].contains(key)

    def items(self) -> list[tuple[bytes, int]]:
        """All ``(key, value)`` pairs across shards, in key order (the
        canonicalization surface the lockstep tests compare)."""
        out: list[tuple[bytes, int]] = []
        for shard in self.shards:
            out.extend(shard.tree.items())
        out.sort(key=itemgetter(0))
        return out

    # -- batched ops -----------------------------------------------------
    def _routed(self, kind: str, payloads: Sequence, *,
                submit: bool = False) -> BatchResult:
        """Route one batch per key, run each shard's sub-batch (through
        its ``submit`` pipeline when ``submit``), and scatter-merge the
        results back into stream order.  ``payloads`` are keys for
        ``lookup``/``delete`` and ``(key, value)`` pairs — or
        ``(key, None)`` delete rows in a ``write`` — otherwise."""
        payloads = (
            list(payloads) if not isinstance(payloads, (list, tuple))
            else payloads
        )
        if kind in ("lookup", "delete"):
            keys = payloads
        else:
            keys = [k for k, _ in payloads]
        sids = self.router.route(keys)
        parts, shares = [], []
        for sid, shard in enumerate(self.shards):
            idx = np.flatnonzero(sids == sid)
            if not idx.size:
                continue
            part = [payloads[j] for j in idx]
            if submit:
                res = shard.submit(kind, part)
            else:
                res = getattr(shard, kind)(part)
            parts.append((idx, res))
            shares.append(shard.last_events)
        if submit:
            self.last_events = max(
                shares, key=lambda evs: sum(ev.serial_s for ev in evs),
                default=[],
            )
        return self._merge_results(kind, len(payloads), parts)

    def lookup(self, keys: Sequence[bytes]) -> BatchResult:
        return self._routed("lookup", keys)

    def write(self, rows: Sequence) -> BatchResult:
        """Update ``(key, value)`` and delete ``(key, None)`` rows, one
        fused write launch per shard batch."""
        return self._routed("write", rows)

    def update(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        return self._routed("update", items)

    def delete(self, keys: Sequence[bytes]) -> BatchResult:
        return self._routed("delete", keys)

    def insert(self, items: Sequence[tuple[bytes, int]]) -> BatchResult:
        return self._routed("insert", items)

    def range(self, lo: bytes, hi: bytes) -> list[tuple[bytes, int]]:
        """Inclusive range: every shard scans (hash mode scatters any
        range across all of them), merged in key order."""
        rows: list[tuple[bytes, int]] = []
        for shard in self.shards:
            rows.extend(shard.range(lo, hi))
        rows.sort(key=itemgetter(0))
        return rows

    # -- async dispatch --------------------------------------------------
    def submit(self, kind: str, payloads: Sequence) -> BatchResult:
        """Pipelined dispatch: route the batch, submit each sub-batch on
        its shard's own :class:`StreamScheduler` — shards are
        independent devices, so their submit windows run concurrently
        in simulated time.  (The batch pipeline submits to each shard's
        engine itself.)

        :attr:`last_events` becomes the events of the shard whose share
        ran longest: the shards start the launch together, so that share
        finishes last, and a sharded launch completes when its slowest
        shard does."""
        if kind not in SUBMIT_KINDS:
            raise ReproError(
                f"cannot submit {kind!r} batches to ShardedEngine"
            )
        return self._routed(kind, payloads, submit=True)

    def drain(self) -> StreamOverlapStats:
        """Close every shard's submit window and fold the concurrent
        windows (makespan = slowest shard) into one fresh stats record;
        the shards' own windows are left as they were drained."""
        merged = StreamOverlapStats(streams=0)
        for shard in self.shards:
            merged.merge_parallel(shard.drain())
        self.publish_shard_stats()
        return merged

    # -- observability ---------------------------------------------------
    def publish_shard_stats(self) -> float:
        """Refresh the per-shard heat gauges and the imbalance ratio;
        returns the ratio."""
        per_shard = self.router.shard_heat()
        for i, h in enumerate(per_shard):
            self._g_heat.labels(shard=str(i)).set(float(h))
        ratio = self.router.imbalance()
        self._g_imbalance.set(ratio)
        return ratio

    def imbalance(self) -> float:
        return self.router.imbalance()

    # -- online rebalancing ----------------------------------------------
    def rebalance(self, *, max_moves: Optional[int] = None) -> dict:
        """Migrate hot partitions between shards to even out heat.

        Protocol, in order:

        1. **Drain** — every in-flight batch completes (simulated);
           migrations never interleave with serving.
        2. **Plan** — :meth:`ShardRouter.balanced_assignment` picks the
           minimal-churn move set from the heat counters.
        3. **Migrate** — the affected shards' host trees are flushed,
           their items re-routed under the new table, and each affected
           shard is rebuilt through the serialize/re-map path (fresh
           tree, bulk populate, ``map_to_device``).  The simulated PCIe
           cost of moving the records (device→host on the source, host→
           device on the destination) is charged and reported.
        4. **Reset** — heat counters clear so the next skew episode is
           measured fresh.

        Returns a summary dict; a no-op plan returns with
        ``moved_partitions == 0`` and leaves every shard untouched.
        """
        imbalance_before = self.router.imbalance()
        self.drain()
        new_assignment, moves = self.router.balanced_assignment(
            max_moves=max_moves
        )
        if not moves:
            return {
                "moved_partitions": 0, "moved_keys": 0, "migrated_bytes": 0,
                "sim_transfer_s": 0.0, "affected_shards": [],
                "imbalance_before": imbalance_before,
                "imbalance_after": imbalance_before,
            }
        affected = sorted(
            {src for _, src, _ in moves} | {dst for _, _, dst in moves}
        )
        with self.tracer.span(
            "shard.rebalance",
            {"moves": len(moves), "shards": len(affected)},
        ):
            partition_of = self.router.partition_of
            final: dict[int, list] = {i: [] for i in affected}
            moved_keys = 0
            migrated_bytes = 0
            for i in affected:
                # reading .tree flushes the deferred write mirror first
                for k, v in self.shards[i].tree.items():
                    dst = int(new_assignment[partition_of(k)])
                    final[dst].append((k, v))
                    if dst != i:
                        moved_keys += 1
                        migrated_bytes += len(k) + 8
            self.router.assignment = new_assignment
            for i in affected:
                shard = self.shards[i]
                shard.tree = AdaptiveRadixTree()
                shard.layout = None
                shard.root_table = None
                shard.populate(final[i])
                shard.map_to_device()
        # each record crosses the source link down and the destination
        # link up; the two legs pipeline through host memory, so charge
        # the slower leg plus one setup latency for the second
        leg = self._pcie.transfer_time(migrated_bytes)
        sim_transfer_s = leg + self._pcie.latency_s
        self._m_rebalances.inc()
        self._m_migrated.inc(moved_keys)
        self._m_migration_us.inc(int(sim_transfer_s * 1e6))
        self.router.reset_heat()
        self.publish_shard_stats()
        return {
            "moved_partitions": len(moves),
            "moved_keys": moved_keys,
            "migrated_bytes": migrated_bytes,
            "sim_transfer_s": sim_transfer_s,
            "affected_shards": affected,
            "imbalance_before": imbalance_before,
            "imbalance_after": self.router.imbalance(),
        }


class ShardedMixedExecutor(MixedWorkloadExecutor):
    """The offline door over a :class:`ShardedEngine`.

    :class:`~repro.host.mixed.MixedWorkloadExecutor` serves any engine:
    its :class:`~repro.host.mixed.BatchPipeline` keeps one lane per
    shard (coalescer, overlay, memtable), routes each op to its key's
    lane, launches each batch on that shard's engine and treats a scan
    as a barrier over every lane.  This subclass adds nothing.
    """

    def run(self, stream) -> tuple[list, MixedReport]:
        # perfbench's oltp_sharded workload traces this method,
        # ShardedMixedExecutor.__init__ and MixedWorkloadExecutor.run as
        # required wrap targets (perfbench/layers.py); without this
        # override the inherited run bypasses the last one's wrapper.
        # The class goes once that benchmark re-points its
        # serve.dispatch.run layer.
        return super().run(stream)
