"""The one batch-serving contract every front-end drives.

One batch pipeline (:class:`~repro.host.mixed.BatchPipeline`) turns an
interleaved op stream into device batches and a
:class:`~repro.host.mixed.MixedReport`, for every engine topology: it
keeps one *lane* per device — each shard of a
:class:`~repro.host.sharding.ShardedEngine`, or the engine itself —
with that device's coalescer, pending-write overlay, memtable and
launches.  Two front doors drive it: the offline
:class:`~repro.host.mixed.MixedWorkloadExecutor` (which
:class:`~repro.host.sharding.ShardedMixedExecutor` subclasses unchanged)
and the online :class:`~repro.serve.core.ServerCore`, which keeps one
virtual device cursor per lane.  :class:`Dispatch` names their shared
``run(stream) -> (results, report)`` contract, so benchmarks, the load
generator and user code can accept "anything that serves a stream"
without caring which engine topology or door sits behind it, and
:func:`make_dispatch` picks the implementation from whatever the caller
already has in hand.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.host.mixed import MixedReport, MixedWorkloadExecutor
from repro.host.sharding import ShardedEngine, ShardedMixedExecutor

__all__ = ["Dispatch", "make_dispatch"]

@runtime_checkable
class Dispatch(Protocol):
    """A batch-serving execution surface.

    Implementations hold an ``engine`` (the device topology they
    account against) and execute one interleaved op stream —
    ``(kind, payload)`` pairs with kinds ``lookup`` / ``update`` /
    ``delete`` / ``insert`` / ``scan`` — returning the lookup results
    in stream order plus a :class:`~repro.host.mixed.MixedReport`.
    ``run`` closes batches on size, key conflict and drain only, so
    every implementation gives the same results and the same batches
    on any clock.

    Known implementations: :class:`~repro.host.mixed.MixedWorkloadExecutor`
    (and its :class:`~repro.host.sharding.ShardedMixedExecutor`
    subclass) and :class:`~repro.serve.core.ServerCore` /
    :class:`~repro.serve.server.CuartServer` (the online door, which
    sheds when its queue bound is hit), over one device or key-space
    shards alike.
    """

    engine: object

    def run(self, stream) -> tuple[list, MixedReport]:
        """Execute the stream; returns (lookup results in stream order,
        report)."""
        ...


def make_dispatch(target) -> Dispatch:
    """Resolve *target* to a :class:`Dispatch` implementation.

    - an object already satisfying the protocol passes through
      (executors, servers, user implementations);
    - a :class:`~repro.host.sharding.ShardedEngine` gets a
      :class:`~repro.host.sharding.ShardedMixedExecutor`;
    - anything else gets a :class:`~repro.host.mixed.MixedWorkloadExecutor`,
      which refuses (:class:`~repro.errors.ReproError`) an object that
      is not a serving engine
      (:data:`~repro.host.engine.SERVING_CONTRACT`).
    """
    if isinstance(target, Dispatch):
        return target
    if isinstance(target, ShardedEngine):
        return ShardedMixedExecutor(target)
    return MixedWorkloadExecutor(target)
