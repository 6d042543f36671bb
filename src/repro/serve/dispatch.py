"""The one batch-serving contract every front-end drives.

One batch pipeline (:class:`~repro.host.mixed.BatchPipeline`) turns an
interleaved op stream into device batches and a
:class:`~repro.host.mixed.MixedReport`.  Two front doors drive it: the
offline :class:`~repro.host.mixed.MixedWorkloadExecutor` (and
:class:`~repro.host.sharding.ShardedMixedExecutor`, one executor per
key-space shard) and the online :class:`~repro.serve.core.ServerCore`.
:class:`Dispatch` names their shared ``run(stream) -> (results,
report)`` contract, so benchmarks, the load generator and user code can
accept "anything that serves a stream" without caring which engine
topology or door sits behind it, and :func:`make_dispatch` picks the
implementation from whatever the caller already has in hand.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import ReproError
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
    (one device), :class:`~repro.host.sharding.ShardedMixedExecutor`
    (key-space shards) and :class:`~repro.serve.core.ServerCore` /
    :class:`~repro.serve.server.CuartServer` (the online door, which
    sheds when its queue bound is hit).
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
    - a single engine exposing the batch-op surface the pipeline
      drives (``lookup``, ``batch_size``, ``submit``, ``drain`` and
      ``contains``) gets a :class:`~repro.host.mixed.MixedWorkloadExecutor`.
    """
    if isinstance(target, Dispatch):
        return target
    if isinstance(target, ShardedEngine):
        return ShardedMixedExecutor(target)
    missing = [a for a in ("lookup", "batch_size", "submit", "drain",
                           "contains") if not hasattr(target, a)]
    if not missing:
        return MixedWorkloadExecutor(target)
    raise ReproError(
        f"cannot build a Dispatch from {type(target).__name__!r} (no "
        f"{', '.join(missing)}): pass an engine, a sharded engine, or an "
        "object with run(stream)"
    )
