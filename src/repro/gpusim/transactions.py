"""Memory-transaction accounting.

The vectorized kernels process a query batch level by level (one "round"
per tree level — the SIMT lockstep view of the traversal loop).  Each
round they record how many global-memory transactions of which size they
issued and how many threads were still active.  The log keeps aggregates
only, so recording costs O(1) per (round, size-class) instead of O(batch).

Two properties of the log drive the CuART-vs-GRT comparison:

* ``dependent_rounds`` — the length of the serial dependency chain.  GRT
  needs *two* dependent transactions per node (header first, then a body
  whose size depends on the header, section 3.1), CuART one.
* alignment/size knowledge — CuART transactions carry ``aligned=True``
  and their exact node size; GRT body reads are flagged unaligned
  (arbitrary byte offsets in the single packed buffer).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class RoundStats:
    """Aggregates for one dependent traversal round."""

    active_threads: int = 0
    transactions: int = 0
    bytes: int = 0
    #: number of *distinct* device bytes touched this round.  Rounds near
    #: the root touch few distinct nodes (every query crosses the same
    #: upper levels), so their traffic becomes L2-resident; the cost
    #: model uses this to reproduce the paper's tree-size caching
    #: effects (figures 10, 15, 16).
    distinct_bytes: int = 0


@dataclass
class TransactionLog:
    """Aggregated record of all global-memory traffic of one kernel."""

    #: (size_bytes, aligned) -> number of transactions
    by_class: Counter = field(default_factory=Counter)
    rounds: list[RoundStats] = field(default_factory=list)
    #: threads launched (batch size); set once by the kernel.
    launched_threads: int = 0
    #: extra integer ALU / compare work, in simulated cycles (minor term).
    compute_cycles: int = 0
    #: atomic operations issued (update engine hash table CAS/max).
    atomic_ops: int = 0
    #: seconds of unavoidable serialization the kernel self-inflicts —
    #: e.g. GRT's globally-visible atomic read-modify-writes that fence
    #: and contend on conflicting addresses (figure 17: "the throughput
    #: of GRT remains almost constant ... which indicates memory
    #: conflicts").  Added on top of the roofline bounds.
    serial_stall_s: float = 0.0

    # ------------------------------------------------------------------
    def begin_round(self, active_threads: int) -> None:
        """Open a new dependent round with ``active_threads`` live lanes."""
        self.rounds.append(RoundStats(active_threads=int(active_threads)))

    def record(
        self, size_bytes: int, count: int = 1, *, aligned: bool = True
    ) -> None:
        """Record ``count`` independent transactions of ``size_bytes``
        within the current round."""
        if count <= 0:
            return
        self.by_class[(int(size_bytes), bool(aligned))] += int(count)
        if not self.rounds:
            self.begin_round(self.launched_threads)
        cur = self.rounds[-1]
        cur.transactions += int(count)
        cur.bytes += int(size_bytes) * int(count)

    def record_atomics(self, count: int) -> None:
        self.atomic_ops += int(count)

    def record_compute(self, cycles: int) -> None:
        self.compute_cycles += int(cycles)

    # ------------------------------------------------------------------
    @property
    def total_transactions(self) -> int:
        return sum(self.by_class.values())

    @property
    def total_bytes(self) -> int:
        return sum(size * cnt for (size, _), cnt in self.by_class.items())

    @property
    def unaligned_transactions(self) -> int:
        return sum(cnt for (_, aligned), cnt in self.by_class.items() if not aligned)

    @property
    def dependent_rounds(self) -> int:
        """Length of the serial chain the slowest thread experiences."""
        return len(self.rounds)

    def summary(self) -> dict:
        """Human-readable aggregate dict (used by the bench reports)."""
        return {
            "transactions": self.total_transactions,
            "bytes": self.total_bytes,
            "unaligned": self.unaligned_transactions,
            "rounds": self.dependent_rounds,
            "atomics": self.atomic_ops,
            "threads": self.launched_threads,
        }
