"""Closed-loop SLO control over the adaptive batch-close knobs.

The serving trade-off is the paper's figure 8 in real time: bigger
batches amortize PCIe staging and kernel launch (throughput), smaller
batches and shorter close deadlines bound queueing delay (latency).
:class:`SloController` closes the loop — it watches the windowed p99 of
the unlabeled ``server_slo_latency_us`` histogram (PR 3's metrics
surface; the window is the *delta* of bucket counts between retune
decisions, so Prometheus-style cumulative semantics stay intact) and
nudges :class:`~repro.serve.core.ServerCore`'s ``batch_close`` /
``deadline_us`` with an AIMD-flavoured policy:

- **tighten** (p99 above the objective): halve the close deadline
  first — it bounds the queueing term directly — then, once the
  deadline floors out, halve the batch size;
- **relax** (p99 under half the objective with a clean shed window):
  grow the batch back toward the cap — landing on the
  throughput-optimal *probed* point when an autotune sweep
  (:meth:`~repro.host.autotune.TuneResult.best_under`) is wired in —
  then stretch the deadline.

Relaxing only on *half* the objective gives the loop hysteresis; one
retune never simultaneously moves both knobs, so each window measures
one change.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["SloController", "windowed_quantile"]


def windowed_quantile(bounds: Sequence[float], deltas: Sequence[int],
                      q: float) -> float:
    """Quantile estimate over one observation *window*: ``deltas`` are
    per-bucket count increases since the window opened (cumulative
    histograms never reset, so windows subtract snapshots).  Linear
    interpolation within the owning bucket, like
    :meth:`repro.obs.metrics.Histogram.quantile`; the open overflow
    bucket extrapolates to twice the last bound."""
    total = sum(deltas)
    if total <= 0:
        return 0.0
    rank = q * total
    cum = 0
    for i, n in enumerate(deltas):
        if n <= 0:
            continue
        if cum + n >= rank:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else bounds[-1] * 2.0
            return lo + (hi - lo) * ((rank - cum) / n)
        cum += n
    return bounds[-1] * 2.0


class SloController:
    """AIMD retuner for a :class:`~repro.serve.core.ServerCore` (see
    module docstring for the policy).  Attach once; the core calls
    :meth:`maybe_retune` after every dispatched batch."""

    def __init__(
        self,
        slo_p99_us: float,
        *,
        interval: int = 1024,
        min_batch: int = 32,
        batch_cap: int = 1024,
        min_deadline_us: float = 25.0,
        max_deadline_us: float = 5_000.0,
        tune=None,
        relax_headroom: float = 0.5,
    ) -> None:
        self.slo_p99_us = float(slo_p99_us)
        self.interval = int(interval)
        self.min_batch = int(min_batch)
        self.batch_cap = int(batch_cap)
        self.min_deadline_us = float(min_deadline_us)
        self.max_deadline_us = float(max_deadline_us)
        #: optional :class:`~repro.host.autotune.TuneResult`; relax
        #: steps then snap to the best probed batch under the cap.
        self.tune = tune
        self.relax_headroom = float(relax_headroom)
        self.retunes = 0
        #: retune decisions, newest last: ``(direction, p99_us,
        #: window_ops)`` with direction tighten / relax / hold.
        self.history: list = []
        self._last_buckets: Optional[list] = None
        self._last_count = 0
        self._last_sheds = 0

    def attach(self, core) -> None:
        """Open the first observation window against the core's SLO
        histogram."""
        h = core.slo_histogram
        self._last_buckets = list(h.bucket_counts)
        self._last_count = h.count
        self._last_sheds = core.sheds

    def maybe_retune(self, core) -> Optional[str]:
        """Close the window and adjust one knob if it spans at least
        ``interval`` ops.  Returns the direction taken (``tighten`` /
        ``relax`` / ``hold``) or None while the window is still
        filling."""
        h = core.slo_histogram
        if self._last_buckets is None:
            self.attach(core)
            return None
        window_ops = h.count - self._last_count
        if window_ops < self.interval:
            return None
        deltas = [
            c - p for c, p in zip(h.bucket_counts, self._last_buckets)
        ]
        p99 = windowed_quantile(h.bounds, deltas, 0.99)
        shed_delta = core.sheds - self._last_sheds
        self._last_buckets = list(h.bucket_counts)
        self._last_count = h.count
        self._last_sheds = core.sheds

        direction = "hold"
        if p99 > self.slo_p99_us:
            direction = "tighten"
            if core.deadline_us > self.min_deadline_us:
                core.set_deadline(
                    max(core.deadline_us / 2.0, self.min_deadline_us)
                )
            elif core.batch_close > self.min_batch:
                core.set_batch_close(
                    max(core.batch_close // 2, self.min_batch)
                )
            else:
                direction = "hold"  # floored out on both knobs
        elif p99 < self.relax_headroom * self.slo_p99_us and shed_delta == 0:
            new_batch = core.batch_close
            if self.tune is not None:
                # the sweep already ranks every design point: jump to
                # the probed optimum under the global cap (tighten
                # recovers if the jump overshoots the SLO)
                new_batch = max(
                    self.tune.best_under(self.batch_cap).batch,
                    self.min_batch,
                )
                if new_batch < core.batch_close:
                    new_batch = core.batch_close  # relax never shrinks
            else:
                cap = min(core.batch_close * 2, self.batch_cap)
                if cap > core.batch_close:
                    new_batch = cap
            if new_batch > core.batch_close:
                direction = "relax"
                core.set_batch_close(new_batch)
            elif core.deadline_us < self.max_deadline_us:
                direction = "relax"
                core.set_deadline(
                    min(core.deadline_us * 2.0, self.max_deadline_us)
                )
        if direction != "hold":
            self.retunes += 1
            core._m_retunes.labels(direction=direction).inc()
        self.history.append((direction, p99, window_ops))
        return direction
