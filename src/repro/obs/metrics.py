"""Metric primitives and the registry.

Design constraints, in order:

1. **Hot-path cost** — the serving path observes a histogram per device
   batch and increments a couple of counters; everything on that path is
   attribute arithmetic on plain Python objects (no locks, no string
   formatting, no datetime).  Label resolution (:meth:`_Family.labels`)
   is a dict probe and is meant to be hoisted out of loops.
2. **Zero dependencies** — stdlib only (``bisect``, ``math``).
3. **One shape for every consumer** — :meth:`MetricsRegistry.snapshot`
   is the single source the BENCH JSON, the Prometheus exporter and the
   tests all read; nothing hand-builds report dicts next to it.

Histograms are fixed-bucket: ``observe`` bisects into a precomputed
bound list, and quantiles are estimated by linear interpolation inside
the owning bucket (the classic Prometheus ``histogram_quantile``
estimator, tightened with the exact observed min/max at the tails).
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf, isnan
from typing import Optional, Sequence

from repro.errors import ReproError

#: default bucket upper bounds for latency-in-microseconds histograms: a
#: 1-2-5 geometric ladder from 1us to 10s (wide enough for a scaled-down
#: populate pass, fine enough near the per-op serving latencies).
LATENCY_US_BUCKETS: tuple[float, ...] = tuple(
    m * 10**e for e in range(0, 7) for m in (1.0, 2.0, 5.0)
) + (1e7,)

#: bucket bounds for 0..1 fractions (batch occupancy, hit rates).
OCCUPANCY_BUCKETS: tuple[float, ...] = tuple(i / 20 for i in range(1, 21))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ReproError(f"counters only go up; got inc({n})")
        self.value += n


class Gauge:
    """A value that can go up and down (populations, depths)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Fixed-bucket histogram with streaming count/sum/min/max.

    ``observe(value, count=n)`` records ``n`` identical observations in
    one call — the executors measure wall-clock per *batch* and attribute
    the per-op share to every op in it, so a 4096-op batch costs one
    bisect, not 4096.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ReproError("histogram bounds must be strictly increasing")
        self.bounds = b
        # one overflow bucket past the last bound (+inf)
        self.bucket_counts = [0] * (len(b) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = inf
        self.max = -inf

    def observe(self, value: float, count: int = 1) -> None:
        if count <= 0:
            return
        if isnan(value):
            raise ReproError("refusing to observe NaN")
        self.bucket_counts[bisect_left(self.bounds, value)] += count
        self.count += count
        self.sum += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Add another histogram's observations (same bounds): the
        result is the histogram one fed both observation sets would be
        (its ``sum`` up to floating-point summation order)."""
        if other.bounds != self.bounds:
            raise ReproError("cannot merge histograms with other bounds")
        counts = self.bucket_counts
        for i, n in enumerate(other.bucket_counts):
            counts[i] += n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) by linear
        interpolation within the owning bucket, clamped to the exact
        observed ``[min, max]`` envelope."""
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - cum) / n
                est = lo + (hi - lo) * frac
                return min(max(est, self.min), self.max)
            cum += n
        return self.max

    def summary(self) -> dict:
        """The percentile record every exporter embeds."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.min,
            "max": self.max,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric: a set of children keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "children", "_mk")

    def __init__(self, name: str, kind: str, help: str,
                 label_names: tuple[str, ...], mk) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.children: dict[tuple, object] = {}
        self._mk = mk

    def labels(self, **labels):
        """Fetch (creating on first use) the child for one label set."""
        if tuple(labels) != self.label_names:
            raise ReproError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(v) for v in labels.values())
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = self._mk()
        return child

    def label_values(self) -> list[tuple]:
        return sorted(self.children)


class _ScopedFamily:
    """A family view that pre-binds constant labels (see
    :class:`ScopedRegistry`).  ``labels(...)`` takes only the caller's
    variable labels; the scope's constants are appended on resolution, in
    the registered order (variable labels first)."""

    __slots__ = ("_family", "_const")

    def __init__(self, family: _Family, const: dict) -> None:
        self._family = family
        self._const = const

    @property
    def name(self) -> str:
        return self._family.name

    def labels(self, **labels):
        return self._family.labels(**labels, **self._const)


class ScopedRegistry:
    """A constant-label view over a shared :class:`MetricsRegistry`.

    Instrumented code declares metrics exactly as before —
    ``m.counter("engine_queries_total", labels=("op",))`` — but every
    family registered through a scope carries the scope's constant
    labels appended to its schema, and every child resolution / value
    probe binds them automatically.  This is how the sharded serving
    layer gives each shard engine its own ``shard="i"``-labeled series
    in one shared registry without touching the engine's metric calls.

    ``snapshot()`` / ``families()`` read the *whole* underlying
    registry (one reporting surface); only declaration and ``value``
    are scoped.
    """

    def __init__(self, registry: "MetricsRegistry", **const) -> None:
        if not const:
            raise ReproError("ScopedRegistry needs at least one constant label")
        self._registry = registry
        self._const = {k: str(v) for k, v in const.items()}

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        full = tuple(labels) + tuple(self._const)
        fam = self._registry._register(name, "counter", help, full, Counter)
        return (_ScopedFamily(fam, self._const) if labels
                else fam.labels(**self._const))

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        full = tuple(labels) + tuple(self._const)
        fam = self._registry._register(name, "gauge", help, full, Gauge)
        return (_ScopedFamily(fam, self._const) if labels
                else fam.labels(**self._const))

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_US_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        full = tuple(labels) + tuple(self._const)
        fam = self._registry._register(
            name, "histogram", help, full, lambda: Histogram(bounds)
        )
        return (_ScopedFamily(fam, self._const) if labels
                else fam.labels(**self._const))

    def value(self, name: str, **labels):
        """Read one scoped child (the constant labels are appended to
        the probe)."""
        return self._registry.value(name, **labels, **self._const)

    def child(self, name: str, **labels):
        """One scoped series' metric object, or ``None``."""
        return self._registry.child(name, **labels, **self._const)

    # shared reporting surface: delegate unscoped
    def families(self):
        return self._registry.families()

    def get(self, name: str):
        return self._registry.get(name)

    def snapshot(self) -> dict:
        return self._registry.snapshot()

    def scoped(self, **const) -> "ScopedRegistry":
        """Nest a further scope (labels append outside-in)."""
        merged = dict(self._const)
        merged.update({k: str(v) for k, v in const.items()})
        return ScopedRegistry(self._registry, **merged)


class MetricsRegistry:
    """Process-local registry of named metric families.

    Registration is idempotent — asking for an existing name returns the
    same family (or bare child), so every layer can declare the metrics
    it touches without coordinating ownership; a kind or label-schema
    mismatch raises instead of silently forking the series.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def scoped(self, **const) -> ScopedRegistry:
        """A view of this registry that appends constant labels (e.g.
        ``registry.scoped(shard="0")``) to every family declared and
        every value probed through it."""
        return ScopedRegistry(self, **const)

    # -- declaration ----------------------------------------------------
    def _register(self, name: str, kind: str, help: str,
                  labels: Sequence[str], mk) -> _Family:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind or fam.label_names != tuple(labels):
                raise ReproError(
                    f"metric {name!r} already registered as {fam.kind}"
                    f"{fam.label_names}, not {kind}{tuple(labels)}"
                )
            return fam
        fam = _Family(name, kind, help, tuple(labels), mk)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()):
        """A counter family; with no labels, the single child directly."""
        fam = self._register(name, "counter", help, labels, Counter)
        return fam if labels else fam.labels()

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        fam = self._register(name, "gauge", help, labels, Gauge)
        return fam if labels else fam.labels()

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_US_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        fam = self._register(
            name, "histogram", help, labels, lambda: Histogram(bounds)
        )
        return fam if labels else fam.labels()

    # -- introspection --------------------------------------------------
    def families(self) -> list[_Family]:
        return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def child(self, name: str, **labels):
        """One series' metric object (:class:`Counter`, :class:`Gauge`
        or :class:`Histogram`), or ``None`` when it does not exist yet;
        never creates it."""
        fam = self._families.get(name)
        if fam is None:
            return None
        return fam.children.get(tuple(str(v) for v in labels.values()))

    def value(self, name: str, **labels):
        """Read one child's current value (counters/gauges) or summary
        (histograms); ``None`` when the series does not exist yet."""
        child = self.child(name, **labels)
        if child is None:
            return None
        if isinstance(child, Histogram):
            return child.summary()
        return child.value

    def snapshot(self) -> dict:
        """JSON-safe dump of every series — the one reporting surface.

        Shape::

            {"counters":   {"name": value | {"label=val[,...]": value}},
             "gauges":     {...same...},
             "histograms": {"name": summary | {"label=val": summary}}}
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for fam in self.families():
            section = out[fam.kind + "s"]
            if not fam.label_names:
                child = fam.children.get(())
                if child is None:
                    continue
                section[fam.name] = (
                    child.summary() if fam.kind == "histogram" else child.value
                )
                continue
            series = {}
            for key in fam.label_values():
                child = fam.children[key]
                label_str = ",".join(
                    f"{n}={v}" for n, v in zip(fam.label_names, key)
                )
                series[label_str] = (
                    child.summary() if fam.kind == "histogram" else child.value
                )
            if series:
                section[fam.name] = series
        return out
