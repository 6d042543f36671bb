"""Hot-key result caching for the serving path.

Production key-value traffic is skewed: the Zipf-distributed streams of
:mod:`repro.workloads.distributions` concentrate most queries on a small
set of hot keys.  Serving those from a host-side LRU map short-circuits
the whole encode → batch → kernel pipeline for repeat lookups, which is
exactly where a serving deployment of CuART would put a memcache tier.

The cache stores *resolved* lookup outcomes (``value`` or ``None`` for a
confirmed miss — negative caching), and the engine invalidates entries on
every update / delete / insert that touches them, so cached answers are
always equal to what the kernels would return (property-tested against a
cache-disabled engine under interleaved mutation streams).

Accounting goes through the shared metrics registry
(:mod:`repro.obs`): the cache owns the ``cache_*_total`` counters and
every hit/miss/dedup tally — including the engine's in-call dedup hits —
is routed through this class's methods, so :attr:`HotKeyCache.stats`,
the registry snapshot and the BENCH JSON can never disagree.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry


class CacheStats:
    """Read-only view over the cache's registry counters.

    Keeps the historical ``cache.stats.hits`` / ``.misses`` /
    ``.invalidations`` / ``.evictions`` / ``.hit_rate`` surface while the
    authoritative values live in the metrics registry.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: "HotKeyCache") -> None:
        self._cache = cache

    @property
    def hits(self) -> int:
        return self._cache._hits.value

    @property
    def misses(self) -> int:
        return self._cache._misses.value

    @property
    def invalidations(self) -> int:
        return self._cache._invalidations.value

    @property
    def evictions(self) -> int:
        return self._cache._evictions.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class HotKeyCache:
    """A bounded LRU map ``key -> Optional[value]``.

    ``None`` is a first-class cached outcome (negative caching) — the
    sentinel for "not cached" is kept internal.
    """

    __slots__ = (
        "capacity", "_data", "stats", "metrics",
        "_hits", "_misses", "_invalidations", "_evictions", "_size_gauge",
    )

    _ABSENT = object()

    def __init__(
        self, capacity: int, *, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        if capacity <= 0:
            raise ReproError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[bytes, Optional[int]] = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter(
            "cache_hits_total", "hot-key cache hits (incl. in-call dedup)"
        )
        self._misses = self.metrics.counter(
            "cache_misses_total", "hot-key cache misses"
        )
        self._invalidations = self.metrics.counter(
            "cache_invalidations_total",
            "entries refreshed or dropped by writes",
        )
        self._evictions = self.metrics.counter(
            "cache_evictions_total", "LRU capacity evictions"
        )
        self._size_gauge = self.metrics.gauge(
            "cache_resident_entries", "entries currently resident"
        )
        self.stats = CacheStats(self)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def get(self, key: bytes):
        """Return ``(cached, value)``; refreshes LRU recency on hit."""
        data = self._data
        val = data.get(key, self._ABSENT)
        if val is self._ABSENT:
            self._misses.inc()
            return False, None
        data.move_to_end(key)
        self._hits.inc()
        return True, val

    def record_dedup_hits(self, n: int) -> None:
        """Credit ``n`` hits served by the engine's in-call dedup pass.

        Stream repeats collapsed before the LRU probe are hot-key-tier
        hits too (the dict plus the LRU form one tier); this is the one
        accounting door for them, so callers never touch the counters
        directly.
        """
        if n > 0:
            self._hits.inc(n)

    def put(self, key: bytes, value: Optional[int]) -> None:
        """Insert or refresh an entry, evicting the coldest if full."""
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        if len(data) >= self.capacity:
            data.popitem(last=False)
            self._evictions.inc()
        data[key] = value
        self._size_gauge.set(len(data))

    def update_if_cached(self, key: bytes, value: Optional[int]) -> None:
        """Refresh an entry in place if (and only if) it is resident —
        mutations must never *pollute* the LRU with cold keys."""
        if key in self._data:
            self._data[key] = value
            self._invalidations.inc()

    def invalidate(self, key: bytes) -> None:
        """Drop one entry if resident."""
        if self._data.pop(key, self._ABSENT) is not self._ABSENT:
            self._invalidations.inc()
            self._size_gauge.set(len(self._data))

    def clear(self) -> None:
        self._invalidations.inc(len(self._data))
        self._data.clear()
        self._size_gauge.set(0)
