"""The four benchmark workloads, each on a deterministic schedule.

A workload generates every input from its seed before anything is
timed: the (key, value) pairs, the op schedule, the arrival times and
the answers of a serial dict model.  One *round* then builds the system
from the pairs (``setup``, timed as ``setup_s``), runs the schedule's
untimed prefix (``warmup``), runs the rest (``phase``, timed for
``host_kops``), checks every answer and the final content against the
model (``check``), and reads the deterministic numbers (``exact``):
the simulated and virtual-clock metrics plus the program's own counters.

Two clocks are kept apart.  The host wall clock is measured by the
caller around ``setup`` and ``phase``.  Everything in ``exact`` is on
the simulated device clock (stream makespans) or the serving
``VirtualClock``, where batch composition depends only on the schedule,
so it is identical on every run at a given seed.

Read latency on the closed-loop workloads is the simulated response
time of the request that carried the lookup: the caller issues a
request when one of its slots frees and the answer returns at the
request's completion.  On the open-loop workloads it is the virtual
time from a lookup's scheduled arrival to ``ServedOp.t_done_us``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import CuartEngine
from repro.host.memtable import MemtableConfig
from repro.host.results import OpStatus
from repro.host.sharding import ShardedEngine, ShardingConfig
from repro.obs import attribute_stats
from repro.serve import ServerCore, VirtualClock, make_dispatch
from repro.workloads import QueryMix, btc_like_keys, mixed_queries, random_keys
from repro.workloads.distributions import zipf_indices

#: statuses counted as failed: refused by admission, or lost on the device.
FAILED_STATUSES = (int(OpStatus.SHED), int(OpStatus.FAILED))

#: a shed or failed lookup's latency; JSON has no infinity, and any
#: finite latency is far below this.
INF_LATENCY_US = 1e18


class OracleError(AssertionError):
    """A program answer disagrees with the serial dict model."""


class Workload:
    """Shared shape of the four workloads (see the module docstring)."""

    name = ""
    #: wrap targets (``layers.TARGETS`` attribute names) that must fire in
    #: this workload's traced round.
    required_targets: tuple = ()
    #: what one read-latency sample is.
    latency_samples = "lookups"

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size
        # one independent stream per workload, so two workloads at one
        # seed never share inputs
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def make_pairs(self, keys: list) -> None:
        self.keys = keys
        self.values = self.rng.permutation(len(keys)).tolist()
        self.pairs = list(zip(keys, self.values))

    def fail(self, index: int, what: str, got, expected):
        raise OracleError(
            f"{self.name}: op {index} ({what}) answered {got!r}, "
            f"expected {expected!r}"
        )

    def check_content(self, items, expected_items) -> None:
        if items == expected_items:
            return
        for i, (got, exp) in enumerate(zip(items, expected_items)):
            if got != exp:
                raise OracleError(
                    f"{self.name}: final content differs at item {i}: "
                    f"{got!r}, expected {exp!r}"
                )
        raise OracleError(
            f"{self.name}: final content holds {len(items)} keys, "
            f"expected {len(expected_items)}"
        )


def _percentiles(lat: np.ndarray, lookups=None) -> dict:
    """Median and p99 over lookups, with the number of independent
    samples and how many of them lie beyond p99.  On a closed loop
    ``lat`` holds one latency per request and ``lookups`` the lookups
    each request carried: the percentiles weight a request by its
    lookups, but the samples are the requests.  +inf (shed or failed)
    prints as :data:`INF_LATENCY_US`."""
    per_lookup = lat if lookups is None else np.repeat(lat, lookups)
    p50, p99 = np.percentile(per_lookup, [50, 99])
    return {
        "read_p50_us": min(float(p50), INF_LATENCY_US),
        "read_p99_us": min(float(p99), INF_LATENCY_US),
        "read_samples": int(lat.size),
        "read_beyond_p99": int(np.count_nonzero(lat > p99)),
    }


def _counter_total(snapshot: dict, name: str) -> float:
    """One counter summed over all its label sets (ops, shards)."""
    series = snapshot["counters"].get(name, 0)
    return sum(series.values()) if isinstance(series, dict) else series


def _engine_counts(snapshot: dict) -> dict:
    """Exact per-layer counts the program's registry publishes."""
    winners = _counter_total(snapshot, "write_dedup_winners_total")
    losers = _counter_total(snapshot, "write_dedup_losers_total")
    return {
        "gpusim.batches": _counter_total(snapshot, "stream_batches_total"),
        "cuart.hashtable.transactions": _counter_total(
            snapshot, "hashtable_transactions_total"),
        "cuart.hashtable.winner_ratio": (
            winners / (winners + losers) if winners + losers else 0.0),
    }


#: wrap targets every engine fires: set-up, and one submitted batch.
ENGINE_TARGETS = (
    "keys_to_matrix", "bulk_load", "CuartLayout.__init__", "lookup_batch",
    "CostModel.kernel_time", "StreamScheduler.submit", "CuartEngine.__init__",
    "CuartEngine.populate", "CuartEngine.map_to_device", "CuartEngine.submit",
    "CuartEngine.drain", "coalesce_encoded",
)
#: wrap targets of the synchronous write kernels and their overlay probes.
WRITE_TARGETS = ("AdaptiveRadixTree.search", "UpdateEngine.apply",
                 "delete_batch", "WriteOverlay.resolve_read",
                 "WriteOverlay.base_exists")
#: wrap targets of the online path through ``ServerCore``.
SERVE_TARGETS = (
    "OpClassCoalescer.add", "OpClassCoalescer.drain",
    "OpClassCoalescer.flush_due", "WriteOverlay.__init__",
    "ServerCore.__init__", "ServerCore.offer", "ServerCore.poll",
    "ServerCore.next_deadline_us", "ServerCore.flush",
)


#: why ``OpClassCoalescer`` cut a batch (``coalescer_flushes_total``).
FLUSH_REASONS = ("size-full", "key-conflict", "dep-order", "drain",
                 "deadline", "write-dependency")


def _flush_counts(snapshot: dict) -> dict:
    series = snapshot["counters"].get("coalescer_flushes_total", {})
    out = {f"host.batching.flush.{r}": 0 for r in FLUSH_REASONS}
    for labels, value in series.items():
        reason = dict(p.split("=", 1) for p in labels.split(","))["reason"]
        out[f"host.batching.flush.{reason}"] += value
    return out


class LookupUniform(Workload):
    """Closed loop, one caller keeping ``streams`` full lookup batches in
    flight through ``CuartEngine.submit``/``drain``; uniform keys."""

    name = "lookup_uniform"
    required_targets = ENGINE_TARGETS
    latency_samples = "requests"

    def generate(self) -> None:
        s = self.size
        self.make_pairs(random_keys(s["keys"], 12, seed=self.rng))
        b = s["batch"]
        n = (s["warm_batches"] + s["batches"]) * b
        idx = self.rng.integers(0, len(self.keys), size=n)
        queries = [self.keys[i] for i in idx]
        values = np.asarray(self.values)
        self.expected = [values[idx[i:i + b]].tolist()
                         for i in range(0, n, b)]
        self.batches = [queries[i:i + b] for i in range(0, n, b)]
        self.ops = s["batches"] * b
        self.total_ops = n

    def setup(self):
        eng = CuartEngine(batch_size=self.size["batch"])
        eng.populate(self.pairs)
        eng.map_to_device()
        return {"eng": eng}

    def warmup(self, st) -> None:
        eng = st["eng"]
        st["results"] = [eng.submit("lookup", b)
                         for b in self.batches[:self.size["warm_batches"]]]
        eng.drain()

    def phase(self, st) -> None:
        eng = st["eng"]
        submit = eng.submit
        results = st["results"]
        for b in self.batches[self.size["warm_batches"]:]:
            results.append(submit("lookup", b))
        st["window"] = eng.drain()

    def check(self, st) -> None:
        b = self.size["batch"]
        for j, (res, exp) in enumerate(zip(st["results"], self.expected)):
            got = res.to_list()
            if got != exp:
                i = next(i for i, (g, e) in enumerate(zip(got, exp))
                         if g != e)
                self.fail(j * b + i, f"lookup {self.batches[j][i]!r}",
                          got[i], exp[i])
        self.check_content(list(st["eng"].tree.items()), self.pairs)

    def exact(self, st) -> dict:
        eng = st["eng"]
        window = st["window"]
        done = np.asarray([ev.done_s for ev in window.events])
        # a batch is issued when the batch `streams` places earlier
        # frees its buffer (the window starts empty)
        slots = window.streams
        issued = np.concatenate([np.zeros(slots), done[:-slots]])
        lat_us = (done - issued[:done.size]) * 1e6
        timed = st["results"][self.size["warm_batches"]:]
        return {
            "sim_mops": self.ops / window.makespan_s / 1e6,
            "device_bytes_per_key": eng.layout.device_bytes() / len(eng),
            "failed": sum(res.n_failed for res in timed),
            **_percentiles(lat_us, self.size["batch"]),
            **_engine_counts(eng.metrics.snapshot()),
        }

    def engines(self, st) -> list:
        return [st["eng"]]


class OltpSharded(Workload):
    """Closed loop, one caller sending mixed-op requests through
    ``make_dispatch(ShardedEngine(4 shards, hash))``; uniform keys."""

    name = "oltp_sharded"
    required_targets = ENGINE_TARGETS + WRITE_TARGETS + (
        "OpClassCoalescer.add", "OpClassCoalescer.drain",
        "WriteOverlay.__init__", "WriteOverlay.note_update",
        "WriteOverlay.note_delete", "ShardRouter.shard_of",
        "ShardRouter.route", "ShardedEngine.__init__",
        "ShardedEngine.populate", "ShardedEngine.map_to_device",
        "ShardedEngine.publish_shard_stats", "ShardedMixedExecutor.__init__",
        "ShardedMixedExecutor.run", "MixedWorkloadExecutor.run",
    )
    latency_samples = "requests"

    def generate(self) -> None:
        s = self.size
        self.make_pairs(random_keys(s["keys"], 12, seed=self.rng))
        r = s["request"]
        n = (s["warm_requests"] + s["requests"]) * r
        stream = mixed_queries(
            self.keys, n, QueryMix(lookups=0.70, updates=0.25, deletes=0.05),
            seed=self.rng,
        )
        self.requests = [stream[i:i + r] for i in range(0, n, r)]
        model = dict(self.pairs)
        # per lookup: (stream index, expected answer)
        self.expected = []
        self.lookups_per_request = []
        for q, req in enumerate(self.requests):
            n_lookups = 0
            for j, (kind, p) in enumerate(req):
                if kind == "lookup":
                    self.expected.append((q * r + j, model.get(p)))
                    n_lookups += 1
                elif kind == "update":
                    if p[0] in model:
                        model[p[0]] = p[1]
                else:
                    model.pop(p, None)
            self.lookups_per_request.append(n_lookups)
        self.final_items = sorted(model.items())
        self.ops = s["requests"] * r
        self.total_ops = n
        self.stream = stream

    def setup(self):
        eng = ShardedEngine(
            batch_size=self.size["batch"],
            sharding=ShardingConfig(n_shards=4, mode="hash"),
        )
        eng.populate(self.pairs)
        eng.map_to_device()
        return {"eng": eng, "dispatch": make_dispatch(eng)}

    def warmup(self, st) -> None:
        run = st["dispatch"].run
        st["results"] = []
        st["warm_reports"] = []
        for req in self.requests[:self.size["warm_requests"]]:
            res, rep = run(req)
            st["results"].extend(res)
            st["warm_reports"].append(rep)

    def phase(self, st) -> None:
        run = st["dispatch"].run
        results = st["results"]
        reports = []
        for req in self.requests[self.size["warm_requests"]:]:
            res, rep = run(req)
            results.extend(res)
            reports.append(rep)
        st["reports"] = reports

    def check(self, st) -> None:
        got = st["results"]
        if len(got) != len(self.expected):
            raise OracleError(
                f"{self.name}: {len(got)} lookup answers, expected "
                f"{len(self.expected)}")
        for g, (i, e) in zip(got, self.expected):
            if g != e:
                self.fail(i, f"lookup {self.stream[i][1]!r}", g, e)
        self.check_content(st["eng"].items(), self.final_items)

    def exact(self, st) -> dict:
        eng = st["eng"]
        reports = st["reports"]
        makespans = [r.stream_overlap["makespan_s"] for r in reports]
        failed = sum(r.ops_by_status.get(s, 0) for r in reports
                     for s in ("SHED", "FAILED"))
        # per-layer counts cover the whole round, warm-up included
        forwarded = sum(sum(r.forwarded.values())
                        for r in st["warm_reports"] + reports)
        snapshot = eng.metrics.snapshot()
        return {
            "sim_mops": self.ops / sum(makespans) / 1e6,
            "device_bytes_per_key": sum(
                s.layout.device_bytes() for s in eng.shards) / len(eng),
            "failed": failed,
            **_percentiles(np.asarray(makespans) * 1e6,
                           self.lookups_per_request[
                               self.size["warm_requests"]:]),
            "host.overlay.forwarded": forwarded,
            "host.sharding.imbalance": eng.imbalance(),
            **_engine_counts(snapshot),
            **_flush_counts(snapshot),
        }

    def engines(self, st) -> list:
        return list(st["eng"].shards)


class _Serving(Workload):
    """Open loop on a ``VirtualClock``: ``ServerCore.offer`` at each
    scheduled arrival, batch-close deadlines fired in between."""

    def drive(self, st, lo: int, hi: int) -> None:
        core, clock = st["core"], st["clock"]
        offer, poll, next_due = core.offer, core.poll, core.next_deadline_us
        advance, now = clock.advance, clock.now_us
        arrivals, kinds, payloads = self.arrivals, self.kinds, self.payloads
        served = st["served"]
        for i in range(lo, hi):
            t = arrivals[i]
            while True:
                due = next_due()
                if due is None or due > t:
                    break
                advance(due - now())
                poll()
            advance(t - now())
            served.append(offer(kinds[i], payloads[i]))

    def warmup(self, st) -> None:
        st["served"] = []
        self.drive(st, 0, self.size["warm_ops"])
        # close the prefix's simulated stream window, so the phase's
        # makespan covers only the phase
        st["eng"].drain()

    def phase(self, st) -> None:
        self.drive(st, self.size["warm_ops"], len(self.arrivals))
        core, clock = st["core"], st["clock"]
        while True:
            due = core.next_deadline_us()
            if due is None:
                break
            clock.advance(max(due - clock.now_us(), 0.0))
            core.poll()
        core.flush()

    def check(self, st) -> None:
        served = st["served"]
        for i, exp in self.expected:
            op = served[i]
            if not op.done:
                raise OracleError(f"{self.name}: op {i} never completed")
            if op.status in FAILED_STATUSES:
                continue
            if op.value != exp:
                self.fail(i, f"lookup {self.payloads[i]!r}", op.value, exp)
        self.check_content(list(st["eng"].tree.items()), self.final_items)

    def exact(self, st) -> dict:
        eng, core = st["eng"], st["core"]
        warm = self.size["warm_ops"]
        served = st["served"][warm:]
        lat = []
        failed = 0
        for op, t in zip(served, self.arrivals[warm:]):
            bad = op.status in FAILED_STATUSES
            failed += bad
            if op.op == "lookup":
                lat.append(math.inf if bad else op.t_done_us - t)
        stats = core.stats()
        report = core.report_snapshot()
        foreground = sum(v for k, v in report.batches_by_op.items()
                         if not k.startswith("compact-"))
        snapshot = eng.metrics.snapshot()
        cache = eng.cache
        mt = stats["memtable"] or {}
        return {
            "sim_mops": len(served) / report.stream_overlap["makespan_s"]
            / 1e6,
            "device_bytes_per_key": eng.layout.device_bytes() / len(eng),
            "failed": failed,
            **_percentiles(np.asarray(lat)),
            "host.overlay.forwarded": sum(report.forwarded.values()),
            "serve.core.admitted": stats["admitted"],
            "serve.core.foreground_batches": foreground,
            "serve.core.queue_wait_p99_us": stats["queue_wait"].get("p99",
                                                                    0.0),
            "serve.core.shed": stats["sheds"],
            "serve.slo.retunes": stats["retunes"],
            "host.cache.hits": cache.stats.hits if cache else 0,
            "host.cache.misses": cache.stats.misses if cache else 0,
            "host.cache.evictions": cache.stats.evictions if cache else 0,
            "host.memtable.dispatched_rows": mt.get("dispatched_rows", 0),
            "host.memtable.absorbed_writes": mt.get("absorbed_writes", 0),
            "host.memtable.compactions": mt.get("compactions", 0),
            "host.memtable.max_debt": mt.get("max_debt_seen", 0),
            **_engine_counts(snapshot),
            **_flush_counts(snapshot),
        }

    def engines(self, st) -> list:
        return [st["eng"]]

    def poisson(self, n: int) -> list:
        gaps = self.rng.exponential(1e6 / self.size["qps"], size=n)
        return np.cumsum(gaps).tolist()

    def bursty(self, n: int, burst: int) -> list:
        """Back-to-back bursts of ``burst`` ops; the gap before each
        burst carries the whole burst's share of the mean rate."""
        gaps = np.zeros(n)
        mean_gap = 1e6 / self.size["qps"]
        for start in range(0, n, burst):
            width = min(burst, n - start)
            gaps[start] = self.rng.exponential(mean_gap * width)
        return np.cumsum(gaps).tolist()


class ServeReadZipf(_Serving):
    """Read-only Zipf(1.2) lookups at a Poisson rate, hot-key cache
    smaller than the key set, SLO controller on."""

    name = "serve_read_zipf"
    required_targets = ENGINE_TARGETS + SERVE_TARGETS + (
        "HotKeyCache.get", "HotKeyCache.put", "HotKeyCache.record_dedup_hits",
        "SloController.maybe_retune",
    )

    def generate(self) -> None:
        s = self.size
        self.make_pairs(random_keys(s["keys"], 12, seed=self.rng))
        n = s["warm_ops"] + s["ops"]
        # hot ranks land on random keys, not on the smallest sorted ones
        perm = self.rng.permutation(len(self.keys))
        idx = perm[zipf_indices(len(self.keys), n, a=1.2, seed=self.rng)]
        self.kinds = ["lookup"] * n
        self.payloads = [self.keys[i] for i in idx]
        self.expected = [(i, self.values[k]) for i, k in enumerate(idx)]
        self.arrivals = self.poisson(n)
        self.final_items = self.pairs
        self.ops = s["ops"]
        self.total_ops = n

    def setup(self):
        clock = VirtualClock()
        eng = CuartEngine(batch_size=self.size["batch"],
                          cache_size=self.size["cache"])
        eng.populate(self.pairs)
        eng.map_to_device()
        core = ServerCore(
            eng, clock=clock, max_batch=1024, deadline_us=200.0,
            slo_p99_us=self.size["slo_us"], retune_interval=1024,
        )
        return {"eng": eng, "core": core, "clock": clock}


class ServeWriteZipf(_Serving):
    """Bursty writes absorbed by the memtable: ~85% Zipf updates, ~5%
    uniform deletes of distinct keys, 10% uniform lookups, 32-byte
    BTC-like keys."""

    name = "serve_write_zipf"
    required_targets = ENGINE_TARGETS + WRITE_TARGETS + SERVE_TARGETS + (
        "WriteOverlay.forget", "Memtable.absorb_update",
        "Memtable.absorb_delete", "Memtable.compact",
    )

    def generate(self) -> None:
        s = self.size
        self.make_pairs(btc_like_keys(s["keys"], seed=self.rng))
        keys, n_keys = self.keys, len(self.keys)
        n = s["warm_ops"] + s["ops"]
        perm = self.rng.permutation(n_keys)
        hot = perm[zipf_indices(n_keys, n, a=1.2, seed=self.rng)]
        cold = self.rng.integers(0, n_keys, size=n)
        doomed = iter(self.rng.permutation(n_keys).tolist())
        draw = self.rng.random(n)
        model = dict(self.pairs)
        self.kinds, self.payloads, self.expected = [], [], []
        for i in range(n):
            p = draw[i]
            if p < 0.85:
                key = keys[hot[i]]
                kind, payload = "update", (key, n_keys + i)
                if key in model:
                    model[key] = n_keys + i
            elif p < 0.90:
                key = keys[next(doomed)]
                kind, payload = "delete", key
                model.pop(key, None)
            else:
                key = keys[cold[i]]
                kind, payload = "lookup", key
                self.expected.append((i, model.get(key)))
            self.kinds.append(kind)
            self.payloads.append(payload)
        self.arrivals = self.bursty(n, 64)
        self.final_items = sorted(model.items())
        self.ops = s["ops"]
        self.total_ops = n

    def setup(self):
        clock = VirtualClock()
        eng = CuartEngine(batch_size=self.size["batch"])
        eng.populate(self.pairs)
        eng.map_to_device()
        core = ServerCore(eng, clock=clock, max_batch=1024, deadline_us=200.0,
                          memtable=MemtableConfig())
        return {"eng": eng, "core": core, "clock": clock}


WORKLOADS = {w.name: w for w in (LookupUniform, OltpSharded, ServeReadZipf,
                                 ServeWriteZipf)}

#: benchmark sizes, and a shrunken copy of each for the self-tests.
SIZES = {
    "lookup_uniform": {
        "full": {"keys": 262_144, "batch": 8192, "warm_batches": 4,
                 "batches": 128},
        "tiny": {"keys": 4096, "batch": 256, "warm_batches": 2,
                 "batches": 16},
    },
    "oltp_sharded": {
        "full": {"keys": 262_144, "batch": 8192, "request": 8192,
                 "warm_requests": 1, "requests": 16},
        "tiny": {"keys": 4096, "batch": 256, "request": 512,
                 "warm_requests": 1, "requests": 8},
    },
    "serve_read_zipf": {
        "full": {"keys": 65_536, "batch": 8192, "cache": 4096,
                 "qps": 200_000, "slo_us": 1000.0, "warm_ops": 8192,
                 "ops": 32_768},
        "tiny": {"keys": 4096, "batch": 8192, "cache": 256,
                 "qps": 200_000, "slo_us": 1000.0, "warm_ops": 512,
                 "ops": 4096},
    },
    "serve_write_zipf": {
        "full": {"keys": 65_536, "batch": 8192, "qps": 200_000,
                 "warm_ops": 8192, "ops": 65_536},
        "tiny": {"keys": 4096, "batch": 8192, "qps": 200_000,
                 "warm_ops": 512, "ops": 4096},
    },
}


def gpusim_windows(tracer) -> dict:
    """Critical-path stage totals of every drained stream window the
    traced round captured.  Windows drained under one top-level call ran
    on concurrent devices (one per shard); successive calls add."""
    groups: dict = {}
    for req, _, stats in tracer.captured["CuartEngine.drain"]:
        groups.setdefault(req, []).append(stats)
    out = {"h2d": 0.0, "kernel": 0.0, "d2h": 0.0, "makespan": 0.0,
           "serial": 0.0, "device_span": 0.0, "window_span": 0.0,
           "kernel_busy": 0.0, "shard_mean": 0.0}
    for windows in groups.values():
        kernel_busy = sum(ev.kernel_s for w in windows for ev in w.events)
        shard_spans = [w.makespan_s for w in windows]
        out["window_span"] += sum(shard_spans)
        merged = windows[0]
        for w in windows[1:]:
            merged.merge_parallel(w)
        cp = attribute_stats(merged)
        for stage in ("h2d", "kernel", "d2h"):
            out[stage] += cp.stage_s.get(stage, 0.0)
        out["makespan"] += merged.makespan_s
        out["serial"] += merged.serial_s
        out["device_span"] += merged.makespan_s * len(windows)
        out["kernel_busy"] += kernel_busy
        out["shard_mean"] += sum(shard_spans) / len(shard_spans)
    return out
