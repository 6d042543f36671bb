"""Integration tests: the instrumented pipeline feeds one registry and
one tracer, end to end."""

import numpy as np
import pytest

from repro.host.engine import CuartEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import GPU_TRACK, HOST_TRACK
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import random_keys


@pytest.fixture()
def built():
    reg = MetricsRegistry()
    tracer = Tracer()
    keys = random_keys(2048, 12, seed=3)
    eng = CuartEngine(batch_size=256, metrics=reg, tracer=tracer)
    eng.populate([(k, i) for i, k in enumerate(keys)])
    eng.map_to_device()
    return eng, reg, tracer, keys


def _mixed_run(eng, keys):
    mix = QueryMix(lookups=0.6, updates=0.3, deletes=0.1)
    stream = mixed_queries(keys, 1024, mix, seed=5)
    return MixedWorkloadExecutor(eng).run(stream)


def test_executor_shares_engine_registry_and_tracer(built):
    eng, reg, tracer, _ = built
    ex = MixedWorkloadExecutor(eng)
    assert ex.metrics is reg
    assert ex.tracer is tracer


def test_mixed_run_fills_registry(built):
    eng, reg, _, keys = built
    _, report = _mixed_run(eng, keys)
    # executor histograms carry percentiles for every op class that ran
    for op in report.wall_s:
        summary = reg.value("mixed_op_latency_us", op=op)
        assert summary["count"] > 0
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert op in report.latency_percentiles_by_op
    # key-level conflict tracking retired the batch-granularity
    # write-dependency reason; only genuine key conflicts (none here,
    # thanks to store-to-load forwarding) or scans/drain cut batches
    assert "write-dependency" not in report.flush_reasons
    assert "key-conflict" in report.flush_reasons
    assert report.flush_reasons["drain"] >= 1
    assert sum(report.flush_reasons.values()) == report.batches
    # engine counters saw every query the report did, minus the ones
    # the executor answered host-side via store-to-load forwarding and
    # the updates folded into a later same-key row of their batch
    fwd = report.forwarded
    assert report.folded > 0
    assert (reg.value("engine_queries_total", op="update")
            == report.updates - fwd.get("update", 0) - report.folded)
    assert (reg.value("engine_queries_total", op="delete")
            == report.deletes - fwd.get("delete", 0))
    # write kernels accounted their dedup outcomes: a folded batch hands
    # the kernel one row per key, so no thread loses; every queued
    # update's key is resident (updates on deleted keys are answered
    # host-side), so every folded update is a hit
    winners = reg.value("write_dedup_winners_total", op="update")
    losers = reg.value("write_dedup_losers_total", op="update")
    assert winners is not None and winners > 0
    assert losers == 0
    assert (winners + losers
            == report.updates - report.update_misses - report.folded)


def test_mixed_trace_has_nested_spans_with_sim_kernels(built):
    """The acceptance-criteria trace shape: host spans nest by time
    containment, and every simulated kernel span on the gpu-sim track
    falls inside some host span."""
    eng, _, tracer, keys = built
    _mixed_run(eng, keys)
    host = [e for e in tracer.events
            if e["ph"] == "X" and e["tid"] == HOST_TRACK]
    sims = [e for e in tracer.events
            if e["ph"] == "X" and e["tid"] == GPU_TRACK]
    assert sims, "no simulated kernel spans recorded"
    assert any(e["name"].startswith("sim:") for e in sims)

    def contains(outer, inner):
        return (outer["ts"] <= inner["ts"]
                and inner["ts"] + inner["dur"]
                <= outer["ts"] + outer["dur"])

    # every engine.<op> span nests inside a mixed.<op> span
    mixed_spans = [e for e in host if e["name"].startswith("mixed.")]
    engine_spans = [e for e in host if e["name"].startswith("engine.")
                    and e["name"] != "engine.populate"
                    and e["name"] != "engine.map_to_device"]
    assert mixed_spans and engine_spans
    for es in engine_spans:
        assert any(contains(ms, es) for ms in mixed_spans), (
            f"engine span {es['name']} not under any mixed span"
        )
    # every simulated kernel lands inside a host span (it is emitted at
    # dispatch time; its simulated duration may extend past wall-clock,
    # so containment is checked on the start timestamp)
    for s in sims:
        assert any(h["ts"] <= s["ts"] <= h["ts"] + h["dur"] for h in host)


def test_cache_stats_read_registry(built):
    """Satellite: engine cache accounting goes through the cache's own
    API — the stats view and the registry never disagree."""
    reg = MetricsRegistry()
    keys = random_keys(512, 12, seed=3)
    eng = CuartEngine(batch_size=128, cache_size=256, metrics=reg)
    eng.populate([(k, i) for i, k in enumerate(keys)])
    eng.map_to_device()
    eng.lookup(list(keys[:64]))   # misses populate the cache
    eng.lookup(list(keys[:64]))   # now hits
    eng.lookup([keys[0]] * 32)    # duplicate keys: dedup hits
    st = eng.cache.stats
    assert st.hits == reg.value("cache_hits_total")
    assert st.misses == reg.value("cache_misses_total")
    assert st.hits > 0 and st.misses > 0
    assert 0.0 < st.hit_rate < 1.0


def test_device_gauges_refresh_after_writes(built):
    eng, reg, _, keys = built
    base_n4 = reg.value("device_nodes_live", type="N4")
    assert base_n4 is not None and base_n4 > 0
    # leaves live per type must equal the key population
    leaves = sum(
        v for lv in ("leaf8", "leaf16", "leaf32", "dynleaf")
        for v in [reg.value("device_leaves_live", type=lv)] if v is not None
    )
    assert leaves == len(keys)
    # deletes push free-list depth up and live leaves down
    eng.delete(list(keys[:100]))
    free = sum(
        v for lv in ("leaf8", "leaf16", "leaf32")
        for v in [reg.value("device_free_list_depth", type=lv)]
        if v is not None
    )
    assert free > 0


def test_kernel_histogram_feeds_from_cost_model(built):
    eng, reg, _, keys = built
    eng.lookup(list(keys[:512]))
    s = reg.value("gpusim_kernel_us", op="lookup")
    assert s["count"] >= 1
    assert s["mean"] > 0
    assert np.isfinite(s["p99"])
