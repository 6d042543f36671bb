"""Serving-path performance smoke harness: both clocks, one JSON file.

Runs the real Python/NumPy host pipeline end to end at a fixed seed and
scale — populate + map ("build the servable index"), uniform and
Zipf-skewed lookup serving, batched updates, the high-conflict update
scenario, a mixed OLTP stream, key-space-sharded serving, the SLO-driven
serving ramp and the bursty write storm — and writes one JSON file per
run (see EXPERIMENTS.md for the schema).  Host wall-clock numbers
(``wall_s``, ``keys_per_sec``) sit beside the simulated-device and
virtual-clock numbers, which a fixed seed reproduces exactly.

The harness asserts correctness only (lookups match a dict oracle,
results match across device counts, both conflict-table layouts pick
the same winners, the memtable and synchronous passes leave the same
content, the online and offline doors agree over shards, the critical
path reconciles with the makespan on one device, over 4 shards and on
the online door).  Its perf
bounds and exact numbers are checked by ``scripts/validate_bench.py``.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --scale 512 \
        --out /tmp/bench.json
    python scripts/validate_bench.py /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

# loadgen.py lives next to this file, so the plain import works when run
# as `python benchmarks/perf_smoke.py`
from loadgen import arrival_gaps_us, run_ramp
from repro.cuart.update import UpdateEngine
from repro.gpusim.faults import FaultConfig
from repro.host.engine import CuartEngine
from repro.host.memtable import MemtableConfig
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.resilience import ResiliencePolicy
from repro.host.sharding import (
    ShardedEngine,
    ShardedMixedExecutor,
    ShardingConfig,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    attribute_stats,
    write_chrome_trace,
)
from repro.serve.core import ServerCore, VirtualClock
from repro.util.keys import keys_to_matrix
from repro.workloads.distributions import uniform_indices, zipf_indices
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import random_keys

PAPER_KEYS = 16 * 1024 * 1024  # the paper's headline tree size
KEY_LEN = 12
SEED = 7
BATCH_SIZE = 8192
ZIPF_A = 1.2
CACHE_SIZE = 65536

# high-conflict write scenario (figure 15's collision regime): one large
# Zipf+uniform batch drawn from a small hot pool against a conflict table
# it nearly fills, so linear probe chains collapse while the bucketed
# layout stays short — measured in BENCH, not just unit tests
HC_SLOTS = 4096
HC_POOL = 4030
HC_BATCH = 24576

# key-space-sharded serving scenario: simulated-device scaling measured
# as ops / merged-parallel StreamScheduler makespan.  The streams are
# sized so every shard still runs several batches at 8 devices — thin
# per-shard sub-batches would hide the scaling behind fixed PCIe
# latency and launch overhead.
SH_DEVICES = (1, 2, 4, 8)
SH_BATCH = 4096
SH_MIXED_OPS = 65536
SH_UPDATE_OPS = 131072
SH_REBALANCE_OPS = 32768


def _op(wall_s: float, n: int) -> dict:
    return {
        "wall_s": round(wall_s, 6),
        "keys_per_sec": round(n / wall_s, 1) if wall_s > 0 else None,
        "batch_size": BATCH_SIZE,
        "n": n,
    }


def run(scale: int, label: str, trace_path: str | None = None,
        fault_rate: float = 0.0, fault_seed: int = 1234,
        flight: bool = False, flight_dump: str | None = None) -> dict:
    n = max(PAPER_KEYS // scale, 1024)
    keys = random_keys(n, KEY_LEN, seed=SEED)
    items = [(k, i) for i, k in enumerate(keys)]
    oracle = dict(items)
    ops: dict = {}

    # one shared registry correlates engine, cache, coalescer and write
    # kernels; the tracer records spans only when a trace was requested
    registry = MetricsRegistry()
    tracer = Tracer() if trace_path else None
    # per-op flight recorder: opt-in — the default path must stay on the
    # allocation-free NULL_FLIGHT_RECORDER fast path
    flight_rec = (FlightRecorder(capacity=8192, dump_path=flight_dump)
                  if flight else None)
    obs_kwargs: dict = {"metrics": registry, "tracer": tracer,
                        "flight_recorder": flight_rec}
    # fault-injection soak mode: inject transient device faults at the
    # given rate and serve through the resilience layer; the oracle
    # asserts below still hold — faults must never corrupt results
    if fault_rate > 0.0:
        obs_kwargs["faults"] = FaultConfig.uniform(fault_rate, seed=fault_seed)
        obs_kwargs["resilience"] = ResiliencePolicy()

    # -- populate + map: build the servable index -----------------------
    eng = CuartEngine(batch_size=BATCH_SIZE, **obs_kwargs)
    t0 = time.perf_counter()
    eng.populate(items)
    t1 = time.perf_counter()
    eng.map_to_device()
    t2 = time.perf_counter()
    ops["populate"] = _op(t2 - t0, n)
    ops["populate"]["sub"] = {
        "populate_s": round(t1 - t0, 6),
        "map_to_device_s": round(t2 - t1, 6),
    }

    # -- uniform lookups (every query pays the full kernel path) --------
    uni = [keys[i] for i in uniform_indices(n, n, seed=9)]
    t0 = time.perf_counter()
    got = eng.lookup(uni)
    ops["lookup_uniform"] = _op(time.perf_counter() - t0, len(uni))
    sample = np.random.default_rng(5).integers(0, len(uni), size=512)
    for i in sample:
        assert got[int(i)] == oracle[uni[int(i)]], "lookup diverged from oracle"

    # -- Zipf serving phase (hot keys through the hot-key cache) --------
    zpf = [keys[i] for i in zipf_indices(n, 4 * n, a=ZIPF_A, seed=11)]
    serving = CuartEngine(batch_size=BATCH_SIZE, cache_size=CACHE_SIZE,
                          **obs_kwargs)
    serving.tree = eng.tree  # share the built index: no second populate
    serving.layout = eng.layout
    t0 = time.perf_counter()
    got = serving.lookup(zpf)
    ops["lookup_zipf"] = _op(time.perf_counter() - t0, len(zpf))
    for i in sample:
        assert got[int(i)] == oracle[zpf[int(i)]], "zipf lookup diverged"
    cache = serving.cache
    ops["lookup_zipf"]["cache"] = {
        "capacity": cache.capacity,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "hit_rate": round(cache.stats.hit_rate, 4),
    }
    # a 4n-query zipf(1.2) stream over n keys must report a substantial
    # hot-key hit rate (stream repeats collapsed by dedup count as hits)
    assert cache.stats.hit_rate > 0, "zipf stream recorded no cache hits"

    # -- batched updates -------------------------------------------------
    upd_keys = [keys[i] for i in zipf_indices(n, n // 4, a=ZIPF_A, seed=13)]
    upd = [(k, 1_000_000 + j) for j, k in enumerate(upd_keys)]
    t0 = time.perf_counter()
    found = eng.update(upd)
    ops["update"] = _op(time.perf_counter() - t0, len(upd))
    assert all(found), "updates must hit resident keys"

    # -- high-conflict writes: the figure-15 collision regime -----------
    # (before the mixed stream: its deletes would evict pool keys)
    ops["update_high_conflict"] = _high_conflict_scenario(eng, keys)

    # -- mixed OLTP stream (lookup/update/delete interleaved); capped —
    # with the op-class coalescer the interleaving no longer fragments
    # into tiny per-run batches, and 16Ki ops measure the dispatch path
    mix = QueryMix(lookups=0.70, updates=0.25, deletes=0.05)
    stream = mixed_queries(keys, min(n // 4, 16384), mix, seed=17)
    mx = MixedWorkloadExecutor(eng)
    t0 = time.perf_counter()
    _, report = mx.run(stream)
    ops["mixed"] = _op(time.perf_counter() - t0, report.operations)
    ops["mixed"]["batches"] = report.batches
    ops["mixed"]["batches_by_op"] = dict(report.batches_by_op)
    pcts = report.latency_percentiles_by_op
    ops["mixed"]["latency_percentiles_by_op"] = {
        op: {k: round(v, 3) for k, v in summary.items()}
        for op, summary in sorted(pcts.items())
    }
    ops["mixed"]["flush_reasons"] = dict(report.flush_reasons)
    ops["mixed"]["forwarded"] = dict(report.forwarded)
    ops["mixed"]["stream_overlap"] = dict(report.stream_overlap)
    ops["mixed"]["critical_path"] = _reconciled_critical_path(
        mx.last_overlap_stats, "mixed").as_dict()
    if flight_rec is not None:
        ops["mixed"]["flight"] = flight_rec.summary()
    # write tail latency vs lookup tail latency (host wall per row): a
    # write does a lookup plus value / clear / unlink stores, so it
    # should stay within a small factor of a lookup at the tail
    ratio = pcts["write"]["p95"] / max(pcts["lookup"]["p95"], 1e-9)
    ops["mixed"]["write_p95_over_lookup_p95"] = round(ratio, 2)
    ops["mixed"]["ops_by_status"] = dict(report.ops_by_status)
    assert report.ops_by_status.get("FAILED", 0) == 0, \
        "mixed stream reported FAILED ops"

    # -- key-space-sharded serving: write scaling + rebalance -----------
    ops["mixed_sharded"] = _sharded_scenario(items, keys, tracer=tracer)

    # -- SLO-driven async serving: open-loop QPS ramp -------------------
    ops["serving"] = _serving_scenario()

    # -- log-structured write absorption: bursty write storm ------------
    ops["write_burst"] = _write_burst_scenario()

    fault_injection = None
    if fault_rate > 0.0:
        fault_injection = {
            "rate": fault_rate,
            "seed": fault_seed,
            "injected": eng._injector.snapshot(),
            "simulated_backoff_s": round(
                eng._dispatcher.simulated_backoff_s, 6),
        }

    # publish the host-tree shape gauges, then export the registry
    # snapshot (counters, gauges, histogram summaries) into the JSON
    eng.publish_tree_stats()
    result_metrics = registry.snapshot()

    if tracer is not None:
        write_chrome_trace(tracer, trace_path)
    if flight_rec is not None and flight_dump:
        # end-of-run black box: always leave an artifact even when no
        # fault-burst / p99 trigger fired during the run
        flight_rec.dump("end-of-run", {"label": label, "scale": scale})

    headline_s = ops["populate"]["wall_s"] + ops["lookup_zipf"]["wall_s"]
    return {
        "meta": {
            "label": label,
            "scale_denominator": scale,
            "n_keys": n,
            "key_len": KEY_LEN,
            "batch_size": BATCH_SIZE,
            "seed": SEED,
            "zipf_a": ZIPF_A,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ops": ops,
        "headline": {
            "populate_plus_lookup_wall_s": round(headline_s, 6),
        },
        **({"fault_injection": fault_injection}
           if fault_injection is not None else {}),
        "metrics": result_metrics,
    }


def _high_conflict_scenario(eng: CuartEngine, keys: list) -> dict:
    """Zipf-drawn update keys at ~0.97 conflict-table load factor.

    One oversized batch is drawn from a small hot pool (one third
    Zipf(1.2), two thirds uniform coverage) and resolved against a
    4096-slot conflict table by *both* layouts — the paper's linear
    probing and the bucketed warp-cooperative table — with a fresh
    metrics registry each, so BENCH records the per-variant dedup-table
    transaction counters side by side.  The op's wall time / rate is the
    bucketed (default) run; the ``hashtable`` section carries the
    transaction-drop ratio that ``validate_bench`` bounds.
    """
    pool = keys[:HC_POOL]
    rng = np.random.default_rng(19)
    nz = HC_BATCH // 3
    zidx = np.asarray(zipf_indices(HC_POOL, nz, a=ZIPF_A, seed=19))
    uidx = np.asarray(uniform_indices(HC_POOL, HC_BATCH - nz, seed=23))
    idx = rng.permutation(np.concatenate([zidx, uidx]))
    mat, lens = keys_to_matrix([pool[i] for i in idx])
    values = np.arange(2_000_000, 2_000_000 + HC_BATCH, dtype=np.uint64)

    stats: dict = {"hash_slots": HC_SLOTS, "batch": HC_BATCH}
    wall = None
    winners_by_variant = {}
    for variant in ("linear", "bucketed"):
        registry = MetricsRegistry()
        upd = UpdateEngine(
            eng.layout, root_table=eng.root_table, hash_slots=HC_SLOTS,
            hash_table=variant, metrics=registry,
        )
        t0 = time.perf_counter()
        res = upd.apply(mat, lens, values)
        dt = time.perf_counter() - t0
        assert res.found.all(), "high-conflict updates must hit resident keys"
        winners_by_variant[variant] = res.winners
        stats[variant] = {
            "transactions": registry.value(
                "hashtable_transactions_total", variant=variant),
            "probe_groups": registry.value(
                "hashtable_probe_groups_total", variant=variant),
            "probe_steps": registry.value(
                "hashtable_probe_steps_total", variant=variant),
            "atomics": registry.value(
                "hashtable_atomics_total", variant=variant),
            "max_probe": res.max_probe,
            "load_factor": round(res.load_factor, 4),
            "wall_s": round(dt, 6),
        }
        if variant == "bucketed":
            wall = dt
    assert np.array_equal(
        winners_by_variant["linear"], winners_by_variant["bucketed"]
    ), "conflict-table variants disagreed on winners"
    stats["tx_ratio"] = round(
        stats["linear"]["transactions"] / stats["bucketed"]["transactions"], 2
    )
    rec = _op(wall, HC_BATCH)
    rec["hashtable"] = stats
    return rec


def _reconciled_critical_path(stats, what: str):
    """Critical-path attribution of ``stats``: per stream window, which
    stage bound the makespan.  The walk's stage intervals partition
    each window's makespan exactly (shard-skew excluded), so
    reconciliation is a hard gate."""
    cp = attribute_stats(stats)
    span = stats.makespan_s
    drift = abs(cp.total_stage_s - span) / max(span, 1e-12)
    assert drift < 0.01, (
        f"{what}: critical-path stage totals ({cp.total_stage_s:.6f}s) "
        f"do not reconcile with the stream makespan ({span:.6f}s): "
        f"{drift:.2%} drift"
    )
    return cp


def _assert_doors_agree(items: list, stream: list, results: list,
                        offline) -> None:
    """The online door over 4 hash shards — ``ServerCore`` on a
    ``VirtualClock``, with a queue bound that sheds nothing — gives the
    offline door's ``results`` and simulated makespan: both drive one
    pipeline lane per shard (``offline`` is that door's overlap stats).
    Its critical path reconciles, and with the clock held at 0 its
    device timelines end at that makespan."""
    eng = ShardedEngine(
        sharding=ShardingConfig(n_shards=4, mode="hash"),
        batch_size=SH_BATCH,
    )
    eng.populate(items)
    eng.map_to_device()
    core = ServerCore(eng, max_batch=SH_BATCH, queue_depth=len(stream),
                      clock=VirtualClock())
    online, _ = core.run(stream)
    assert online == results, "sharded online door diverged from offline"
    assert core.overlap.makespan_s == offline.makespan_s, (
        "sharded online door's makespan differs from the offline door's"
    )
    _reconciled_critical_path(core.overlap, "sharded online door")
    span_us = offline.makespan_s * 1e6
    assert abs(core.device_free_us - span_us) <= 1e-9 * span_us, (
        f"sharded online door's devices end at {core.device_free_us}us, "
        f"the offline makespan is {span_us}us"
    )


def _sharded_scenario(items: list, keys: list, tracer=None) -> dict:
    """Key-space-sharded serving: writes scale with simulated devices.

    Runs the same mixed OLTP stream and a uniform-drawn update burst
    through :class:`ShardedEngine` at 1/2/4/8 simulated devices and
    reports simulated throughput (ops / merged-parallel makespan of the
    per-shard StreamSchedulers — Python wall-clock cannot show device
    scaling).  The per-op results must be identical at every device
    count (in-harness lockstep: ``n_shards=1`` *is* the single-engine
    semantics, covered byte-for-byte in the pytest suite), and at 4
    devices the online door must match the offline one.

    A second, range-partitioned engine is then driven with Zipf-skewed
    updates — hot ranks concentrate on one shard — rebalanced online,
    and re-measured against the uniform-traffic throughput.
    """
    n = len(keys)
    mix = QueryMix(lookups=0.70, updates=0.25, deletes=0.05)
    stream = mixed_queries(keys, SH_MIXED_OPS, mix, seed=29)
    upd_idx = uniform_indices(n, SH_UPDATE_OPS, seed=31)

    t_start = time.perf_counter()
    devices: dict = {}
    baseline_results = None
    ops_executed = 0
    for nd in SH_DEVICES:
        # each engine keeps its own registry: shard-labeled families
        # would collide with the main harness engine's unlabeled ones
        eng = ShardedEngine(
            sharding=ShardingConfig(n_shards=nd, mode="hash"),
            batch_size=SH_BATCH, tracer=tracer,
        )
        eng.populate(items)
        eng.map_to_device()

        mx = ShardedMixedExecutor(eng)
        results, rep = mx.run(stream)
        if baseline_results is None:
            baseline_results = results
        else:
            assert results == baseline_results, (
                f"sharded mixed results diverged at {nd} devices"
            )
        if nd == 4:
            _reconciled_critical_path(mx.last_overlap_stats,
                                      "mixed_sharded at 4 devices")
            _assert_doors_agree(items, stream, results,
                                mx.last_overlap_stats)
        mixed_makespan = rep.stream_overlap["makespan_s"]

        lkp = [keys[i] for i in upd_idx]
        eng.submit("lookup", lkp)
        st_lkp = eng.drain()

        upd = [(keys[i], 9_000_000 + j) for j, i in enumerate(upd_idx)]
        eng.submit("update", upd)
        st = eng.drain()
        ops_executed += rep.operations + len(lkp) + len(upd)
        devices[str(nd)] = {
            "mixed_sim_mops": round(rep.operations / mixed_makespan / 1e6, 2),
            "mixed_makespan_s": round(mixed_makespan, 6),
            "lookup_sim_mops": round(len(lkp) / st_lkp.makespan_s / 1e6, 2),
            "lookup_makespan_s": round(st_lkp.makespan_s, 6),
            "update_sim_mops": round(len(upd) / st.makespan_s / 1e6, 2),
            "update_makespan_s": round(st.makespan_s, 6),
            "streams": st.streams,
            "imbalance": round(eng.imbalance(), 4),
        }
        if nd == 4:
            # shard-skew attribution at the headline device count: the
            # merged-parallel stats carry per-shard windows, so the
            # report splits makespan into stages + skew vs slowest shard
            devices[str(nd)]["update_critical_path"] = (
                attribute_stats(st).as_dict()
            )

    d1, d4, d8 = devices["1"], devices["4"], devices["8"]
    scaling = {
        "mixed_x4": round(d4["mixed_sim_mops"] / d1["mixed_sim_mops"], 2),
        "lookup_x4": round(d4["lookup_sim_mops"] / d1["lookup_sim_mops"], 2),
        "update_x4": round(d4["update_sim_mops"] / d1["update_sim_mops"], 2),
        "mixed_x8": round(d8["mixed_sim_mops"] / d1["mixed_sim_mops"], 2),
        "lookup_x8": round(d8["lookup_sim_mops"] / d1["lookup_sim_mops"], 2),
        "update_x8": round(d8["update_sim_mops"] / d1["update_sim_mops"], 2),
    }

    # -- Zipf skew + online rebalance (range partitioning) ---------------
    reb_engine = ShardedEngine(
        sharding=ShardingConfig(n_shards=4, mode="range", partition_bytes=2),
        batch_size=SH_BATCH, tracer=tracer,
    )
    reb_engine.populate(items)
    reb_engine.map_to_device()

    def _update_tput(idxs, base: int) -> float:
        upd = [(keys[i], base + j) for j, i in enumerate(idxs)]
        reb_engine.submit("update", upd)
        return len(upd) / reb_engine.drain().makespan_s / 1e6

    uni = uniform_indices(n, SH_REBALANCE_OPS, seed=37)
    zpf = zipf_indices(n, SH_REBALANCE_OPS, a=ZIPF_A, seed=37)
    t_uniform = _update_tput(uni, 10_000_000)
    reb_engine.router.reset_heat()
    t_skew_before = _update_tput(zpf, 11_000_000)
    summary = reb_engine.rebalance()
    t_skew_after = _update_tput(zpf, 12_000_000)
    ops_executed += SH_REBALANCE_OPS * 3
    recovery = t_skew_after / t_uniform

    wall = time.perf_counter() - t_start
    rec = _op(wall, ops_executed)
    rec["batch_size"] = SH_BATCH
    rec["devices"] = devices
    rec["scaling"] = scaling
    rec["lockstep"] = {"device_counts": list(SH_DEVICES), "ok": True}
    rec["rebalance"] = {
        "mode": "range",
        "n_shards": 4,
        "partition_bytes": 2,
        "zipf_a": ZIPF_A,
        "uniform_mops": round(t_uniform, 2),
        "skew_before_mops": round(t_skew_before, 2),
        "skew_after_mops": round(t_skew_after, 2),
        "recovery_vs_uniform": round(recovery, 4),
        "imbalance_before": round(summary["imbalance_before"], 4),
        "imbalance_after": round(summary["imbalance_after"], 4),
        "moved_partitions": summary["moved_partitions"],
        "moved_keys": summary["moved_keys"],
        "migrated_bytes": summary["migrated_bytes"],
        "sim_transfer_s": round(summary["sim_transfer_s"], 6),
    }
    return rec


SERVE_RAMP = (50_000, 100_000, 200_000, 400_000)
SERVE_OPS_PER_STEP = 2048
SERVE_SLO_US = 1000.0


def _serving_scenario() -> dict:
    """The SLO-driven serving front-end under an open-loop QPS ramp.

    Runs :func:`loadgen.run_ramp` in virtual time (the ramp's rates are
    simulated; only the numpy work costs wall clock), so the record's
    ``wall_s`` measures the server's host-side overhead while the
    latency/attainment numbers live on the deterministic virtual axis.
    """
    t0 = time.perf_counter()
    record = run_ramp(
        ramp=SERVE_RAMP, ops_per_step=SERVE_OPS_PER_STEP,
        slo_us=SERVE_SLO_US,
    )
    rec = _op(time.perf_counter() - t0, record["overall"]["offered"])
    rec["slo_us"] = SERVE_SLO_US
    rec["ramp_qps"] = list(SERVE_RAMP)
    rec["steps"] = record["steps"]
    rec["overall"] = record["overall"]
    rec["flight"] = record["flight"]
    return rec


# log-structured write absorption scenario: the *same* bursty 90%-write
# arrival schedule replayed twice through the serving front-end — once
# on the PR-9 synchronous write path, once with the host memtable
# absorbing writes — so the speedup numbers compare like with like.
# Keys are Zipf-drawn so the fold (LWW dedup before scatter) has teeth.
WB_KEYS = 16384
WB_OPS = 16384
WB_QPS = 400_000
WB_WRITE_FRAC = 0.9  # 0.8 update + 0.1 delete; 0.1 lookup
WB_SEGMENT_OPS = 512
WB_MAX_DEBT = 4


def _write_burst_pct(lat: list) -> dict:
    if not lat:
        return {"count": 0}
    arr = np.asarray(lat)
    return {
        "count": int(arr.size),
        "mean_us": round(float(arr.mean()), 3),
        "p50_us": round(float(np.percentile(arr, 50)), 3),
        "p99_us": round(float(np.percentile(arr, 99)), 3),
        "max_us": round(float(arr.max()), 3),
    }


def _write_burst_pass(keys, items, gaps, op_draw, key_idx, memtable_cfg):
    """Replay one arrival schedule through a fresh served engine.

    Open loop on a virtual clock, exactly like :mod:`loadgen`: deadlines
    due before each arrival fire first, then the clock advances to the
    arrival and the op is offered.  Returns the per-pass record plus the
    engine (for the cross-pass content oracle)."""
    clock = VirtualClock()
    eng = CuartEngine(batch_size=BATCH_SIZE)
    eng.populate(items)
    eng.map_to_device()
    kwargs = dict(
        max_batch=1024, deadline_us=200.0, queue_depth=WB_OPS, clock=clock,
    )
    if memtable_cfg is not None:
        kwargs["memtable"] = memtable_cfg
    core = ServerCore(eng, **kwargs)

    write_lat: list = []
    read_lat: list = []

    def on_done(op):
        if op.shed:
            return
        (read_lat if op.op == "lookup" else write_lat).append(op.latency_us)

    t0 = time.perf_counter()
    t_first = clock.now_us()
    for i in range(len(gaps)):
        t_arrival = clock.now_us() + gaps[i]
        while True:
            due = core.next_deadline_us()
            if due is None or due > t_arrival:
                break
            clock.advance(due - clock.now_us())
            core.poll()
        clock.advance(t_arrival - clock.now_us())
        key = keys[int(key_idx[i])]
        p = float(op_draw[i])
        if p < 0.8:
            core.offer("update", (key, i), on_done=on_done)
        elif p < WB_WRITE_FRAC:
            core.offer("delete", key, on_done=on_done)
        else:
            core.offer("lookup", key, on_done=on_done)
    core.flush()
    wall_s = time.perf_counter() - t0

    # sustained throughput over the virtual makespan: arrival span plus
    # whatever device work is still draining past the last arrival
    makespan_s = (max(clock.now_us(), core.device_free_us) - t_first) / 1e6
    n_writes = len(write_lat)
    rec = {
        "wall_s": round(wall_s, 6),
        "offered": len(gaps),
        "shed": core.sheds,
        "makespan_s": round(makespan_s, 6),
        "write_ops_per_sec": round(n_writes / makespan_s, 1)
        if makespan_s > 0 else None,
        "write_latency": _write_burst_pct(write_lat),
        "read_latency": _write_burst_pct(read_lat),
        "batches": core.report.batches,
    }
    if core.memtable is not None:
        m = core.memtable.stats()
        rec["absorbed_write_ratio"] = m["absorbed_write_ratio"]
        rec["compactions"] = m["compactions"]
        rec["dispatched_rows"] = m["dispatched_rows"]
        rec["folded_away"] = m["folded_away"]
        rec["max_debt_seen"] = m["max_debt_seen"]
    return rec, eng


def _write_burst_scenario() -> dict:
    """Bursty 90%-write storm: synchronous write path vs. memtable.

    Replays one schedule through both write paths and records the
    memtable pass's write-throughput and write-p99 speedups and its
    absorbed-write ratio.  Both passes must converge to the same
    content — absorption reorders acknowledgement, never effect.
    """
    rng = np.random.default_rng(SEED)
    keys = random_keys(WB_KEYS, KEY_LEN, seed=SEED)
    items = [(k, i) for i, k in enumerate(keys)]
    gaps = arrival_gaps_us("bursty", WB_QPS, WB_OPS, rng)
    op_draw = rng.random(WB_OPS)
    key_idx = np.asarray(
        zipf_indices(WB_KEYS, WB_OPS, a=ZIPF_A, seed=13)
    )

    sync_rec, sync_eng = _write_burst_pass(
        keys, items, gaps, op_draw, key_idx, None
    )
    mem_rec, mem_eng = _write_burst_pass(
        keys, items, gaps, op_draw, key_idx,
        MemtableConfig(segment_ops=WB_SEGMENT_OPS, max_debt=WB_MAX_DEBT),
    )

    # content oracle: identical schedule -> identical surviving values
    assert mem_eng.lookup(list(keys)) == sync_eng.lookup(list(keys)), \
        "write_burst: memtable pass diverged from synchronous pass"

    sync_p99 = sync_rec["write_latency"].get("p99_us") or 0.0
    mem_p99 = mem_rec["write_latency"].get("p99_us") or 0.0
    tput_x = (mem_rec["write_ops_per_sec"] / sync_rec["write_ops_per_sec"]
              if sync_rec["write_ops_per_sec"] else None)
    # absorbed acks complete in zero virtual time; floor the denominator
    # so the ratio stays finite
    p99_drop = sync_p99 / max(mem_p99, 0.01)

    rec = _op(sync_rec["wall_s"] + mem_rec["wall_s"], 2 * WB_OPS)
    rec["pattern"] = "bursty"
    rec["qps"] = WB_QPS
    rec["write_fraction"] = WB_WRITE_FRAC
    rec["zipf_a"] = ZIPF_A
    rec["sync"] = sync_rec
    rec["memtable"] = mem_rec
    rec["speedup"] = {
        "write_tput_x": round(tput_x, 2) if tput_x is not None else None,
        "write_p99_drop_x": round(p99_drop, 2),
    }
    return rec


def merge_min(runs: list[dict]) -> dict:
    """Fold repeated runs into one result by keeping, per op, the repeat
    with the smallest wall time.

    Each repeat rebuilds its engines from scratch, so the min is a clean
    noise filter: the machine can only make a run slower, never faster.
    The headline is recomputed from the chosen per-op records; metrics /
    fault-injection snapshots come from the first repeat.
    """
    best = runs[0]
    if len(runs) == 1:
        return best
    for other in runs[1:]:
        for op, rec in other["ops"].items():
            if rec["wall_s"] < best["ops"][op]["wall_s"]:
                best["ops"][op] = rec
    best["headline"]["populate_plus_lookup_wall_s"] = round(
        best["ops"]["populate"]["wall_s"]
        + best["ops"]["lookup_zipf"]["wall_s"], 6
    )
    best["meta"]["repeats"] = len(runs)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output JSON path")
    ap.add_argument("--scale", type=int, default=64,
                    help="scale denominator: n_keys = 16Mi / SCALE")
    ap.add_argument("--repeats", type=int, default=1,
                    help="run the whole suite N times and keep, per op, "
                         "the fastest repeat (min-of-N noise filter)")
    ap.add_argument("--label", default="local", help="free-form run label")
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="write a chrome://tracing JSON of the run")
    ap.add_argument("--fault-rate", type=float, default=0.0,
                    help="inject transient device faults at this per-event "
                         "probability and serve through the resilience "
                         "layer (0 = off)")
    ap.add_argument("--fault-seed", type=int, default=1234,
                    help="seed of the fault injector's random stream")
    ap.add_argument("--flight-recorder", action="store_true",
                    help="thread a per-op flight recorder through the "
                         "mixed stream and embed its summary plus the "
                         "critical-path attribution in the JSON")
    ap.add_argument("--flight-dump", default=None, metavar="PATH",
                    help="write the flight recorder's black-box dump "
                         "here (implies --flight-recorder)")
    args = ap.parse_args(argv)
    # the high-conflict scenario draws its hot pool from the tree's keys
    max_scale = PAPER_KEYS // HC_POOL
    if not 1 <= args.scale <= max_scale:
        ap.error(f"--scale must be in [1, {max_scale}], got {args.scale}")
    if args.repeats < 1:
        ap.error(f"--repeats must be >= 1, got {args.repeats}")
    if not 0.0 <= args.fault_rate <= 1.0:
        ap.error(f"--fault-rate must be in [0, 1], got {args.fault_rate}")
    if args.flight_dump:
        args.flight_recorder = True

    runs = [
        run(args.scale, args.label,
            trace_path=args.trace if i == 0 else None,
            fault_rate=args.fault_rate, fault_seed=args.fault_seed,
            flight=args.flight_recorder,
            flight_dump=args.flight_dump if i == 0 else None)
        for i in range(args.repeats)
    ]
    result = merge_min(runs)

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=False)
        fh.write("\n")

    print(f"wrote {args.out}")
    if args.trace:
        print(f"wrote {args.trace} (open in chrome://tracing or ui.perfetto.dev)")
    if args.flight_dump:
        print(f"wrote {args.flight_dump} (flight-recorder black box)")
    print(f"  mixed critical-path bottleneck: "
          f"{result['ops']['mixed']['critical_path']['bottleneck']}")
    for op, rec in result["ops"].items():
        rate = rec["keys_per_sec"]
        print(f"  {op:16s} {rec['wall_s']:8.3f}s  "
              f"{rate / 1e3 if rate else 0:10.1f} kops/s  (n={rec['n']})")
    fi = result.get("fault_injection")
    if fi:
        print(f"  fault injection: rate={fi['rate']} "
              f"injected={sum(fi['injected'].values())} "
              f"by_status={result['ops']['mixed']['ops_by_status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
