"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload lookup_uniform --seed 1 \\
        --seconds 10 --trace 0

The program under test is the ``repro`` package in ``src/`` beside this
directory; nothing is installed.  Inputs are generated from ``--seed``
before anything is timed.  The run then repeats rounds (fresh set-up,
untimed warm-up prefix, timed phase, oracle check) until ``--seconds``
have passed, and reports ``setup_s`` as the median set-up and
``host_kops`` from the fastest phase.  Simulated and virtual-clock
metrics must come out identical in every round, or the run fails.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one
traced round after the timed ones, prints the per-layer metrics and
writes its spans to ``.perfbench/``.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
wrong answer, a nondeterministic simulated number or a missing wrap
target exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, unit, clock) of every end-to-end metric, as BENCHMARK.json
#: lists them.
END_TO_END = (
    ("setup_s", "s", "wall"),
    ("host_kops", "kops/s", "wall"),
    ("sim_mops", "Mops/s", "simulated"),
    ("read_p50_us", "us", "simulated"),
    ("read_p99_us", "us", "simulated"),
    ("peak_rss_mb", "MB", "process"),
    ("device_bytes_per_key", "B/key", "simulated"),
)

#: the fewest rounds a run measures, however long they take.
MIN_ROUNDS = 3

#: set-ups timed per untraced round; the last one's system runs the round.
SETUPS_PER_ROUND = 2


def import_program():
    """Import ``repro`` from this checkout's ``src/`` only."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program at {src}/repro; run from a full "
                 "checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not {src}")


def run_round(w, *, tracer=None, setups: int = 1) -> dict:
    """One round; returns its wall times, state and exact numbers.  The
    system is set up ``setups`` times, each timed, and the last one runs
    the round.  A tracer covers set-up, warm-up and phase, not the oracle
    check."""
    setup_s = []
    for _ in range(setups - 1):
        gc.collect()
        t0 = time.perf_counter()
        w.setup()  # timed, then freed before the next set-up
        setup_s.append(time.perf_counter() - t0)
    gc.collect()
    if tracer is not None:
        tracer.__enter__()
    t0 = time.perf_counter()
    st = w.setup()
    setup_s.append(time.perf_counter() - t0)
    w.warmup(st)
    gc.collect()
    t2 = time.perf_counter()
    w.phase(st)
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.__exit__(None, None, None)
    w.check(st)
    return {"setup_s": setup_s, "phase_s": t3 - t2, "state": st,
            "exact": w.exact(st)}


class DeterminismError(RuntimeError):
    """A simulated number or count differs between rounds of one run."""


def check_same(name: str, first: dict, other: dict, what: str) -> None:
    for k, v in first.items():
        if other.get(k) != v:
            raise DeterminismError(
                f"{name}: {k} is {other.get(k)!r} in {what}, {v!r} in the "
                "first round")


def measure(name: str, seed: int, seconds: float, size: str = "full",
            trace: bool = False, spans_dir: str | None = None) -> dict:
    """Generate, run rounds for ``seconds``, and return the result
    record: end-to-end values, exact numbers and, when traced, the
    per-layer metrics."""
    from workloads import SIZES, WORKLOADS

    w = WORKLOADS[name](seed, SIZES[name][size])
    w.generate()
    # the inputs live for the whole run: keep them out of the collector's
    # scans so the program pays only for its own objects
    gc.collect()
    gc.freeze()
    try:
        return _rounds(w, seconds, trace, spans_dir)
    finally:
        gc.unfreeze()


def _rounds(w, seconds: float, trace: bool, spans_dir: str | None) -> dict:
    rounds = []
    t_start = time.perf_counter()
    last = 0.0
    # start a round only if it should end within the budget (the last
    # round's length predicts the next one's)
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - t_start + last <= seconds):
        t0 = time.perf_counter()
        r = run_round(w, setups=SETUPS_PER_ROUND)
        last = time.perf_counter() - t0
        if rounds:
            check_same(w.name, rounds[0]["exact"], r["exact"],
                       f"round {len(rounds)}")
        r.pop("state")
        rounds.append(r)
    exact = rounds[0]["exact"]
    setups = [t for r in rounds for t in r["setup_s"]]
    # interference on a shared host only ever slows a phase down, so the
    # fastest is the steadiest estimate of the program's own cost
    phase_s = min(r["phase_s"] for r in rounds)
    out = {
        "rounds": len(rounds),
        "setup_s": setups,
        "phase_s": [r["phase_s"] for r in rounds],
        "ops": w.ops,
        "exact": exact,
        "e2e": {
            "setup_s": statistics.median(setups),
            "host_kops": w.ops / phase_s / 1e3,
            "sim_mops": exact["sim_mops"],
            "read_p50_us": exact["read_p50_us"],
            "read_p99_us": exact["read_p99_us"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "device_bytes_per_key": exact["device_bytes_per_key"],
        },
    }
    if trace:
        out["layers"] = traced_round(
            w, exact, phase_s,
            statistics.median(r["phase_s"] for r in rounds), spans_dir)
    return out


def traced_round(w, exact: dict, fastest_phase_s: float,
                 median_phase_s: float, spans_dir: str | None) -> dict:
    from layers import LayerTracer
    from workloads import gpusim_windows

    tracer = LayerTracer()
    try:
        r = run_round(w, tracer=tracer)
    finally:
        tracer.__exit__(None, None, None)
    check_same(w.name, exact, r["exact"], "the traced round")
    tracer.require(w.required_targets, w.name)
    if spans_dir is not None:
        tracer.write(
            os.path.join(spans_dir, f"spans-{w.name}-seed{w.seed}.json"),
            {"workload": w.name, "seed": w.seed},
        )
    m = layer_metrics(w, tracer, r, gpusim_windows(tracer))
    m["bench.host_kops"] = w.ops / fastest_phase_s / 1e3
    # one traced round against the typical untraced one
    m["bench.trace_overhead_frac"] = r["phase_s"] / median_phase_s - 1.0
    return m


def layer_metrics(w, tracer, r: dict, cp: dict) -> dict:
    """Every per-layer metric of one traced round (0 where the workload
    bypasses the layer)."""
    from workloads import FLUSH_REASONS

    ex = r["exact"]
    st = r["state"]
    L = tracer.layer
    engines = w.engines(st)
    lookup = L("cuart.lookup")
    batching = L("host.batching")
    coalescer_batches = batching["extra"]
    mt_writes = ex.get("host.memtable.absorbed_writes", 0)
    hits, misses = ex.get("host.cache.hits", 0), ex.get("host.cache.misses", 0)
    fg = ex.get("serve.core.foreground_batches", 0)
    return {
        "util.keys.self_s": L("util.keys")["self_s"],
        "util.keys.rows": L("util.keys")["rows"],
        "art.bulk_load.self_s": L("art.bulk_load")["self_s"],
        "art.search.calls": L("art.search")["calls"],
        "art.search.self_s": L("art.search")["self_s"],
        "cuart.layout.map.self_s": L("cuart.layout.map")["self_s"],
        "cuart.layout.maps": L("cuart.layout.map")["calls"],
        "cuart.layout.device_bytes": sum(
            e.layout.device_bytes() for e in engines),
        "cuart.lookup.self_s": lookup["self_s"],
        "cuart.lookup.batches": lookup["calls"],
        "cuart.lookup.rows": lookup["rows"],
        "cuart.lookup.tx_per_row": (
            lookup["extra"] / lookup["rows"] if lookup["rows"] else 0.0),
        "cuart.update.self_s": L("cuart.update")["self_s"],
        "cuart.update.rows": L("cuart.update")["rows"],
        "cuart.delete.self_s": L("cuart.delete")["self_s"],
        "cuart.delete.rows": L("cuart.delete")["rows"],
        "cuart.hashtable.transactions": ex["cuart.hashtable.transactions"],
        "cuart.hashtable.winner_ratio": ex["cuart.hashtable.winner_ratio"],
        "gpusim.cost.self_s": L("gpusim.cost")["self_s"],
        "gpusim.streams.self_s": L("gpusim.streams")["self_s"],
        "gpusim.batches": ex["gpusim.batches"],
        "gpusim.makespan_s": cp["makespan"],
        "gpusim.overlap_ratio": (
            1.0 - cp["window_span"] / cp["serial"] if cp["serial"] else 0.0),
        "gpusim.h2d_s": cp["h2d"],
        "gpusim.kernel_s": cp["kernel"],
        "gpusim.d2h_s": cp["d2h"],
        "gpusim.busy_frac": (
            cp["kernel_busy"] / cp["device_span"] if cp["device_span"]
            else 0.0),
        "host.engine.self_s": L("host.engine")["self_s"],
        "host.engine.submits": tracer.fired[
            "repro.host.engine:CuartEngine.submit"],
        "host.cache.hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "host.cache.evictions": ex.get("host.cache.evictions", 0),
        "host.cache.self_s": L("host.cache")["self_s"],
        "host.batching.self_s": batching["self_s"],
        "host.batching.adds": tracer.fired[
            "repro.host.batching:OpClassCoalescer.add"],
        "host.batching.rows_per_batch": (
            batching["rows"] / coalescer_batches if coalescer_batches
            else 0.0),
        **{f"host.batching.flush.{r}": ex.get(f"host.batching.flush.{r}", 0)
           for r in FLUSH_REASONS},
        "host.overlay.forward_ratio": (
            ex.get("host.overlay.forwarded", 0) / w.total_ops),
        "host.overlay.entries": sum(
            len(o) for o in tracer.captured["WriteOverlay.__init__"]),
        "host.overlay.self_s": L("host.overlay")["self_s"],
        "host.memtable.absorb.self_s": L("host.memtable.absorb")["self_s"],
        "host.memtable.compact.self_s": L("host.memtable.compact")["self_s"],
        "host.memtable.rows_per_write": (
            ex["host.memtable.dispatched_rows"] / mt_writes if mt_writes
            else 0.0),
        "host.memtable.compactions": ex.get("host.memtable.compactions", 0),
        "host.memtable.max_debt": ex.get("host.memtable.max_debt", 0),
        "host.sharding.route.self_s": L("host.sharding.route")["self_s"],
        "host.sharding.self_s": L("host.sharding")["self_s"],
        "host.sharding.imbalance": ex.get("host.sharding.imbalance", 1.0),
        "host.sharding.makespan_skew": (
            cp["makespan"] / cp["shard_mean"] if cp["shard_mean"] else 1.0),
        "serve.dispatch.run.self_s": L("serve.dispatch.run")["self_s"],
        "serve.core.self_s": L("serve.core")["self_s"],
        "serve.core.offer.self_s": L("serve.core.offer")["self_s"],
        "serve.core.poll.self_s": L("serve.core.poll")["self_s"],
        "serve.core.flush.self_s": L("serve.core.flush")["self_s"],
        "serve.core.rows_per_batch": (
            ex["serve.core.admitted"] / fg if fg else 0.0),
        "serve.core.queue_wait_p99_us": ex.get(
            "serve.core.queue_wait_p99_us", 0.0),
        "serve.core.shed": ex.get("serve.core.shed", 0),
        "serve.slo.self_s": L("serve.slo")["self_s"],
        "serve.slo.retunes": ex.get("serve.slo.retunes", 0),
        "bench.unattributed_s": tracer.unattributed_ns / 1e9,
        "bench.traced_wall_s": tracer.wall_ns / 1e9,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    from workloads import WORKLOADS, OracleError
    from layers import TraceError

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    spec = load_spec()
    try:
        res = measure(args.workload, args.seed, args.seconds,
                      trace=bool(args.trace),
                      spans_dir=os.path.join(ROOT, ".perfbench"))
    except (OracleError, TraceError, DeterminismError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ex = res["exact"]
    print(f"# {args.workload} seed={args.seed}: {res['rounds']} rounds of "
          f"{res['ops']} timed ops; read latency from {ex['read_samples']} "
          f"{WORKLOADS[args.workload].latency_samples}, "
          f"{ex['read_beyond_p99']} beyond p99")
    print("# setup_s: " + " ".join(f"{v:.4f}" for v in res["setup_s"]))
    print("# round phase_s: " + " ".join(f"{v:.4f}" for v in res["phase_s"]))
    for name, unit, clock in END_TO_END:
        print(f"#   {name:<22} {res['e2e'][name]:>16.6f} {unit:<7} {clock}")
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = res["layers"]
        for name, unit in wanted:
            if name in values:
                print(f"#   {name:<38} {values[name]:>16.9g} {unit}")
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = res["e2e"]
    missing = [name for name, _ in wanted if name not in values]
    if missing:
        print(f"perfbench: BENCHMARK.json lists metrics this benchmark "
              f"does not measure: {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted = res["ops"] * res["rounds"]
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": ex["failed"] * res["rounds"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
