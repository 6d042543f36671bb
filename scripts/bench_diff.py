#!/usr/bin/env python
"""Diff two BENCH JSON documents and attribute the delta to pipeline
stages, op classes and shards.

``validate_bench.py --baseline`` tells you *that* a number moved;
this tool reads the stage-level evidence both documents already carry
— ``stream_overlap`` (and, from PR 8 on, the embedded
``critical_path`` attribution), the high-conflict ``hashtable``
section, the metrics counter snapshot, per-op latency percentiles, the
``mixed_sharded`` device table, and optional flight-recorder dumps —
and prints *which stage* ate the time.

Stage taxonomy (see docs/observability.md):

    queue-wait      coalescer residence (host)
    host-dispatch   measured wall clock per op class
    pcie-h2d        simulated host->device copy
    pcie-d2h        simulated device->host copy
    kernel          simulated device kernel
    kernel/hash-table   the write kernels' dedup/conflict table
    device-pipeline stream-overlap efficiency (makespan vs serial)
    shard-skew      multi-device imbalance (slowest-shard wait)
    resilience      retries / degraded batches / backoff

Usage::

    python scripts/bench_diff.py BENCH_pr7.json BENCH_pr8.json
    python scripts/bench_diff.py A.json B.json --flight a_flight.json \
        b_flight.json --threshold 0.05 --fail-on-regression

Exit status is 0 unless ``--fail-on-regression`` is given and at least
one op regressed beyond the threshold (it is a triage tool, not a
gate — the gate is validate_bench).
"""

from __future__ import annotations

import argparse
import json
import sys

#: ops whose wall clock is compared head-to-head.
DEFAULT_THRESHOLD = 0.05


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pct(base: float, cand: float) -> float:
    if not base:
        return 0.0
    return (cand - base) / base * 100.0


def _counter(snapshot: dict, name: str):
    """A counter family from a BENCH metrics snapshot: scalar for
    unlabelled counters, ``{"label=value": n}`` dict for labelled."""
    return (snapshot or {}).get("counters", {}).get(name)


def diff_op_table(base_ops: dict, cand_ops: dict,
                  threshold: float) -> list[dict]:
    rows = []
    for op in sorted(set(base_ops) | set(cand_ops)):
        b, c = base_ops.get(op), cand_ops.get(op)
        if b is None or c is None:
            rows.append({
                "op": op, "verdict": "new" if b is None else "removed",
                "base_wall_s": b and b.get("wall_s"),
                "cand_wall_s": c and c.get("wall_s"),
                "delta_pct": None,
            })
            continue
        bw, cw = b.get("wall_s", 0.0), c.get("wall_s", 0.0)
        delta = _pct(bw, cw)
        verdict = "ok"
        if delta > threshold * 100:
            verdict = "slower"
        elif delta < -threshold * 100:
            verdict = "faster"
        rows.append({
            "op": op, "verdict": verdict,
            "base_wall_s": bw, "cand_wall_s": cw,
            "delta_pct": round(delta, 1),
            "base_keys_per_sec": b.get("keys_per_sec"),
            "cand_keys_per_sec": c.get("keys_per_sec"),
        })
    return rows


def _find_hashtable(base_ops: dict, cand_ops: dict,
                    findings: list) -> None:
    """kernel/hash-table stage: the high-conflict scenario's dedup
    conflict-table transaction counts (per variant)."""
    b = (base_ops.get("update_high_conflict") or {}).get("hashtable")
    c = (cand_ops.get("update_high_conflict") or {}).get("hashtable")
    if c is None and b is None:
        return
    if b is None:
        bt = c.get("bucketed", {}).get("transactions")
        lt = c.get("linear", {}).get("transactions")
        findings.append({
            "stage": "kernel/hash-table", "op": "update_high_conflict",
            "severity": "improvement",
            "summary": (
                "dedup-table transactions drop attributed to the "
                "kernel/hash-table stage: the bucketed conflict table "
                f"({bt} transactions) cuts {c.get('tx_ratio')}x vs "
                f"linear probing ({lt}) in the high-conflict scenario "
                "(section new in candidate)"
            ),
        })
        return
    if c is None:
        findings.append({
            "stage": "kernel/hash-table", "op": "update_high_conflict",
            "severity": "regression",
            "summary": "high-conflict hashtable section disappeared "
                       "from the candidate",
        })
        return
    for variant in ("linear", "bucketed"):
        bv, cv = b.get(variant, {}), c.get(variant, {})
        bt, ct = bv.get("transactions"), cv.get("transactions")
        if bt and ct and abs(_pct(bt, ct)) > 5:
            sev = "regression" if ct > bt else "improvement"
            findings.append({
                "stage": "kernel/hash-table",
                "op": "update_high_conflict", "severity": sev,
                "summary": (
                    f"{variant} conflict-table transactions "
                    f"{bt} -> {ct} ({_pct(bt, ct):+.1f}%) in the "
                    "high-conflict scenario"
                ),
            })


def _find_overlap(base_ops: dict, cand_ops: dict,
                  findings: list) -> None:
    """device-pipeline stage: stream-overlap efficiency of the mixed
    run, refined to pcie/kernel stages when both documents embed a
    critical_path attribution."""
    b = (base_ops.get("mixed") or {}).get("stream_overlap")
    c = (cand_ops.get("mixed") or {}).get("stream_overlap")
    if b and c:
        bm, cm = b.get("makespan_s", 0.0), c.get("makespan_s", 0.0)
        if bm and cm and abs(_pct(bm, cm)) > 5:
            sev = "regression" if cm > bm else "improvement"
            findings.append({
                "stage": "device-pipeline", "op": "mixed",
                "severity": sev,
                "summary": (
                    f"simulated mixed makespan {bm:.3e}s -> {cm:.3e}s "
                    f"({_pct(bm, cm):+.1f}%); overlap ratio "
                    f"{b.get('overlap_ratio')} -> {c.get('overlap_ratio')}"
                ),
            })
    bcp = (base_ops.get("mixed") or {}).get("critical_path")
    ccp = (cand_ops.get("mixed") or {}).get("critical_path")
    if bcp and ccp:
        stage_map = {"h2d": "pcie-h2d", "d2h": "pcie-d2h",
                     "kernel": "kernel", "shard-skew": "shard-skew"}
        bs, cs = bcp.get("stage_s", {}), ccp.get("stage_s", {})
        for key, stage in stage_map.items():
            bv, cv = bs.get(key, 0.0), cs.get(key, 0.0)
            if (bv or cv) and abs(cv - bv) > 0.05 * max(bv, cv):
                sev = "regression" if cv > bv else "improvement"
                findings.append({
                    "stage": stage, "op": "mixed", "severity": sev,
                    "summary": (
                        f"critical-path {key} time {bv:.3e}s -> "
                        f"{cv:.3e}s ({_pct(bv, cv):+.1f}%)"
                    ),
                })
        if bcp.get("bottleneck") != ccp.get("bottleneck"):
            findings.append({
                "stage": stage_map.get(ccp.get("bottleneck"),
                                       str(ccp.get("bottleneck"))),
                "op": "mixed", "severity": "info",
                "summary": (
                    "critical-path bottleneck moved: "
                    f"{bcp.get('bottleneck')} -> {ccp.get('bottleneck')}"
                ),
            })


def _find_counters(base: dict, cand: dict, findings: list) -> None:
    bm, cm = base.get("metrics") or {}, cand.get("metrics") or {}

    tx_b = _counter(bm, "hashtable_transactions_total") or {}
    tx_c = _counter(cm, "hashtable_transactions_total") or {}
    if tx_c and not tx_b:
        findings.append({
            "stage": "kernel/hash-table", "op": "update",
            "severity": "info",
            "summary": (
                "hashtable transaction counters appear in candidate: "
                + ", ".join(f"{k}={v}" for k, v in sorted(tx_c.items()))
            ),
        })
    elif isinstance(tx_b, dict) and isinstance(tx_c, dict):
        for k in sorted(set(tx_b) | set(tx_c)):
            bv, cv = tx_b.get(k, 0), tx_c.get(k, 0)
            if bv and cv and abs(_pct(bv, cv)) > 10:
                sev = "regression" if cv > bv else "improvement"
                findings.append({
                    "stage": "kernel/hash-table", "op": "update",
                    "severity": sev,
                    "summary": f"hashtable_transactions_total{{{k}}} "
                               f"{bv} -> {cv} ({_pct(bv, cv):+.1f}%)",
                })

    for fam, stage in (
        ("resilience_retries_total", "resilience"),
        ("resilience_degraded_batches_total", "resilience"),
    ):
        bt, ct = _counter(bm, fam), _counter(cm, fam)
        bs = sum(bt.values()) if isinstance(bt, dict) else (bt or 0)
        cs = sum(ct.values()) if isinstance(ct, dict) else (ct or 0)
        if bs != cs and (bs or cs):
            findings.append({
                "stage": stage, "op": "*",
                "severity": "regression" if cs > bs else "improvement",
                "summary": f"{fam} {bs} -> {cs}",
            })

    fb = _counter(bm, "coalescer_flushes_total") or {}
    fc = _counter(cm, "coalescer_flushes_total") or {}
    for k in sorted(set(fb) | set(fc)):
        bv, cv = fb.get(k, 0), fc.get(k, 0)
        # early forced flushes fragment batches -> queue-wait pressure
        if "drain" in k or "size-full" in k:
            continue
        if cv > bv:
            findings.append({
                "stage": "queue-wait", "op": "mixed",
                "severity": "regression",
                "summary": f"forced coalescer flushes {k} {bv} -> {cv} "
                           "(batch fragmentation)",
            })


def _find_latency(base_ops: dict, cand_ops: dict,
                  findings: list) -> None:
    b = (base_ops.get("mixed") or {}).get("latency_percentiles_by_op", {})
    c = (cand_ops.get("mixed") or {}).get("latency_percentiles_by_op", {})
    for op in sorted(set(b) & set(c)):
        bp, cp = b[op].get("p99"), c[op].get("p99")
        if bp and cp and _pct(bp, cp) > 25:
            findings.append({
                "stage": "host-dispatch", "op": op,
                "severity": "regression",
                "summary": f"mixed {op} p99 latency {bp:.2f}us -> "
                           f"{cp:.2f}us ({_pct(bp, cp):+.1f}%)",
            })


def _find_sharded(base_ops: dict, cand_ops: dict,
                  findings: list) -> None:
    b = (base_ops.get("mixed_sharded") or {}).get("devices", {})
    c = (cand_ops.get("mixed_sharded") or {}).get("devices", {})
    for nd in sorted(set(b) & set(c), key=lambda s: int(s)):
        bi, ci = b[nd].get("imbalance"), c[nd].get("imbalance")
        if bi and ci and ci > bi * 1.1 and ci > 1.05:
            findings.append({
                "stage": "shard-skew", "op": f"mixed_sharded[{nd}dev]",
                "severity": "regression",
                "summary": f"shard imbalance at {nd} devices "
                           f"{bi} -> {ci}",
            })
        bm_, cm_ = b[nd].get("mixed_makespan_s"), c[nd].get("mixed_makespan_s")
        if bm_ and cm_ and abs(_pct(bm_, cm_)) > 10:
            sev = "regression" if cm_ > bm_ else "improvement"
            findings.append({
                "stage": "device-pipeline",
                "op": f"mixed_sharded[{nd}dev]", "severity": sev,
                "summary": f"sharded mixed makespan {bm_:.3e}s -> "
                           f"{cm_:.3e}s ({_pct(bm_, cm_):+.1f}%)",
            })


def _find_flight(base_fl: dict | None, cand_fl: dict | None,
                 findings: list) -> None:
    """Flight-dump stage sums per op class (sampled device + host
    residence evidence)."""
    if not base_fl or not cand_fl:
        return
    b = (base_fl.get("summary") or base_fl).get("by_op", {})
    c = (cand_fl.get("summary") or cand_fl).get("by_op", {})
    for op in sorted(set(b) & set(c)):
        for key, stage in (
            ("queue_wait_us_sum", "queue-wait"),
            ("sim_kernel_us_sum", "kernel"),
            ("sim_h2d_us_sum", "pcie-h2d"),
            ("sim_d2h_us_sum", "pcie-d2h"),
        ):
            bn, cn = b[op].get("count", 1) or 1, c[op].get("count", 1) or 1
            bv, cv = b[op].get(key, 0.0) / bn, c[op].get(key, 0.0) / cn
            if (bv or cv) and bv and _pct(bv, cv) > 25:
                findings.append({
                    "stage": stage, "op": op, "severity": "regression",
                    "summary": (
                        f"flight records: mean {key[:-4]} per sampled "
                        f"{op} {bv:.2f}us -> {cv:.2f}us "
                        f"({_pct(bv, cv):+.1f}%)"
                    ),
                })


def diff_docs(base: dict, cand: dict, *,
              threshold: float = DEFAULT_THRESHOLD,
              base_flight: dict | None = None,
              cand_flight: dict | None = None) -> dict:
    """Full diff: per-op wall-clock table + stage attribution."""
    base_ops, cand_ops = base.get("ops", {}), cand.get("ops", {})
    rows = diff_op_table(base_ops, cand_ops, threshold)
    findings: list[dict] = []
    _find_overlap(base_ops, cand_ops, findings)
    _find_hashtable(base_ops, cand_ops, findings)
    _find_counters(base, cand, findings)
    _find_latency(base_ops, cand_ops, findings)
    _find_sharded(base_ops, cand_ops, findings)
    _find_flight(base_flight, cand_flight, findings)
    regressed = [r["op"] for r in rows if r["verdict"] == "slower"]
    return {
        "base_label": (base.get("meta") or {}).get("label", "base"),
        "cand_label": (cand.get("meta") or {}).get("label", "candidate"),
        "threshold": threshold,
        "ops": rows,
        "findings": findings,
        "regressed_ops": regressed,
    }


def render_text(doc: dict) -> str:
    out = [
        f"bench_diff: {doc['base_label']} -> {doc['cand_label']} "
        f"(threshold {doc['threshold'] * 100:.0f}%)",
        "",
        f"{'op':<22} {'base s':>10} {'cand s':>10} {'delta':>8}  verdict",
    ]
    for r in doc["ops"]:
        bw = "-" if r["base_wall_s"] is None else f"{r['base_wall_s']:.4f}"
        cw = "-" if r["cand_wall_s"] is None else f"{r['cand_wall_s']:.4f}"
        dp = "-" if r["delta_pct"] is None else f"{r['delta_pct']:+.1f}%"
        out.append(
            f"{r['op']:<22} {bw:>10} {cw:>10} {dp:>8}  {r['verdict']}"
        )
    out.append("")
    if doc["findings"]:
        out.append("stage attribution:")
        for f in doc["findings"]:
            out.append(
                f"  [{f['severity']:<11}] {f['stage']:<18} "
                f"{f['op']:<22} {f['summary']}"
            )
    else:
        out.append("stage attribution: no stage-level deltas above noise")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="diff two BENCH JSONs with stage attribution"
    )
    ap.add_argument("base", help="baseline BENCH json")
    ap.add_argument("candidate", help="candidate BENCH json")
    ap.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative wall-clock change considered a verdict "
             "(default 0.05)",
    )
    ap.add_argument(
        "--flight", nargs=2, metavar=("BASE_DUMP", "CAND_DUMP"),
        help="optional flight-recorder dumps to mine for stage sums",
    )
    ap.add_argument(
        "--json", action="store_true",
        help="emit the diff document as JSON instead of text",
    )
    ap.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any op regressed beyond the threshold",
    )
    args = ap.parse_args(argv)
    base, cand = load(args.base), load(args.candidate)
    bf = cf = None
    if args.flight:
        bf, cf = load(args.flight[0]), load(args.flight[1])
    doc = diff_docs(
        base, cand, threshold=args.threshold,
        base_flight=bf, cand_flight=cf,
    )
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(render_text(doc))
    if args.fail_on_regression and doc["regressed_ops"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
