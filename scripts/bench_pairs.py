#!/usr/bin/env python
"""Time two checkouts against each other with alternating perfbench pairs.

Pair *i* runs ``perfbench/run.py --workload W --seed i --seconds S
--trace 0`` once in each checkout, with S the ``run_seconds`` of
``BENCHMARK.json``, one run at a time; odd pairs run the
parent first and even pairs the change first, so slow spells of a
shared host fall on both sides.  The table then gives, for every
end-to-end metric ``BENCHMARK.json`` lists, the parent's median with
its quartiles, the change's median, the change in percent, the
smallest and largest change in percent within one pair, and the pairs
the change won (``better`` comes from ``BENCHMARK.json``; a tie counts
for neither side), plus each side's failed / attempted ops.  Each
run's record goes to stderr as one JSON line when it finishes.

Usage::

    python scripts/bench_pairs.py ../parent . --workload lookup_uniform \\
        --pairs 10

``--workload`` takes one or more names (and may repeat); without it
every workload of ``BENCHMARK.json`` runs, one after another, and each
gets its own table, printed as soon as its pairs finish.

A gain holds when the change wins at least nine tenths of the pairs and
its median lies beyond the parent's by more than the parent's
interquartile range (the ``> IQR`` column).  For a simulated metric,
which is exact per seed, the parent's quartiles measure the spread
between seeds, not noise: read the paired column instead, whose range
is the change each seed saw.  This is a measuring tool, not a gate:
wall time is never gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def load_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout: str, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One perfbench run in ``checkout``; returns its JSON result line."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {checkout} seed {seed} failed:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(parent: str, change: str, workload: str, pairs: int,
              seconds: float, command: list) -> list[dict]:
    """Every run as ``{"pair", "side", "attempted", "failed", "metrics"}``
    with ``metrics`` mapping name to value."""
    records = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            out = run_once(parent if side == "parent" else change, command,
                           workload, pair, seconds)
            rec = {"workload": workload, "pair": pair, "side": side,
                   "attempted": out["attempted"], "failed": out["failed"],
                   "metrics": {k: v["value"]
                               for k, v in out["metrics"].items()}}
            print(json.dumps(rec), file=sys.stderr, flush=True)
            records.append(rec)
    return records


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _delta_pct(parent: float, change: float) -> float:
    return (change - parent) / parent * 100.0 if parent else 0.0


def summarize(records: list[dict], spec: dict) -> dict:
    """One row per end-to-end metric of ``spec`` plus each side's op
    totals.  A pair counts toward ``wins`` only when both sides ran it
    and the change is strictly better."""
    by_pair = {side: {r["pair"]: r for r in records if r["side"] == side}
               for side in SIDES}
    both = sorted(set(by_pair["parent"]) & set(by_pair["change"]))
    rows = []
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [by_pair["parent"][p]["metrics"][name] for p in both]
        chg = [by_pair["change"][p]["metrics"][name] for p in both]
        q1, p_med, q3 = _quartiles(par)
        c_med = statistics.median(chg)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        paired = [_delta_pct(p, c) for p, c in zip(par, chg)]
        rows.append({
            "metric": name, "unit": m["unit"], "better": m["better"],
            "parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
            "change_median": c_med, "delta_pct": _delta_pct(p_med, c_med),
            "pair_delta_min": min(paired), "pair_delta_max": max(paired),
            "wins": wins, "pairs": len(both),
            "beyond_iqr": abs(c_med - p_med) > q3 - q1,
        })
    ops = {side: {"failed": sum(r["failed"] for r in by_pair[side].values()),
                  "attempted": sum(r["attempted"]
                                   for r in by_pair[side].values())}
           for side in SIDES}
    return {"rows": rows, "ops": ops}


def render(summary: dict, workload: str) -> str:
    lines = [f"# {workload}",
             "| metric | parent median [Q1–Q3] | change median | Δ% "
             "| paired Δ% [min, max] | change won | > IQR |",
             "|---|--:|--:|--:|--:|--:|:-:|"]
    for r in summary["rows"]:
        lines.append(
            f"| {r['metric']} ({r['unit']}, {r['better']}) "
            f"| {r['parent_median']:.6g} [{r['parent_q1']:.6g}–"
            f"{r['parent_q3']:.6g}] | {r['change_median']:.6g} "
            f"| {r['delta_pct']:+.2f}% "
            f"| [{r['pair_delta_min']:+.2f}%, {r['pair_delta_max']:+.2f}%] "
            f"| {r['wins']}/{r['pairs']} "
            f"| {'yes' if r['beyond_iqr'] else 'no'} |")
    for side in SIDES:
        o = summary["ops"][side]
        lines.append(f"{side}: {o['failed']}/{o['attempted']} ops failed")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="extend", nargs="+",
                    help="default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = load_spec(args.change)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        records = run_pairs(args.parent, args.change, workload, args.pairs,
                            spec["run_seconds"], spec["command"])
        print(render(summarize(records, spec), workload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
