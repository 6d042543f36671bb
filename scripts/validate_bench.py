#!/usr/bin/env python
"""Check a perf_smoke BENCH JSON file: its schema and the bounds table.

Stdlib-only, used by CI and by hand::

    python scripts/validate_bench.py /tmp/bench_ci.json
    python scripts/validate_bench.py /tmp/bench_ci.json --baseline BENCH_pr15.json

Every document must carry the schema (required sections and ops, finite
per-op ``wall_s`` / ``keys_per_sec`` / ``n``, per-class latency
percentiles, flush reasons, ``ops_by_status`` with no ``FAILED`` op, the
sharded lockstep marker, the serving ramp, both write_burst passes, the
metrics snapshot, no NaN/inf anywhere) and meet every bound row of
:data:`TABLE`.  With ``--baseline`` every ``exact`` row must also equal
the baseline: those are the numbers a fixed seed reproduces (simulated
device time, counts, virtual-clock latencies), so any drift is a
behaviour change, and the failure prints the bench_diff attribution.
Wall-clock values stay in the JSON but are never compared here: the
machine that recorded a baseline is not the one that checks it.

Exits nonzero with one line per problem, each naming its JSON path.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from fnmatch import fnmatchcase

REQUIRED_OPS = ("populate", "lookup_uniform", "lookup_zipf", "update",
                "update_high_conflict", "mixed", "mixed_sharded", "serving",
                "write_burst")
REQUIRED_OP_KEYS = ("wall_s", "keys_per_sec", "n")
REQUIRED_META = ("label", "n_keys", "batch_size", "seed")
REQUIRED_PCT_KEYS = ("count", "mean", "p50", "p95", "p99")
REQUIRED_FLUSH_REASONS = ("size-full", "drain")
KNOWN_STATUSES = ("OK", "NOT_FOUND", "RETRIED", "DEGRADED_CPU", "FAILED",
                  "SHED")
REQUIRED_SERVING_STEP_KEYS = ("qps", "offered", "shed", "shed_rate",
                              "slo_attainment", "batch_close", "deadline_us")

EXACT = "exact"

#: ``(JSON path, comparator, bound)``: every bound the reproduction
#: claims, checked on every document and nowhere else.  A bound row's
#: value must be present, finite and meet the bound (``any>=``: at least
#: one named child meets its own bound).  An ``exact`` row's path is an
#: fnmatch pattern over leaf paths (list items as ``[i]``); with
#: ``--baseline`` each matching leaf must equal the baseline's.
TABLE = (
    # bucketed dedup table: >=4x fewer transactions than linear probing
    ("ops.update_high_conflict.hashtable.tx_ratio", ">=", 4.0),
    # a write (a lookup plus stores) stays within a small factor of a
    # lookup at the tail
    ("ops.mixed.write_p95_over_lookup_p95", "<", 25.0),
    # key-space sharding: simulated throughput scales >=3x at 4 devices,
    # and a Zipf rebalance recovers >=80% of uniform-traffic throughput
    ("ops.mixed_sharded.scaling.mixed_x4", ">=", 3.0),
    ("ops.mixed_sharded.scaling.update_x4", ">=", 3.0),
    ("ops.mixed_sharded.rebalance.recovery_vs_uniform", ">=", 0.8),
    # the serving QPS ramp: >=95% p99-SLO attainment with <=5% shed
    ("ops.serving.overall.slo_attainment", ">=", 0.95),
    ("ops.serving.overall.shed_rate", "<=", 0.05),
    # write absorption: >=50% of writes acked host-side, and >=2x write
    # throughput or a >=4x write-p99 drop vs the synchronous pass
    ("ops.write_burst.memtable.absorbed_write_ratio", ">=", 0.5),
    ("ops.write_burst.speedup", "any>=",
     {"write_tput_x": 2.0, "write_p99_drop_x": 4.0}),
    # what a fixed seed reproduces: batches, flush reasons,
    # transactions, dispatched rows, simulated makespans and
    # throughputs, scaling, SLO attainment, absorbed ratio
    ("ops.*.n", EXACT, None),
    ("ops.lookup_zipf.cache.*", EXACT, None),
    ("ops.update_high_conflict.hashtable.*.transactions", EXACT, None),
    ("ops.update_high_conflict.hashtable.tx_ratio", EXACT, None),
    ("ops.mixed.batches*", EXACT, None),
    ("ops.mixed.flush_reasons.*", EXACT, None),
    ("ops.mixed.forwarded.*", EXACT, None),
    ("ops.mixed.ops_by_status.*", EXACT, None),
    ("ops.mixed.stream_overlap.*", EXACT, None),
    ("ops.mixed_sharded.devices.*", EXACT, None),
    ("ops.mixed_sharded.scaling.*", EXACT, None),
    ("ops.mixed_sharded.rebalance.*", EXACT, None),
    ("ops.serving.steps*", EXACT, None),
    ("ops.serving.overall.*", EXACT, None),
    ("ops.write_burst.*.batches", EXACT, None),
    ("ops.write_burst.*.makespan_s", EXACT, None),
    ("ops.write_burst.*.write_ops_per_sec", EXACT, None),
    ("ops.write_burst.*_latency.*", EXACT, None),
    ("ops.write_burst.memtable.dispatched_rows", EXACT, None),
    ("ops.write_burst.memtable.absorbed_write_ratio", EXACT, None),
    ("ops.write_burst.speedup.*", EXACT, None),
)

_CMP = {">=": operator.ge, "<=": operator.le, "<": operator.lt}
_MISSING = "<missing>"


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _get(doc: dict, path: str):
    """The value at a dotted path, or None where a key is absent."""
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def _leaves(node, path: str = "") -> dict:
    """``{leaf path: value}`` of every non-container value in a doc."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else str(k), v)
                 for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    out: dict = {}
    for p, v in items:
        out.update(_leaves(v, p))
    return out


def _require_finite(rec, path: str, keys, problems: list[str]) -> None:
    rec = rec if isinstance(rec, dict) else {}
    for k in keys:
        if not _finite(rec.get(k)):
            problems.append(f"{path}.{k} missing or non-finite: "
                            f"{rec.get(k)!r}")


def check_schema(doc: dict) -> list[str]:
    """Schema problems of one document (empty means well-formed)."""
    problems: list[str] = []
    for section in ("meta", "ops", "headline", "metrics"):
        if not isinstance(doc.get(section), dict):
            problems.append(f"missing top-level section {section!r}")
    for k in REQUIRED_META:
        if k not in doc.get("meta", {}):
            problems.append(f"missing meta.{k}")
    for section in ("counters", "gauges", "histograms"):
        if section not in doc.get("metrics", {}):
            problems.append(f"missing metrics.{section}")

    ops = doc.get("ops", {})
    for op in REQUIRED_OPS:
        if op not in ops:
            problems.append(f"missing ops.{op}")
        else:
            _require_finite(ops[op], f"ops.{op}", REQUIRED_OP_KEYS, problems)

    mixed = ops.get("mixed", {})
    pcts = mixed.get("latency_percentiles_by_op")
    if not isinstance(pcts, dict) or not pcts:
        problems.append("ops.mixed.latency_percentiles_by_op missing/empty")
    else:
        for op, summary in pcts.items():
            _require_finite(summary, f"ops.mixed.latency_percentiles_by_op"
                            f".{op}", REQUIRED_PCT_KEYS, problems)
    _require_finite(mixed.get("flush_reasons"), "ops.mixed.flush_reasons",
                    REQUIRED_FLUSH_REASONS, problems)
    by_status = mixed.get("ops_by_status")
    if not isinstance(by_status, dict) or not by_status:
        problems.append("ops.mixed.ops_by_status missing/empty")
    else:
        for name, count in by_status.items():
            if name not in KNOWN_STATUSES:
                problems.append(
                    f"ops.mixed.ops_by_status has unknown status {name!r}")
            elif not _finite(count) or count < 0:
                problems.append(
                    f"ops.mixed.ops_by_status[{name!r}] non-finite: {count!r}")
        if by_status.get("FAILED", 0):
            problems.append(f"ops.mixed.ops_by_status reports FAILED ops: "
                            f"{by_status['FAILED']}")
        total = sum(c for c in by_status.values() if _finite(c))
        if _finite(mixed.get("n")) and total != mixed["n"]:
            problems.append(f"ops.mixed.ops_by_status sums to {total}, "
                            f"expected n={mixed['n']}")

    if _get(doc, "ops.mixed_sharded.lockstep.ok") is not True:
        problems.append("ops.mixed_sharded.lockstep.ok missing or false")

    steps = _get(doc, "ops.serving.steps")
    if not isinstance(steps, list) or len(steps) < 4:
        problems.append("ops.serving.steps missing or fewer than 4 ramp steps")
    else:
        for i, step in enumerate(steps):
            # a fully-shed step has no latencies, so no attainment
            keys = [k for k in REQUIRED_SERVING_STEP_KEYS
                    if not (k == "slo_attainment"
                            and step.get(k, 0) is None)]
            _require_finite(step, f"ops.serving.steps[{i}]", keys, problems)

    for variant in ("sync", "memtable"):
        path = f"ops.write_burst.{variant}"
        rec = _get(doc, path)
        if not isinstance(rec, dict):
            problems.append(f"{path} missing")
            continue
        _require_finite(rec, path, ("makespan_s", "write_ops_per_sec"),
                        problems)
        _require_finite(rec.get("write_latency"), f"{path}.write_latency",
                        ("p50_us", "p99_us"), problems)
    ratio = _get(doc, "ops.write_burst.memtable.absorbed_write_ratio")
    if not _finite(ratio) or not 0.0 <= ratio <= 1.0:
        problems.append("ops.write_burst.memtable.absorbed_write_ratio "
                        f"missing or out of [0, 1]: {ratio!r}")

    for path, value in _leaves(doc, "$").items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"non-finite number at {path}: {value}")
    return problems


def check_table(doc: dict, baseline: dict | None = None) -> list[str]:
    """Problems of one document against :data:`TABLE`; ``exact`` rows
    only run when a ``baseline`` is given."""
    problems: list[str] = []
    leaves = base_leaves = None
    for path, cmp, bound in TABLE:
        if cmp == EXACT:
            if baseline is None:
                continue
            if leaves is None:
                leaves, base_leaves = _leaves(doc), _leaves(baseline)
            names = sorted(n for n in leaves.keys() | base_leaves.keys()
                           if fnmatchcase(n, path))
            if not names:
                problems.append(f"{path}: no value in either document")
            for name in names:
                cur = leaves.get(name, _MISSING)
                ref = base_leaves.get(name, _MISSING)
                if cur != ref:
                    problems.append(f"{name}: {cur!r} != baseline {ref!r}")
        elif cmp == "any>=":
            node = _get(doc, path)
            node = node if isinstance(node, dict) else {}
            if not any(_finite(node.get(k)) and node[k] >= b
                       for k, b in bound.items()):
                got = {k: node.get(k) for k in bound}
                problems.append(f"{path}: none of {got} meets its bound "
                                f"(any of >= {bound})")
        else:
            value = _get(doc, path)
            if not _finite(value) or not _CMP[cmp](value, bound):
                problems.append(f"{path}: {value!r} fails {cmp} {bound:g}")
    return problems


def validate(doc: dict, baseline: dict | None = None) -> list[str]:
    """Every problem of one document: schema, then the table."""
    return check_schema(doc) + check_table(doc, baseline)


def _print_attribution(base: dict, doc: dict) -> None:
    """Stage attribution of a failed baseline gate via bench_diff
    (loaded from this script's directory, since the test suite imports
    this file by path rather than as a package)."""
    import importlib.util
    import pathlib

    spec = importlib.util.spec_from_file_location(
        "bench_diff", pathlib.Path(__file__).resolve().parent / "bench_diff.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    print(mod.render_text(mod.diff_docs(base, doc)), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="candidate BENCH JSON to validate")
    ap.add_argument("--baseline", default=None, metavar="BASE.json",
                    help="run recorded with the same command: every exact "
                         "row must equal it")
    args = ap.parse_args(argv)

    docs = []
    for path in (args.bench, args.baseline):
        if path is None:
            docs.append(None)
            continue
        try:
            with open(path) as fh:
                # json.load accepts NaN/Infinity literals; keep them as
                # floats so the schema check reports them by path
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            return 1
    doc, base = docs
    problems = validate(doc, base)
    if problems:
        for p in problems:
            print(f"{args.bench}: {p}", file=sys.stderr)
        if base is not None:
            # say which stage moved, not just that a number did
            _print_attribution(base, doc)
        print(f"{args.bench}: INVALID ({len(problems)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"{args.bench}: ok"
          + (f" (exact rows match {args.baseline})" if base else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
