"""scripts/validate_bench.py: the schema check and the bounds table."""

import copy
import importlib.util
import json
import math
import pathlib
import re
from fnmatch import fnmatchcase

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2]
    / "scripts" / "validate_bench.py"
)
_spec = importlib.util.spec_from_file_location("validate_bench", _SCRIPT)
vb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(vb)

BOUND_ROWS = [row for row in vb.TABLE if row[1] != vb.EXACT]
EXACT_ROWS = [row for row in vb.TABLE if row[1] == vb.EXACT]


def _op(n: int = 100) -> dict:
    return {"wall_s": 0.1, "keys_per_sec": 1000.0, "batch_size": 8, "n": n}


def _sharded_record() -> dict:
    dev = {"mixed_sim_mops": 100.0, "mixed_makespan_s": 0.0002,
           "update_sim_mops": 100.0, "update_makespan_s": 0.0004,
           "streams": 2, "imbalance": 1.0}
    return {
        **_op(1000),
        "devices": {
            "1": dict(dev),
            "4": {**dev, "mixed_sim_mops": 340.0, "update_sim_mops": 350.0,
                  "streams": 8},
        },
        "scaling": {"mixed_x4": 3.4, "update_x4": 3.5,
                    "mixed_x8": 4.1, "update_x8": 5.8},
        "lockstep": {"device_counts": [1, 2, 4, 8], "ok": True},
        "rebalance": {"mode": "range", "recovery_vs_uniform": 1.04,
                      "imbalance_before": 3.4, "imbalance_after": 1.0},
    }


def _serving_record() -> dict:
    def step(qps):
        return {"qps": qps, "offered": 64, "shed": 0, "shed_rate": 0.0,
                "slo_attainment": 1.0, "batch_close": 1024,
                "deadline_us": 200.0,
                "latency": {"count": 64, "p50_us": 300.0, "p99_us": 800.0}}
    return {
        **_op(256),
        "steps": [step(q) for q in (50_000, 100_000, 200_000, 400_000)],
        "overall": {"offered": 256, "shed": 0, "shed_rate": 0.0,
                    "slo_attainment": 1.0, "retunes": 2,
                    "latency": {"count": 256, "p50_us": 390.0,
                                "p95_us": 790.0, "p99_us": 820.0}},
    }


def _write_burst_record() -> dict:
    def lat(p99):
        return {"count": 100, "mean_us": 1.0, "p50_us": 0.0,
                "p99_us": p99, "max_us": p99}
    return {
        **_op(200), "pattern": "bursty", "qps": 400_000,
        "sync": {"wall_s": 0.5, "makespan_s": 0.04,
                 "write_ops_per_sec": 350_000.0, "batches": 40,
                 "write_latency": lat(250.0), "read_latency": lat(90.0)},
        "memtable": {"wall_s": 0.3, "makespan_s": 0.04,
                     "write_ops_per_sec": 350_000.0, "batches": 12,
                     "write_latency": lat(0.0), "read_latency": lat(90.0),
                     "absorbed_write_ratio": 0.85, "compactions": 2,
                     "dispatched_rows": 2136},
        "speedup": {"write_tput_x": 1.0, "write_p99_drop_x": 25_000.0},
    }


def _minimal_doc() -> dict:
    """The smallest document that passes the schema and every bound."""
    return {
        "meta": {"label": "t", "n_keys": 100, "batch_size": 8, "seed": 7},
        "ops": {
            "populate": _op(),
            "lookup_uniform": _op(),
            "lookup_zipf": {**_op(400),
                            "cache": {"capacity": 64, "hits": 300,
                                      "misses": 100, "hit_rate": 0.75}},
            "update": _op(25),
            "update_high_conflict": {
                **_op(96),
                "hashtable": {"linear": {"transactions": 500},
                              "bucketed": {"transactions": 100},
                              "tx_ratio": 5.0},
            },
            "mixed": {
                **_op(),
                "batches": 4,
                "batches_by_op": {"lookup": 2, "write": 2},
                "latency_percentiles_by_op": {
                    "lookup": {"count": 10, "mean": 1.0, "p50": 1.0,
                               "p95": 2.0, "p99": 3.0},
                },
                "flush_reasons": {"size-full": 1, "key-conflict": 0,
                                  "dep-order": 1, "drain": 2},
                "forwarded": {"lookup": 3},
                "stream_overlap": {"batches": 4, "makespan_s": 0.0001,
                                   "overlap_ratio": 0.4},
                "write_p95_over_lookup_p95": 1.8,
                "ops_by_status": {"OK": 90, "NOT_FOUND": 10},
            },
            "mixed_sharded": _sharded_record(),
            "serving": _serving_record(),
            "write_burst": _write_burst_record(),
        },
        "headline": {"populate_plus_lookup_wall_s": 0.2},
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


def _set(doc: dict, path: str, value) -> None:
    """Set the value at a leaf path (list items as ``[i]``)."""
    *parents, last = [int(t[1:-1]) if t[0] == "[" else t
                      for t in re.findall(r"\[\d+\]|[^.\[]+", path)]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value


def test_valid_doc_passes():
    doc = _minimal_doc()
    assert vb.validate(doc) == []
    assert vb.validate(doc, copy.deepcopy(doc)) == []


def test_committed_bench_passes():
    """The committed baseline meets the schema and every bound, and
    every exact row finds its values."""
    bench = json.loads((_SCRIPT.parents[1] / "BENCH_pr15.json").read_text())
    assert vb.validate(bench, bench) == []


def test_missing_percentiles_flagged():
    doc = _minimal_doc()
    del doc["ops"]["mixed"]["latency_percentiles_by_op"]
    assert any("latency_percentiles_by_op" in p for p in vb.validate(doc))


def test_missing_p99_flagged():
    doc = _minimal_doc()
    del doc["ops"]["mixed"]["latency_percentiles_by_op"]["lookup"]["p99"]
    assert any(".p99" in p for p in vb.validate(doc))


def test_nan_flagged_anywhere():
    doc = _minimal_doc()
    doc["metrics"]["gauges"]["g"] = math.nan
    assert any("non-finite" in p for p in vb.validate(doc))


def test_missing_metrics_snapshot_flagged():
    doc = _minimal_doc()
    del doc["metrics"]
    assert any("metrics" in p for p in vb.validate(doc))


def test_missing_flush_reason_flagged():
    doc = _minimal_doc()
    del doc["ops"]["mixed"]["flush_reasons"]["drain"]
    assert any("drain" in p for p in vb.validate(doc))


def test_missing_ops_by_status_flagged():
    doc = _minimal_doc()
    del doc["ops"]["mixed"]["ops_by_status"]
    assert any("ops_by_status" in p for p in vb.validate(doc))


def test_failed_ops_flagged():
    doc = _minimal_doc()
    doc["ops"]["mixed"]["ops_by_status"] = {"OK": 95, "FAILED": 5}
    assert any("FAILED" in p for p in vb.validate(doc))


def test_unknown_status_flagged():
    doc = _minimal_doc()
    doc["ops"]["mixed"]["ops_by_status"] = {"OK": 99, "BOGUS": 1}
    assert any("BOGUS" in p for p in vb.validate(doc))


def test_status_sum_mismatch_flagged():
    doc = _minimal_doc()
    doc["ops"]["mixed"]["ops_by_status"] = {"OK": 1}
    assert any("sums to" in p for p in vb.validate(doc))


def test_missing_scenario_flagged():
    doc = _minimal_doc()
    del doc["ops"]["serving"]
    assert any("missing ops.serving" in p for p in vb.validate(doc))


class TestShardedSchema:
    def test_valid_sharded_record_passes(self):
        assert vb.validate(_minimal_doc()) == []

    def test_missing_scaling_flagged(self):
        doc = _minimal_doc()
        del doc["ops"]["mixed_sharded"]["scaling"]
        assert any("mixed_sharded.scaling" in p for p in vb.validate(doc))

    def test_lockstep_false_flagged(self):
        doc = _minimal_doc()
        doc["ops"]["mixed_sharded"]["lockstep"]["ok"] = False
        assert any("lockstep" in p for p in vb.validate(doc))

    def test_missing_rebalance_recovery_flagged(self):
        doc = _minimal_doc()
        del doc["ops"]["mixed_sharded"]["rebalance"]["recovery_vs_uniform"]
        assert any("recovery_vs_uniform" in p for p in vb.validate(doc))


class TestWriteBurstSchema:
    def test_valid_write_burst_record_passes(self):
        assert vb.validate(_minimal_doc()) == []

    def test_missing_pass_flagged(self):
        doc = _minimal_doc()
        del doc["ops"]["write_burst"]["memtable"]
        assert any("write_burst.memtable" in p for p in vb.validate(doc))

    def test_absorbed_ratio_out_of_range_flagged(self):
        doc = _minimal_doc()
        doc["ops"]["write_burst"]["memtable"]["absorbed_write_ratio"] = 1.7
        assert any("absorbed_write_ratio" in p for p in vb.validate(doc))

    def test_missing_speedup_flagged(self):
        doc = _minimal_doc()
        del doc["ops"]["write_burst"]["speedup"]
        assert any("speedup" in p for p in vb.validate(doc))


def _edges(cmp: str, bound):
    """(value at the edge that passes, value just past it) of a row."""
    if cmp == "any>=":
        return dict(bound), {k: b * (1 - 1e-6) for k, b in bound.items()}
    step = abs(bound) * 1e-6
    return {">=": (bound, bound - step), "<=": (bound, bound + step),
            "<": (bound - step, bound)}[cmp]


@pytest.mark.parametrize("path,cmp,bound", BOUND_ROWS,
                         ids=[row[0] for row in BOUND_ROWS])
def test_bound_row(path, cmp, bound):
    """Each bound row passes at its bound, fails just past it, and the
    failure names its path."""
    inside, past = _edges(cmp, bound)
    doc = _minimal_doc()
    _set(doc, path, inside)
    assert vb.validate(doc) == []
    _set(doc, path, past)
    problems = vb.check_table(doc)
    assert len(problems) == 1 and problems[0].startswith(path + ":")


def _first_numeric_leaf(doc: dict, pattern: str) -> str:
    leaves = vb._leaves(doc)
    return next(name for name in sorted(leaves)
                if fnmatchcase(name, pattern)
                and isinstance(leaves[name], (int, float)))


@pytest.mark.parametrize("pattern", [row[0] for row in EXACT_ROWS])
def test_exact_row_fails_on_one_count_drift(pattern):
    base = _minimal_doc()
    name = _first_numeric_leaf(base, pattern)
    doc = copy.deepcopy(base)
    value = vb._leaves(doc)[name]
    _set(doc, name, value + 1)
    assert vb.check_table(doc, base) == [
        f"{name}: {value + 1!r} != baseline {value!r}"]


def test_exact_rows_compare_only_with_a_baseline():
    doc = _minimal_doc()
    doc["ops"]["mixed"]["batches"] += 1
    assert vb.validate(doc) == []


def test_exact_row_flags_a_missing_leaf():
    base, doc = _minimal_doc(), _minimal_doc()
    del doc["ops"]["mixed"]["forwarded"]["lookup"]
    assert ("ops.mixed.forwarded.lookup: '<missing>' != baseline 3"
            in vb.check_table(doc, base))


def test_exact_drift_prints_attribution(tmp_path, capsys):
    """A one-count drift on an exact row fails the CLI gate, names the
    path, and prints the bench_diff stage attribution."""
    base = _minimal_doc()
    doc = copy.deepcopy(base)
    doc["ops"]["update_high_conflict"]["hashtable"]["bucketed"][
        "transactions"] += 1
    b, c = tmp_path / "base.json", tmp_path / "cand.json"
    b.write_text(json.dumps(base))
    c.write_text(json.dumps(doc))
    assert vb.main([str(c), "--baseline", str(b)]) == 1
    err = capsys.readouterr().err
    assert ("ops.update_high_conflict.hashtable.bucketed.transactions: "
            "101 != baseline 100") in err
    assert "stage attribution" in err
    assert "INVALID (1 problem(s))" in err
    assert vb.main([str(c), "--baseline", str(c)]) == 0


def test_cli_has_one_option(capsys):
    with pytest.raises(SystemExit):
        vb.main(["--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--baseline"}


class TestRegressionGate:
    def test_within_limit_passes(self):
        """Wall-clock values are reported, never compared."""
        base, cur = _minimal_doc(), _minimal_doc()
        cur["ops"]["lookup_zipf"]["wall_s"] = 0.105
        cur["ops"]["update"]["wall_s"] = 0.15
        assert vb.validate(cur, base) == []

    def test_write_scaling_below_gate_flagged(self):
        cur = _minimal_doc()
        cur["ops"]["mixed_sharded"]["scaling"]["update_x4"] = 2.1
        assert any("update_x4" in p for p in vb.validate(cur))
        cur["ops"]["mixed_sharded"]["scaling"]["update_x4"] = 3.5
        assert vb.validate(cur) == []

    def test_rebalance_recovery_below_gate_flagged(self):
        cur = _minimal_doc()
        reb = cur["ops"]["mixed_sharded"]["rebalance"]
        reb["recovery_vs_uniform"] = 0.5
        assert any("rebalance" in p for p in vb.validate(cur))
        reb["recovery_vs_uniform"] = 0.95
        assert vb.validate(cur) == []

    def test_write_absorption_below_gate_flagged(self):
        cur = _minimal_doc()
        cur["ops"]["write_burst"]["memtable"]["absorbed_write_ratio"] = 0.2
        assert any("absorbed_write_ratio" in p for p in vb.validate(cur))
        cur["ops"]["write_burst"]["memtable"]["absorbed_write_ratio"] = 0.85
        assert vb.validate(cur) == []

    def test_write_burst_speedup_below_bar_flagged(self):
        cur = _minimal_doc()
        # neither criterion met: 1x throughput, 2x p99 drop
        cur["ops"]["write_burst"]["speedup"] = {
            "write_tput_x": 1.0, "write_p99_drop_x": 2.0}
        assert any("speedup" in p for p in vb.validate(cur))
        # either criterion alone satisfies the OR
        cur["ops"]["write_burst"]["speedup"]["write_tput_x"] = 2.5
        assert vb.validate(cur) == []
        cur["ops"]["write_burst"]["speedup"] = {
            "write_tput_x": 1.0, "write_p99_drop_x": 5.0}
        assert vb.validate(cur) == []
