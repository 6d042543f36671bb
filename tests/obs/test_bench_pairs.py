"""scripts/bench_pairs.py summary tests on canned perfbench records."""

import importlib.util
import json
import pathlib

import pytest

_SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"
_REPO = _SCRIPTS.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name.replace(".py", ""), _SCRIPTS / name
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bp = _load("bench_pairs.py")

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "sim_mops", "unit": "Mops/s", "better": "higher"},
]}


def _rec(pair, side, setup_s, sim_mops, failed=0, attempted=100):
    return {"pair": pair, "side": side, "attempted": attempted,
            "failed": failed,
            "metrics": {"setup_s": setup_s, "sim_mops": sim_mops}}


def _records(parent_setup, change_setup, sim=(5.0, 5.0)):
    out = []
    for i, (p, c) in enumerate(zip(parent_setup, change_setup), start=1):
        out += [_rec(i, "parent", p, sim[0]), _rec(i, "change", c, sim[1])]
    return out


def _row(summary, name):
    (row,) = [r for r in summary["rows"] if r["metric"] == name]
    return row


class TestSummarize:
    def test_lower_is_better_wins_and_quartiles(self):
        parent = [1.0, 1.1, 1.2, 1.3, 1.4]
        change = [0.6, 0.7, 1.25, 0.5, 0.4]  # pair 3 is the parent's
        row = _row(bp.summarize(_records(parent, change), SPEC), "setup_s")
        assert row["parent_median"] == pytest.approx(1.2)
        assert (row["parent_q1"], row["parent_q3"]) == pytest.approx((1.1, 1.3))
        assert row["change_median"] == pytest.approx(0.6)
        assert row["delta_pct"] == pytest.approx(-50.0)
        assert (row["wins"], row["pairs"]) == (4, 5)
        assert row["beyond_iqr"]

    def test_higher_is_better_direction_read_from_spec(self):
        recs = _records([1.0] * 4, [1.0] * 4, sim=(5.0, 6.0))
        row = _row(bp.summarize(recs, SPEC), "sim_mops")
        assert row["wins"] == 4
        assert row["delta_pct"] == pytest.approx(20.0)

    def test_ties_count_for_neither_side(self):
        recs = _records([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        s = bp.summarize(recs, SPEC)
        assert _row(s, "setup_s")["wins"] == 0
        assert _row(s, "sim_mops")["wins"] == 0
        assert not _row(s, "setup_s")["beyond_iqr"]

    def test_shift_inside_parent_spread_is_not_beyond_iqr(self):
        parent = [1.0, 1.5, 2.0, 2.5, 3.0]
        change = [0.9, 1.4, 1.9, 2.4, 2.9]
        row = _row(bp.summarize(_records(parent, change), SPEC), "setup_s")
        assert row["wins"] == 5
        assert not row["beyond_iqr"]

    def test_paired_deltas_read_a_shift_the_seed_spread_hides(self):
        """+2% at every pair over a ±10% spread between seeds: every
        pair won, inside the parent's quartiles, +2% in every pair."""
        parent = [9.0, 9.5, 10.0, 10.5, 11.0]
        recs = []
        for i, p in enumerate(parent, start=1):
            recs += [_rec(i, "parent", 1.0, p),
                     _rec(i, "change", 1.0, p * 1.02)]
        summary = bp.summarize(recs, SPEC)
        row = _row(summary, "sim_mops")
        assert (row["wins"], row["pairs"]) == (5, 5)
        assert not row["beyond_iqr"]
        assert (row["pair_delta_min"], row["pair_delta_max"]) == \
            pytest.approx((2.0, 2.0))
        assert "[+2.00%, +2.00%]" in bp.render(summary, "w")

    def test_unpaired_run_is_left_out(self):
        recs = _records([1.0, 1.0], [0.5, 0.5]) + [_rec(3, "parent", 9.0, 5.0)]
        row = _row(bp.summarize(recs, SPEC), "setup_s")
        assert row["pairs"] == 2
        assert row["parent_median"] == 1.0

    def test_failed_and_attempted_ops_per_side(self):
        recs = [_rec(1, "parent", 1.0, 5.0, failed=2, attempted=50),
                _rec(1, "change", 1.0, 5.0, failed=0, attempted=60),
                _rec(2, "parent", 1.0, 5.0, failed=1, attempted=50),
                _rec(2, "change", 1.0, 5.0, failed=3, attempted=60)]
        ops = bp.summarize(recs, SPEC)["ops"]
        assert ops["parent"] == {"failed": 3, "attempted": 100}
        assert ops["change"] == {"failed": 3, "attempted": 120}

    def test_every_benchmark_metric_gets_a_row(self):
        spec = json.loads((_REPO / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"]]
        rec = {n: 1.0 for n in names}
        recs = [{"pair": 1, "side": s, "attempted": 1, "failed": 0,
                 "metrics": rec} for s in bp.SIDES]
        summary = bp.summarize(recs, spec)
        assert [r["metric"] for r in summary["rows"]] == names
        text = bp.render(summary, "lookup_uniform")
        assert all(n in text for n in names)
        assert "parent: 0/1 ops failed" in text


class TestPairOrder:
    def test_sides_alternate_and_seed_is_pair(self, monkeypatch):
        calls = []

        def fake_run(checkout, command, workload, seed, seconds):
            calls.append((checkout, seed))
            return {"attempted": 1, "failed": 0,
                    "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}

        monkeypatch.setattr(bp, "run_once", fake_run)
        recs = bp.run_pairs("P", "C", "w", 3, 1.0, ["python3", "run.py"])
        assert calls == [("P", 1), ("C", 1), ("C", 2), ("P", 2),
                         ("P", 3), ("C", 3)]
        assert [(r["pair"], r["side"]) for r in recs] == [
            (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
            (3, "parent"), (3, "change")]

    def test_run_length_is_the_benchmarks(self, monkeypatch, capsys):
        spec = json.loads((_REPO / "BENCHMARK.json").read_text())
        seconds = []

        def fake_run(checkout, command, workload, seed, secs):
            seconds.append(secs)
            return {"attempted": 1, "failed": 0,
                    "metrics": {m["name"]: {"value": 1.0}
                                for m in spec["end_to_end"]}}

        monkeypatch.setattr(bp, "run_once", fake_run)
        assert bp.main(["P", str(_REPO), "--workload", "w", "--pairs", "2"]) == 0
        assert seconds == [spec["run_seconds"]] * 4
        assert "# w" in capsys.readouterr().out


class TestWorkloads:
    @staticmethod
    def fake(monkeypatch, spec):
        seen = []

        def fake_run(checkout, command, workload, seed, secs):
            seen.append(workload)
            return {"attempted": 1, "failed": 0,
                    "metrics": {m["name"]: {"value": 1.0}
                                for m in spec["end_to_end"]}}

        monkeypatch.setattr(bp, "run_once", fake_run)
        return seen

    @staticmethod
    def tables(out: str) -> list:
        return [line for line in out.splitlines() if line.startswith("# ")]

    def test_default_is_every_benchmark_workload(self, monkeypatch, capsys):
        spec = json.loads((_REPO / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        seen = self.fake(monkeypatch, spec)
        assert bp.main(["P", str(_REPO), "--pairs", "1"]) == 0
        assert seen == [n for n in names for _ in bp.SIDES]
        assert self.tables(capsys.readouterr().out) == [
            f"# {n}" for n in names]

    def test_several_workloads_get_one_table_each(self, monkeypatch, capsys):
        spec = json.loads((_REPO / "BENCHMARK.json").read_text())
        seen = self.fake(monkeypatch, spec)
        argv = ["P", str(_REPO), "--workload", "a", "b", "--workload", "c",
                "--pairs", "2"]
        assert bp.main(argv) == 0
        assert seen == ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        out = capsys.readouterr()
        assert self.tables(out.out) == ["# a", "# b", "# c"]
        records = [json.loads(line) for line in out.err.splitlines()]
        assert [r["workload"] for r in records] == seen
