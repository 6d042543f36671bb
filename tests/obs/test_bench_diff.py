"""scripts/bench_diff.py stage-attribution tests, including the
acceptance criterion: diffing the committed BENCH_pr5 / BENCH_pr6 pair
must attribute the dedup-table transaction drop to the kernel /
hash-table stage."""

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


bd = _load("bench_diff.py")


def _bench(name):
    return json.loads((_REPO / name).read_text())


class TestCommittedPairs:
    def test_pr5_pr6_attributes_hashtable_drop(self):
        """The known PR 6 change — the bucketed conflict table cutting
        dedup-table transactions ~5x — must surface as a kernel /
        hash-table stage finding."""
        diff = bd.diff_docs(_bench("BENCH_pr5.json"),
                            _bench("BENCH_pr6.json"))
        ht = [f for f in diff["findings"]
              if f["stage"] == "kernel/hash-table"]
        assert ht, f"no kernel/hash-table finding in {diff['findings']}"
        f = ht[0]
        assert f["op"] == "update_high_conflict"
        assert f["severity"] == "improvement"
        assert "5.04" in f["summary"] or "transactions" in f["summary"]

    def test_pr5_pr6_reverse_is_regression(self):
        diff = bd.diff_docs(_bench("BENCH_pr6.json"),
                            _bench("BENCH_pr5.json"))
        ht = [f for f in diff["findings"]
              if f["stage"] == "kernel/hash-table"]
        assert ht and ht[0]["severity"] == "regression"

    def test_pr7_pr8_quiet(self):
        """An additive-only PR must produce no regressed ops."""
        diff = bd.diff_docs(_bench("BENCH_pr7.json"),
                            _bench("BENCH_pr8.json"))
        assert diff["regressed_ops"] == []


class TestDiffMechanics:
    def _doc(self, mixed_wall=0.1, **mixed_extra):
        return {
            "meta": {"label": "t"},
            "ops": {
                "mixed": {"wall_s": mixed_wall, "keys_per_sec": 1000.0,
                          "n": 100, **mixed_extra},
            },
            "headline": {},
        }

    def test_threshold_splits_verdicts(self):
        base, cand = self._doc(0.100), self._doc(0.120)
        diff = bd.diff_docs(base, cand, threshold=0.05)
        (row,) = [r for r in diff["ops"] if r["op"] == "mixed"]
        assert row["verdict"] == "slower"
        assert diff["regressed_ops"] == ["mixed"]
        assert bd.diff_docs(base, cand, threshold=0.5)["regressed_ops"] == []

    def test_op_only_in_one_side_reported(self):
        base = self._doc()
        cand = self._doc()
        cand["ops"]["scan"] = {"wall_s": 0.2, "keys_per_sec": 1.0, "n": 2}
        rows = {r["op"]: r for r in bd.diff_docs(base, cand)["ops"]}
        assert rows["scan"]["verdict"] == "new"

    def test_critical_path_stage_shift_found(self):
        cp_base = {"bottleneck": "kernel",
                   "stage_s": {"h2d": 0.1, "kernel": 0.5, "d2h": 0.1}}
        cp_cand = {"bottleneck": "h2d",
                   "stage_s": {"h2d": 0.6, "kernel": 0.5, "d2h": 0.1}}
        base = self._doc(critical_path=cp_base,
                         stream_overlap={"makespan_s": 0.7})
        cand = self._doc(critical_path=cp_cand,
                         stream_overlap={"makespan_s": 1.2})
        diff = bd.diff_docs(base, cand)
        stages = {f["stage"] for f in diff["findings"]}
        assert "pcie-h2d" in stages
        assert any("bottleneck" in f["summary"] for f in diff["findings"])

    def test_render_text_smoke(self):
        out = bd.render_text(
            bd.diff_docs(_bench("BENCH_pr5.json"), _bench("BENCH_pr6.json"))
        )
        assert "stage attribution" in out
        assert "update_high_conflict" in out

    def test_cli_exit_codes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(self._doc(0.1)))
        b.write_text(json.dumps(self._doc(0.5)))
        assert bd.main([str(a), str(b)]) == 0
        assert bd.main([str(a), str(b), "--fail-on-regression"]) == 1
        out = capsys.readouterr().out
        assert "slower" in out

    def test_cli_json_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(self._doc(0.1)))
        assert bd.main([str(a), str(a), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressed_ops"] == []


class TestValidateBenchHook:
    def test_failure_path_prints_attribution(self, tmp_path, capsys):
        """A validate_bench --baseline failure prints the bench_diff
        attribution table before the INVALID verdict: here the bucketed
        table's transactions regress to linear probing's."""
        vb = _load("validate_bench.py")
        cand = _bench("BENCH_pr15.json")
        ht = cand["ops"]["update_high_conflict"]["hashtable"]
        ht["bucketed"]["transactions"] = ht["linear"]["transactions"]
        ht["tx_ratio"] = 1.0
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(cand))
        rc = vb.main([str(path), "--baseline",
                      str(_REPO / "BENCH_pr15.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ops.update_high_conflict.hashtable.tx_ratio: 1.0 fails" in err
        assert "stage attribution" in err
        assert "kernel/hash-table" in err
        assert "INVALID" in err.rstrip().splitlines()[-1]
