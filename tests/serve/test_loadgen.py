"""The open-loop load generator's CLI, end to end on the virtual clock.

``benchmarks/loadgen.py`` walks a QPS ramp through one ``ServerCore``
and writes the serving record plus the flight recorder's black box.
perf_smoke's ``serving`` scenario gates the same ``run_ramp`` under the
bounds table; this test keeps the command-line door itself working.
"""

import json

import pytest

from benchmarks import loadgen


def test_two_step_ramp_writes_the_record_and_the_flight_dump(tmp_path,
                                                             capsys):
    out, dump = tmp_path / "serving.json", tmp_path / "flight.json"
    assert loadgen.main([
        "--out", str(out), "--qps-ramp", "50000,400000",
        "--ops-per-step", "1024", "--flight-dump", str(dump),
    ]) == 0
    printed = capsys.readouterr().out
    assert f"wrote {out}" in printed and f"wrote {dump}" in printed

    rec = json.loads(out.read_text())
    assert rec["meta"]["ramp_qps"] == [50_000, 400_000]
    steps = rec["steps"]
    assert [s["qps"] for s in steps] == [50_000, 400_000]
    for s in steps:
        assert s["offered"] == 1024
        assert s["admitted"] == s["offered"] - s["shed"]
        assert s["latency"]["count"] == s["admitted"]
    overall = rec["overall"]
    assert overall["offered"] == 2048
    assert overall["shed"] == sum(s["shed"] for s in steps)
    assert overall["latency"]["count"] == sum(s["admitted"] for s in steps)
    assert 0.0 <= overall["slo_attainment"] <= 1.0

    # the black box shares the virtual clock: sampled records with
    # their queue-wait attribution, dumped at the end of the run
    box = json.loads(dump.read_text())
    assert box["trigger"] == "end-of-run"
    assert box["context"]["ramp"] == [50_000, 400_000]
    assert box["records"]


def test_a_one_step_ramp_is_refused(tmp_path):
    with pytest.raises(SystemExit) as exc:
        loadgen.main(["--out", str(tmp_path / "x.json"),
                      "--qps-ramp", "50000"])
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()
