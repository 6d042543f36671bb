"""Self-checks of the benchmark, on shrunken copies of its workloads.

Run from the repository root::

    python3 -m pytest perfbench

Every simulated or virtual-clock metric and every per-layer count must be
bit-identical between two runs at one seed; wall-clock metrics are
exempt.  A second seed must run clean too.
"""

import json
import os
import subprocess
import sys

import pytest

import run

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402

#: per-layer metrics measured on the host wall clock (exempt from the
#: bit-identity check).
WALL = ("self_s", "bench.host_kops", "bench.unattributed_s",
        "bench.traced_wall_s", "bench.trace_overhead_frac")
SIMULATED_E2E = ("sim_mops", "read_p50_us", "read_p99_us",
                 "device_bytes_per_key")


def tiny(name, seed):
    return run.measure(name, seed, 0.0, size="tiny", trace=True)


def tiny_in_process(name, seed, hash_seed):
    """One shrunken traced run in a fresh interpreter: string and bytes
    hashing differs between processes, so set or dict order that leaks
    into batching shows up here and not within one process."""
    code = (
        "import json, run; run.import_program(); "
        f"r = run.measure({name!r}, {seed}, 0.0, size='tiny', trace=True); "
        "print(json.dumps({k: r[k] for k in ('e2e', 'exact', 'layers')}))"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=run.HERE, env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_is_bit_identical(name):
    a, b = tiny_in_process(name, 3, 1), tiny_in_process(name, 3, 2)
    for metric in SIMULATED_E2E:
        assert a["e2e"][metric] == b["e2e"][metric], metric
    assert a["exact"] == b["exact"]
    counts = [m for m in a["layers"] if not m.endswith(WALL)]
    assert counts
    for metric in counts:
        assert a["layers"][metric] == b["layers"][metric], metric


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_runs_clean(name, tmp_path):
    res = run.measure(name, 4, 0.0, size="tiny", trace=True,
                      spans_dir=str(tmp_path))
    assert res["exact"]["failed"] == 0
    assert res["e2e"]["host_kops"] > 0
    # one read-latency sample per timed lookup (open loop) or request
    # (closed loop)
    w = workloads.WORKLOADS[name](4, workloads.SIZES[name]["tiny"])
    w.generate()
    if w.latency_samples == "requests":
        expected = w.size.get("batches", w.size.get("requests"))
    else:
        expected = sum(kind == "lookup"
                       for kind in w.kinds[w.size["warm_ops"]:])
    assert res["exact"]["read_samples"] == expected
    # every span ends after it starts, inside its parent, in its request
    with open(tmp_path / f"spans-{name}-seed4.json") as fh:
        spans = json.load(fh)["spans"]
    assert spans
    for layer, start, end, parent, request in spans:
        assert start <= end, layer
        if parent >= 0:
            _, p_start, p_end, _, p_request = spans[parent]
            assert p_start <= start and end <= p_end, layer
            assert request == p_request, layer


def test_tracer_restores_every_target():
    tiny("serve_write_zipf", 5)
    for _, module, attr, _ in layers.TARGETS:
        owner, name, fn, _ = layers._resolve(module, attr)
        assert not hasattr(fn, "__wrapped__"), f"{module}:{attr}"


def test_wrong_answer_names_workload_and_op():
    w = workloads.LookupUniform(1, workloads.SIZES["lookup_uniform"]["tiny"])
    w.generate()
    w.expected[1][5] += 1
    with pytest.raises(workloads.OracleError,
                       match=r"lookup_uniform: op 261 \(lookup"):
        run.run_round(w)


def test_missing_wrap_target_is_named(monkeypatch):
    bogus = ("host.engine", "repro.host.engine", "CuartEngine.no_such", {})
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (bogus,))
    with pytest.raises(layers.TraceError,
                       match="repro.host.engine.CuartEngine.no_such"):
        layers.LayerTracer().__enter__()


def test_target_that_never_fires_is_named(monkeypatch):
    # coalesce_encoded fires on every batch, OpClassCoalescer.add never
    # on lookup_uniform: one silent target in a busy layer still fails
    monkeypatch.setattr(workloads.LookupUniform, "required_targets",
                        ("coalesce_encoded", "OpClassCoalescer.add"))
    with pytest.raises(layers.TraceError,
                       match="wrap target repro.host.batching:"
                             "OpClassCoalescer.add never fired"):
        tiny("lookup_uniform", 6)
