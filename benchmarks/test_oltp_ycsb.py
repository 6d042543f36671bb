"""OLTP benches: YCSB-profile streams through the CuART engine.

Section 3.1's motivating scenario ("mixed read/write workloads such as
typical OLTP benchmarks") quantified: each profile's simulated rate
(operations over the stream scheduler's makespan) plus the measured
wall time of the full executor.
"""

import pytest

from repro.bench.report import format_table
from repro.host.engine import CuartEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.workloads.ycsb import ycsb_keyspace, ycsb_stream

N_RECORDS = 20_000
N_OPS = 4_000


def fresh_engine():
    eng = CuartEngine(batch_size=1024, spare=0.5, root_table_depth=2)
    eng.populate((k, i) for i, k in enumerate(ycsb_keyspace(N_RECORDS)))
    eng.map_to_device()
    return eng


@pytest.mark.parametrize("profile", ["A", "B", "C", "F"])
def test_ycsb_profile(benchmark, profile):
    stream = ycsb_stream(profile, N_RECORDS, N_OPS, seed=2026)

    def run():
        eng = fresh_engine()
        return MixedWorkloadExecutor(eng).run(stream)

    _, report = benchmark.pedantic(run, rounds=1, iterations=1)
    so = report.stream_overlap
    rows = [(profile, so["batches"], round(so["makespan_s"] * 1e6, 1),
             round(report.operations / so["makespan_s"] / 1e6, 1))]
    print(f"\nYCSB-{profile}: {report.operations} ops "
          f"({report.lookups} r / {report.updates} u)")
    print(format_table(["profile", "launches", "makespan us", "sim MOps/s"],
                       rows))
    assert report.operations == len(stream)
    assert report.misses == 0


def test_ycsb_e_scans(benchmark):
    stream = ycsb_stream("E", N_RECORDS, 600, seed=2027)

    def run():
        eng = fresh_engine()
        return MixedWorkloadExecutor(eng).run(stream)

    _, report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nYCSB-E: {report.scans} scans touched "
          f"{report.records_scanned} records, "
          f"{report.inserts} inserts ({report.inserts_deferred} deferred)")
    assert report.records_scanned > 0
