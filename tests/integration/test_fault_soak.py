"""Lockstep fault-injection soak (the PR-4 acceptance oracle).

Two identical seeded mixed-workload runs — one against a device that
injects transient faults on ~1% of guarded events, one fault-free — must
produce the same query results and converge to *byte-identical* mapped
layouts.  This is the strongest statement the resilience layer can make:
every retry replayed exactly-once, every degraded write was reconciled,
no fault leaked into the data.  The write-absorption scenarios and the
fused write launches under faults follow.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.faults import FaultConfig
from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.resilience import ResiliencePolicy, RetryPolicy
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import dense_keys
from tests.integration.test_serving_contract import (
    ABSENT,
    MIX,
    PRESENT,
    ServingContract,
    drive,
    random_steps,
)

N_OPS = 50_000
N_KEYS = 2_000
FAULT_RATE = 0.01


def _run(faults, resilience):
    keys = dense_keys(N_KEYS)
    eng = CuartEngine(EngineConfig(
        batch_size=256, faults=faults, resilience=resilience,
    ))
    eng.populate([(k, i) for i, k in enumerate(keys)])
    eng.map_to_device()
    stream = mixed_queries(keys, N_OPS, QueryMix(), seed=7)
    results, report = MixedWorkloadExecutor(eng).run(stream)
    return eng, results, report


@pytest.fixture(scope="module")
def soak():
    faulty = _run(
        FaultConfig.uniform(FAULT_RATE, seed=1234), ResiliencePolicy()
    )
    oracle = _run(None, None)
    return faulty, oracle


def test_soak_completes_without_failed_ops(soak):
    (eng, _, report), _ = soak
    assert report.operations == N_OPS
    assert report.ops_by_status.get("FAILED", 0) == 0
    # the injector actually fired — otherwise this test proves nothing
    assert eng._injector.total_injected > 0
    # and the resilience layer actually worked for it
    assert report.ops_by_status.get("RETRIED", 0) > 0


def test_soak_results_match_fault_free_oracle(soak):
    (_, faulty_results, _), (_, oracle_results, _) = soak
    assert len(faulty_results) == len(oracle_results)
    assert faulty_results == oracle_results


def test_soak_hit_accounting_matches_oracle(soak):
    (_, _, faulty), (_, _, oracle) = soak
    assert faulty.hits == oracle.hits
    assert faulty.misses == oracle.misses
    assert faulty.update_misses == oracle.update_misses
    assert faulty.delete_misses == oracle.delete_misses


def test_soak_tree_is_byte_identical_to_oracle(soak, tmp_path):
    (faulty_eng, _, _), (oracle_eng, _, _) = soak
    assert len(faulty_eng.tree) == len(oracle_eng.tree)
    assert list(faulty_eng.tree.items()) == list(oracle_eng.tree.items())
    # strongest form: re-map both trees and compare the serialized
    # device buffers array for array
    faulty_eng.map_to_device()
    oracle_eng.map_to_device()
    fp, op = tmp_path / "faulty.npz", tmp_path / "oracle.npz"
    faulty_eng.save(fp)
    oracle_eng.save(op)
    with np.load(fp) as fz, np.load(op) as oz:
        assert sorted(fz.files) == sorted(oz.files)
        for name in fz.files:
            assert np.array_equal(fz[name], oz[name]), name


def test_soak_is_deterministic():
    """Same seeds -> same injected-fault schedule and same statuses."""
    a_eng, _, a_rep = _run(
        FaultConfig.uniform(FAULT_RATE, seed=99), ResiliencePolicy()
    )
    b_eng, _, b_rep = _run(
        FaultConfig.uniform(FAULT_RATE, seed=99), ResiliencePolicy()
    )
    assert a_eng._injector.snapshot() == b_eng._injector.snapshot()
    assert a_rep.ops_by_status == b_rep.ops_by_status


# -- write absorption under faults: fixed scenarios of the serving-
# contract machine (tests/integration/test_serving_contract.py)


def test_memtable_soak_matches_fault_free_oracle():
    """The absorb/fold/compact path under 2% injected faults answers
    as the model does, op by op, and installs the model's content."""
    m = drive(*random_steps(21, 300, MIX), memtable=True, faults=True)
    assert m.engine._injector.total_injected > 0


def test_open_circuit_write_burst_replays_exactly_once():
    """While the circuit is open a write burst absorbs at host speed and
    compaction waits (the debt is the replay log); when it closes, the
    next trigger drains the whole debt exactly once."""
    m = ServingContract()
    m.setup(memtable=True)
    m.circuit(0, True)
    for k in PRESENT[:40]:
        m.update(k)
    m.delete(PRESENT[40])
    mt = m.core.memtable
    assert mt.debt > mt.config.max_debt
    assert mt.compactions == 0 and mt.dispatched_rows == 0
    # the delta answers keys it holds at once; a device key queues
    ops = [m.offer("lookup", k) for k in PRESENT[:1] + PRESENT[40:42]]
    assert [op.done for op in ops] == [True, True, False]
    m.answers_match_the_model()
    m.open_circuits_hold_compaction()
    m.circuit(0, False)
    m.update(PRESENT[0])
    assert mt.compactions == 1 and mt.debt == 0
    m.teardown()


def test_open_circuit_burst_through_executor():
    """A 90%-write burst on an open circuit: every debt-triggered
    compaction waits, and only the end-of-run drain installs."""
    m = drive(("circuit", 0, True),
              *random_steps(33, 150, ("update",) * 9 + ("lookup",)),
              memtable=True)
    rep = m.core.report
    assert rep.compactions == 1
    assert sum(rep.absorbed.values()) > 0


def test_scans_answer_while_the_device_is_behind():
    """A write the CPU served leaves the device behind until the circuit
    closes; range and prefix answer from the host tree meanwhile and
    charge no launch."""
    keys = [b"k%03d" % i for i in range(40)]
    eng = CuartEngine(batch_size=16, resilience=ResiliencePolicy())
    eng.populate((k, i + 1) for i, k in enumerate(keys))
    eng.map_to_device()
    health = eng.device_health
    for _ in range(health.unhealthy_after):
        health.mark_failure()
    health.degraded_calls = 1  # the next call is not a probe
    assert eng.delete([keys[1]]).counts_by_status() == {"DEGRADED_CPU": 1}
    report = eng.last_report
    assert eng.range(keys[0], keys[3]) == [(keys[0], 1), (keys[2], 3),
                                           (keys[3], 4)]
    assert eng.prefix(b"k00") == [(k, i + 1) for i, k in enumerate(keys[:10])
                                  if i != 1]
    assert eng.last_report is report


@pytest.mark.parametrize("key", PRESENT[:6] + ABSENT[:4],
                         ids=lambda k: k[2:].decode())
def test_scan_after_a_degraded_delete(key):
    drive(("hot_burst", key), ("insert", key), ("circuit", 0, True),
          ("flush",), ("delete", key), ("circuit", 0, True),
          ("scan", key, key), devices=1, faults=True)


# -- fused write launches under faults ---------------------------------


def _write_batches(keys, seed, n_batches=40):
    """Write batches that each carry same-key update→delete pairs next
    to plain updates and deletes (the coalescer's write-class shape:
    nothing follows a delete of its key inside one batch)."""
    rng = np.random.default_rng(seed)
    live = list(keys)
    batches = []
    for b in range(n_batches):
        picks = rng.choice(len(live), size=12, replace=False)
        ks = [live[i] for i in picks]
        rows = [(ks[0], 10 * b), (ks[1], 10 * b + 1), (ks[0], 10 * b + 2),
                (ks[2], None), (ks[0], None), (ks[3], 10 * b + 3)]
        rows += [(k, 10 * b + 4) for k in ks[4:8]]
        rows += [(ks[8], 10 * b + 5), (ks[8], None)]
        batches.append(rows)
        gone = {ks[0], ks[2], ks[8]}
        live = [k for k in live if k not in gone]
    return batches


def test_fused_write_launch_fires_fault_hooks_once():
    """A mixed write batch is one launch: each fault hook fires once,
    before either stage touches the layout."""
    keys = dense_keys(256)
    eng = CuartEngine(EngineConfig(batch_size=64))
    eng.populate([(k, i) for i, k in enumerate(keys)])
    eng.map_to_device()
    calls = []
    layout = eng.layout
    mutations = layout.device_mutations

    class Recorder:
        # every hook also checks that no stage has written yet
        def on_kernel_launch(self, op, batch_size):
            calls.append(("kernel", op, batch_size,
                          layout.device_mutations == mutations))

        def on_transfer(self, nbytes, *, direction, op=None):
            calls.append((direction, op, nbytes,
                          layout.device_mutations == mutations))

        def on_hashtable(self, op, n_keys):
            calls.append(("hashtable", op, n_keys,
                          layout.device_mutations == mutations))

    eng._injector = Recorder()
    rows = _write_batches(keys, seed=5, n_batches=1)[0]
    eng.write(rows)
    assert layout.device_mutations > mutations
    n = len(rows)
    key_bytes = n * max(len(k) for k, _ in rows)
    assert calls == [
        ("h2d", "write", key_bytes + 8 * n, True),
        ("d2h", "write", 8 * n, True),
        ("kernel", "write", n, True),
        ("hashtable", "write", n, True),
    ]
    # a delete-only write batch carries no value words
    calls.clear()
    mutations = layout.device_mutations
    gone = [(k, None) for k in keys[200:210]]
    eng.write(gone)
    assert calls[0] == ("h2d", "delete", 10 * len(keys[200]), True)


def test_stage0_lookups_share_the_write_launch_fault_hooks():
    """Lookup rows riding a write launch as stage 0 add no hook of
    their own: their keys ride its one H2D transfer, their result words
    its one D2H transfer, and the one kernel gate covers every row."""
    keys = dense_keys(256)
    eng = CuartEngine(EngineConfig(batch_size=64))
    eng.populate([(k, i) for i, k in enumerate(keys)])
    eng.map_to_device()
    calls = []

    class Recorder:
        def on_kernel_launch(self, op, batch_size):
            calls.append(("kernel", op, batch_size))

        def on_transfer(self, nbytes, *, direction, op=None):
            calls.append((direction, op, nbytes))

        def on_hashtable(self, op, n_keys):
            calls.append(("hashtable", op, n_keys))

    eng._injector = Recorder()
    rows = _write_batches(keys, seed=5, n_batches=1)[0]
    lookups = [k for k, _ in rows[:6]] + keys[100:118]
    eng.submit("write", rows, lookups=lookups)
    n, m = len(rows), len(lookups)
    key_bytes = (n + m) * len(keys[0])
    assert calls == [
        ("h2d", "write", key_bytes + 8 * n),
        ("d2h", "write", 8 * (n + m)),
        ("kernel", "write", n + m),
        ("hashtable", "write", n),
    ]


def test_fused_write_faults_replay_exactly_once(tmp_path):
    """Faults injected on write batches carrying same-key update→delete
    pairs are retried until the launch runs clean: per-row results,
    the serialized layout and the free-list depth equal a fault-free
    run's byte for byte."""
    keys = dense_keys(600)
    batches = _write_batches(keys, seed=11)

    def run(faults, resilience):
        eng = CuartEngine(EngineConfig(
            batch_size=64, faults=faults, resilience=resilience,
        ))
        eng.populate([(k, i) for i, k in enumerate(keys)])
        eng.map_to_device()
        return eng, [eng.write(rows) for rows in batches]

    faulty, f_res = run(
        FaultConfig.uniform(0.1, seed=77, oom_rate=0.0),
        ResiliencePolicy(retry=RetryPolicy(max_attempts=12)),
    )
    oracle, o_res = run(None, None)
    assert faulty._injector.total_injected > 0
    statuses = {}
    for r in f_res:
        for name, c in r.counts_by_status().items():
            statuses[name] = statuses.get(name, 0) + c
    assert statuses.get("RETRIED", 0) > 0
    assert statuses.get("DEGRADED_CPU", 0) == 0
    assert statuses.get("FAILED", 0) == 0
    assert [r.found_array.tolist() for r in f_res] == [
        r.found_array.tolist() for r in o_res
    ]
    assert faulty.layout.free_leaves == oracle.layout.free_leaves
    assert sum(map(len, faulty.layout.free_leaves.values())) > 0
    fp, op = tmp_path / "faulty.npz", tmp_path / "oracle.npz"
    faulty.save(fp)
    oracle.save(op)
    with np.load(fp) as fz, np.load(op) as oz:
        assert sorted(fz.files) == sorted(oz.files)
        for name in fz.files:
            assert np.array_equal(fz[name], oz[name]), name
