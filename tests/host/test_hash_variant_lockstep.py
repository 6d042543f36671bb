"""Cross-variant lockstep: the bucketed conflict table is a pure device
cost optimization, so an engine configured with it must be outwardly
indistinguishable from the linear one — the same answers (the
serving-contract machine's dict, :mod:`tests.integration.
test_serving_contract`), byte-identical layouts, the same behaviour
under fault injection and under hash-table-full recovery.  Only the
charged device costs may differ.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine
from repro.host.resilience import ResiliencePolicy
from repro.obs.metrics import MetricsRegistry
from tests.conftest import int_keys
from tests.integration.test_serving_contract import (
    MIX,
    drive,
    layout_bytes,
    random_steps,
)

STEPS = random_steps(11, 200, MIX)


class TestMixedStreamLockstep:
    def test_results_identical(self):
        drive(*STEPS, hash_table="bucketed")

    def test_accounting_identical(self):
        """Report tallies agree with the model over two shards too."""
        drive(*STEPS, hash_table="bucketed", devices=2)

    def test_layouts_byte_identical(self):
        linear, bucketed = (drive(*STEPS, hash_table=variant).engine
                            for variant in ("linear", "bucketed"))
        assert layout_bytes(linear) == layout_bytes(bucketed)


class TestFaultReplayLockstep:
    @pytest.mark.parametrize("variant", ["linear", "bucketed"])
    def test_faulty_run_matches_fault_free_oracle(self, variant):
        """Retries replay exactly once: the machine checks every answer
        and the serial engine's layout."""
        m = drive(*STEPS, hash_table=variant, faults=True)
        assert m.engine._injector.total_injected > 0


class TestHashGrowRecovery:
    @pytest.mark.parametrize("variant", ["linear", "bucketed"])
    def test_full_table_grows_and_batch_succeeds(self, variant):
        # 8 slots cannot dedup 500 distinct keys: the resilience layer
        # must x2-grow the table (same recovery path for both layouts)
        # until the batch fits, then serve it correctly
        metrics = MetricsRegistry()
        eng = CuartEngine(EngineConfig(
            hash_slots=8, hash_table=variant,
            resilience=ResiliencePolicy(), metrics=metrics,
        ))
        keys = int_keys(range(1, 501))
        eng.populate([(k, i) for i, k in enumerate(keys)])
        eng.map_to_device()
        res = eng.update([(k, 7_000 + i) for i, k in enumerate(keys)])
        assert res.found_array.all()
        assert eng.hash_slots >= 512
        assert metrics.value(
            "resilience_recoveries_total", kind="hash-grow"
        ) >= 1
        got = eng.lookup(keys)
        assert got.to_list() == [7_000 + i for i in range(len(keys))]


class TestConfigAndMetrics:
    def test_unknown_variant_rejected(self):
        with pytest.raises(SimulationError) as ei:
            EngineConfig(hash_table="quadratic")
        assert ei.value.context["value"] == "quadratic"
        with pytest.raises(SimulationError):
            CuartEngine(hash_table="quadratic")

    @pytest.mark.parametrize("variant", ["linear", "bucketed"])
    def test_hashtable_counters_exported(self, variant):
        metrics = MetricsRegistry()
        eng = CuartEngine(EngineConfig(
            hash_table=variant, metrics=metrics,
        ))
        keys = int_keys(range(1, 201))
        eng.populate([(k, i) for i, k in enumerate(keys)])
        eng.map_to_device()
        eng.update([(k, 1) for k in keys])
        for name in ("hashtable_transactions_total",
                     "hashtable_probe_groups_total",
                     "hashtable_probe_steps_total",
                     "hashtable_atomics_total"):
            assert metrics.value(name, variant=variant) > 0, name
        load = metrics.value("hashtable_load_factor", variant=variant)
        assert load["count"] >= 1
        assert 0.0 <= load["max"] <= 1.0

    def test_bucketed_exports_fewer_transactions(self):
        # same workload, both variants: the exported counter series
        # itself must show the coalescing win
        totals = {}
        for variant in ("linear", "bucketed"):
            metrics = MetricsRegistry()
            eng = CuartEngine(EngineConfig(
                hash_slots=256, hash_table=variant, metrics=metrics,
            ))
            keys = int_keys(range(1, 201))
            eng.populate([(k, i) for i, k in enumerate(keys)])
            eng.map_to_device()
            eng.update([(k, 9) for k in keys] * 8)  # duplicate-heavy
            totals[variant] = metrics.value(
                "hashtable_transactions_total", variant=variant
            )
        assert totals["bucketed"] < totals["linear"]
