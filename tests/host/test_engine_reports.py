"""Tests for engine report contents and edge behaviours."""

import pytest

from repro.gpusim.devices import A100, GTX1070, SERVER_CPU
from repro.host.engine import CuartEngine, GrtEngine
from repro.workloads import random_keys


@pytest.fixture(scope="module")
def small_engine():
    keys = random_keys(500, 8, seed=111)
    eng = CuartEngine(batch_size=128, spare=0.25)
    eng.populate((k, i) for i, k in enumerate(keys))
    eng.map_to_device()
    return eng, keys


class TestReports:
    def test_report_str_is_informative(self, small_engine):
        eng, keys = small_engine
        eng.lookup(keys[:128])
        text = str(eng.last_report)
        assert "lookup" in text
        assert "MOps/s" in text
        assert "tx/query" in text

    def test_operations_labelled(self, small_engine):
        eng, keys = small_engine
        eng.lookup(keys[:10])
        assert eng.last_report.operation == "lookup"
        eng.update([(keys[0], 5)])
        assert eng.last_report.operation == "update"
        eng.delete([keys[1]])
        assert eng.last_report.operation == "delete"
        eng.insert([(b"\xfa" * 8, 1)])
        assert eng.last_report.operation == "insert"
        eng.range(keys[0], keys[0])
        assert eng.last_report.operation == "range"
        eng.prefix(keys[0][:1])
        assert eng.last_report.operation == "prefix"

    def test_batch_count(self, small_engine):
        eng, keys = small_engine
        eng.lookup(keys[:300])
        assert eng.last_report.batches == 3  # 300 / 128 -> 3 batches

    def test_kernel_and_pipeline_rates_positive(self, small_engine):
        eng, keys = small_engine
        eng.lookup(keys[:128])
        rep = eng.last_report
        assert rep.kernel_mops > 0
        assert rep.end_to_end_mops > 0
        assert rep.kernel_s_per_batch > 0
        assert rep.bytes_per_query > 0

    def test_binding_constraint_is_valid(self, small_engine):
        eng, keys = small_engine
        eng.lookup(keys[:128])
        assert eng.last_report.binding_constraint in (
            "memory-command", "latency-chain", "compute",
        )
        assert eng.last_report.pipeline_bottleneck in (
            "host", "pcie", "kernel", "thread-cycle",
        )


class TestDeviceSelection:
    def test_different_devices_different_rates(self):
        keys = random_keys(3000, 16, seed=112)
        rates = {}
        for dev in (A100, GTX1070):
            eng = CuartEngine(batch_size=1024, device=dev, cpu=SERVER_CPU)
            eng.populate((k, i) for i, k in enumerate(keys))
            eng.map_to_device()
            eng.lookup(keys[:1024])
            rates[dev.name] = eng.last_report.kernel_mops
        assert rates[A100.name] > rates[GTX1070.name]

    def test_grt_engine_reports_sync_bottlenecks(self):
        keys = random_keys(500, 8, seed=113)
        eng = GrtEngine(batch_size=128)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        eng.lookup(keys[:128])
        assert eng.last_report.pipeline_bottleneck in (
            "thread-cycle", "pcie", "kernel",
        )


class TestEmptyInputs:
    def test_empty_lookup(self, small_engine):
        eng, _ = small_engine
        assert eng.lookup([]) == []

    def test_empty_update(self, small_engine):
        eng, _ = small_engine
        assert eng.update([]) == []

    def test_empty_delete(self, small_engine):
        eng, _ = small_engine
        assert eng.delete([]) == []


class TestEnginePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.host.engine import CuartEngine

        keys = random_keys(700, 8, seed=141)
        eng = CuartEngine(batch_size=256, spare=0.25)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        eng.update([(keys[0], 999)])
        eng.delete([keys[1]])
        path = tmp_path / "engine.npz"
        eng.save(path)

        loaded = CuartEngine.load(path, batch_size=256)
        assert len(loaded) == len(keys) - 1  # the deleted key is gone
        assert loaded.lookup([keys[0], keys[1], keys[2]]) == [999, None, 2]

    def test_loaded_engine_fully_operational(self, tmp_path):
        from repro.host.engine import CuartEngine

        keys = random_keys(400, 8, seed=142)
        eng = CuartEngine(batch_size=128, spare=0.5)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        path = tmp_path / "ops.npz"
        eng.save(path)

        loaded = CuartEngine.load(path, batch_size=128, spare=0.5)
        # every operation class works on the loaded engine
        loaded.update([(keys[3], 7)])
        loaded.delete([keys[4]])
        loaded.insert([(b"\xf9" * 8, 11)])
        ordered = sorted(keys)
        got = loaded.range(ordered[0], ordered[10])
        assert len(got) >= 10
        assert loaded.lookup([keys[3], keys[4], b"\xf9" * 8]) == [7, None, 11]
        # and a re-map from the reconstructed tree stays consistent
        loaded.map_to_device()
        assert loaded.lookup([keys[3], b"\xf9" * 8]) == [7, 11]

    def test_load_builds_the_root_table_from_the_buffers(self, tmp_path):
        keys = random_keys(600, 8, seed=143)
        eng = CuartEngine(batch_size=256, root_table_depth=2)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        path = tmp_path / "table.npz"
        eng.save(path)

        loaded = CuartEngine.load(path, batch_size=256, root_table_depth=2)
        assert (loaded.root_table.links == eng.root_table.links).all()
        assert (loaded.root_table.depths == eng.root_table.depths).all()
        probe = keys[::7] + [b"\xfe" * 8]
        assert loaded.lookup(probe) == eng.lookup(probe)
        # both lookups dispatched through their tables
        assert (loaded.last_report.transactions_per_query
                == eng.last_report.transactions_per_query)
