"""Integration tests: the end-to-end engines against a dict oracle."""

import numpy as np
import pytest

from repro.cuart.layout import LongKeyStrategy
from repro.errors import ReproError
from repro.host.engine import CuartEngine, GrtEngine, require_serving_engine
from repro.workloads import lookup_queries, random_keys, update_queries


@pytest.fixture(scope="module")
def workload():
    keys = random_keys(1500, 12, seed=77)
    oracle = {k: i for i, k in enumerate(keys)}
    return keys, oracle


def build_cuart(keys, **kw):
    eng = CuartEngine(batch_size=512, **kw)
    eng.populate((k, i) for i, k in enumerate(keys))
    eng.map_to_device()
    return eng


class TestCuartEngine:
    def test_lookup_oracle(self, workload):
        keys, oracle = workload
        eng = build_cuart(keys)
        queries = lookup_queries(keys, 800, hit_rate=0.8, seed=5)
        got = eng.lookup(queries)
        assert got == [oracle.get(q) for q in queries]

    def test_lookup_before_map_raises(self, workload):
        keys, _ = workload
        eng = CuartEngine(batch_size=512)
        eng.populate([(keys[0], 0)])
        with pytest.raises(ReproError):
            eng.lookup([keys[0]])

    def test_report_populated(self, workload):
        keys, _ = workload
        eng = build_cuart(keys)
        eng.lookup(keys[:600])
        rep = eng.last_report
        assert rep.operation == "lookup"
        assert rep.queries == 600
        assert rep.batches == 2
        assert rep.end_to_end_mops > 0
        assert rep.kernel_mops > 0
        assert rep.transactions_per_query > 1

    def test_update_then_lookup(self, workload):
        keys, _ = workload
        eng = build_cuart(keys)
        ups = update_queries(keys, 300, seed=9)
        found = eng.update(ups)
        assert all(found)
        final = {}
        for k, v in ups:
            final[k] = v
        got = eng.lookup(list(final))
        assert got == [final[k] for k in final]

    def test_update_order_within_batch(self, workload):
        keys, _ = workload
        eng = build_cuart(keys)
        eng.update([(keys[0], 111), (keys[0], 222)])
        assert eng.lookup([keys[0]]) == [222]

    def test_delete(self, workload):
        keys, oracle = workload
        eng = build_cuart(keys)
        out = eng.delete(keys[:5])
        assert all(out)
        got = eng.lookup(keys[:6])
        assert got[:5] == [None] * 5
        assert got[5] == oracle[keys[5]]

    def test_range_and_prefix(self, workload):
        keys, oracle = workload
        eng = build_cuart(keys)
        ordered = sorted(keys)
        got = eng.range(ordered[10], ordered[20])
        assert [k for k, _ in got] == ordered[10:21]
        pref = ordered[100][:2]
        got_p = eng.prefix(pref)
        assert [k for k, _ in got_p] == [k for k in ordered if k.startswith(pref)]

    def test_with_root_table(self, workload):
        keys, oracle = workload
        eng = build_cuart(keys, root_table_depth=2)
        got = eng.lookup(keys[:200])
        assert got == [oracle[k] for k in keys[:200]]

    def test_host_link_long_keys_resolved(self):
        long_key = b"N" * 48
        eng = CuartEngine(batch_size=512, long_keys=LongKeyStrategy.HOST_LINK)
        eng.populate([(long_key, 7), (b"small", 1)])
        eng.map_to_device()
        assert eng.lookup([long_key, b"small", b"N" * 47 + b"?"]) == [7, 1, None]

    def test_remap_after_structural_change(self, workload):
        keys, _ = workload
        eng = build_cuart(keys)
        # the insert path stores a bytearray key as given; the re-map
        # encodes it with the rest
        eng.populate([(b"\xaa" * 12, 42), (bytearray(b"\xab" * 12), 43)])
        from repro.errors import StaleLayoutError

        with pytest.raises(StaleLayoutError):
            eng.lookup([keys[0]])
        eng.map_to_device()
        assert eng.lookup([b"\xaa" * 12, b"\xab" * 12]) == [42, 43]


class TestGrtEngine:
    def test_lookup_oracle(self, workload):
        keys, oracle = workload
        eng = GrtEngine(batch_size=512)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        queries = lookup_queries(keys, 600, hit_rate=0.7, seed=6)
        assert eng.lookup(queries) == [oracle.get(q) for q in queries]

    def test_update(self, workload):
        keys, _ = workload
        eng = GrtEngine(batch_size=512)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        found = eng.update([(keys[0], 999), (keys[1], 888)])
        assert found == [True, True]
        assert eng.lookup(keys[:2]) == [999, 888]

    def test_is_not_a_serving_engine(self):
        """GRT is the figures' baseline: no delete kernel and no
        submit/drain pipeline, so the serving contract refuses it by
        name, and nothing of CuART's serving surface is left on it."""
        eng = GrtEngine(batch_size=512)
        for attr in ("submit", "drain", "write", "streams", "last_events",
                     "device_health"):
            assert not hasattr(eng, attr), attr
        with pytest.raises(
            ReproError, match="submit, drain, device_health"
        ):
            require_serving_engine(eng)
        require_serving_engine(CuartEngine())

    def test_engines_agree(self, workload):
        keys, _ = workload
        cu = build_cuart(keys)
        gr = GrtEngine(batch_size=512)
        gr.populate((k, i) for i, k in enumerate(keys))
        gr.map_to_device()
        queries = lookup_queries(keys, 500, hit_rate=0.5, seed=8)
        assert cu.lookup(queries) == gr.lookup(queries)

    def test_reports_slower_than_cuart(self, workload):
        keys, _ = workload
        cu = build_cuart(keys)
        gr = GrtEngine(batch_size=512)
        gr.populate((k, i) for i, k in enumerate(keys))
        gr.map_to_device()
        cu.lookup(keys[:512])
        gr.lookup(keys[:512])
        assert (
            cu.last_report.transactions_per_query
            < gr.last_report.transactions_per_query
        )


class TestGrtEngineRange:
    def test_range_matches_cuart(self, workload):
        keys, oracle = workload
        cu = build_cuart(keys)
        gr = GrtEngine(batch_size=512)
        gr.populate((k, i) for i, k in enumerate(keys))
        gr.map_to_device()
        ordered = sorted(keys)
        lo, hi = ordered[100], ordered[160]
        assert gr.range(lo, hi) == cu.range(lo, hi)
        assert gr.last_report.operation == "range"
