"""One serving contract, three implementations.

The :class:`~repro.serve.dispatch.Dispatch` protocol is only worth its
name if the offline executor, the sharded executor and the server core
are interchangeable: same stream in, same lookup results out, same
report shape.  These tests run all three over identical mixed streams
and compare results element-wise, check that ``run`` closes the same
batches on every clock, then pin :func:`make_dispatch`'s resolution
rules.
"""

import pytest

from repro.host.engine import CuartEngine, GrtEngine
from repro.host.memtable import Memtable
from repro.host.mixed import MixedReport, MixedWorkloadExecutor
from repro.host.sharding import (
    ShardedEngine,
    ShardedMixedExecutor,
    ShardingConfig,
)
from repro.errors import ReproError
from repro.serve import (
    CuartServer,
    Dispatch,
    ServerCore,
    VirtualClock,
    make_dispatch,
)
from repro.workloads import random_keys
from repro.workloads.queries import QueryMix, mixed_queries

KEYS = random_keys(200, 8, seed=31)
STREAM = mixed_queries(KEYS, 500, QueryMix(), seed=32)


def single_engine():
    eng = CuartEngine(batch_size=64)
    eng.populate((k, i) for i, k in enumerate(KEYS))
    eng.map_to_device()
    return eng


def sharded_engine():
    eng = ShardedEngine(sharding=ShardingConfig(n_shards=2), batch_size=64)
    eng.populate((k, i) for i, k in enumerate(KEYS))
    eng.map_to_device()
    return eng


def all_dispatches():
    return [
        ("executor", MixedWorkloadExecutor(single_engine())),
        ("sharded", ShardedMixedExecutor(sharded_engine())),
        ("server-core", ServerCore(
            single_engine(), max_batch=64, clock=VirtualClock()
        )),
        ("server", CuartServer(single_engine(), max_batch=64,
                               clock=VirtualClock())),
    ]


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "name,dispatch", all_dispatches(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_satisfies_protocol(self, name, dispatch):
        assert isinstance(dispatch, Dispatch)
        assert dispatch.engine is not None

    def test_engines_do_not_satisfy_it(self):
        assert not isinstance(single_engine(), Dispatch)

    def test_all_implementations_agree_on_results(self):
        outputs = {}
        for name, dispatch in all_dispatches():
            results, report = dispatch.run(list(STREAM))
            outputs[name] = results
            assert isinstance(report, MixedReport)
            assert report.operations == len(STREAM)
        baseline = outputs.pop("executor")
        for name, results in outputs.items():
            assert results == baseline, f"{name} diverged from the executor"

    def test_reports_share_the_accounting_shape(self):
        for name, dispatch in all_dispatches():
            _, report = dispatch.run(list(STREAM))
            assert report.lookups + report.updates + report.deletes \
                + report.inserts + report.scans == len(STREAM)
            assert report.batches > 0
            assert sum(report.ops_by_status.values()) == len(STREAM)
            assert "size-full" in report.flush_reasons
            # one latency definition: host wall per row of each class
            classes = set(report.latency_percentiles_by_op)
            assert classes == set(report.wall_s), name
            assert {"lookup", "write"} <= classes, name


class TestDeterministicRun:
    """``run(stream)`` closes batches on size, key conflict and drain
    only, so no clock can change what a stream dispatches."""

    @staticmethod
    def outcome(dispatch):
        results, rep = dispatch.run(list(STREAM))
        return (results, rep.batches_by_op, rep.flush_reasons,
                rep.ops_by_status, rep.stream_overlap["makespan_s"])

    @pytest.mark.parametrize("door", [ServerCore, CuartServer])
    @pytest.mark.parametrize("clock", ["virtual", "wall"])
    def test_same_batches_as_the_executor(self, door, clock):
        kwargs = {"clock": VirtualClock()} if clock == "virtual" else {}
        dispatch = door(single_engine(), max_batch=64, **kwargs)
        expected = self.outcome(MixedWorkloadExecutor(single_engine()))
        assert self.outcome(dispatch) == expected
        assert expected[2]["deadline"] == 0


#: every way an engine enters the serving stack.
DOORS = (make_dispatch, MixedWorkloadExecutor, ServerCore, CuartServer,
         Memtable)


class TestMakeDispatch:
    def test_single_engine_gets_executor(self):
        d = make_dispatch(single_engine())
        assert isinstance(d, MixedWorkloadExecutor)

    def test_grt_engine_is_refused(self):
        """GRT has no delete kernel and no submit pipeline: every door
        refuses it at construction, not at the first delete."""
        eng = GrtEngine(batch_size=64)
        eng.populate((k, i) for i, k in enumerate(KEYS))
        eng.map_to_device()
        for door in DOORS:
            with pytest.raises(ReproError, match="submit, drain"):
                door(eng)

    def test_sharded_engine_gets_sharded_executor(self):
        d = make_dispatch(sharded_engine())
        assert isinstance(d, ShardedMixedExecutor)

    def test_dispatch_passes_through(self):
        execu = MixedWorkloadExecutor(single_engine())
        assert make_dispatch(execu) is execu
        core = ServerCore(single_engine(), clock=VirtualClock())
        assert make_dispatch(core) is core

    def test_rejects_unknown_targets(self):
        with pytest.raises(ReproError):
            make_dispatch(object())

    def test_rejects_engine_the_pipeline_cannot_drive(self):
        class LookupOnly:
            batch_size = 64

            def lookup(self, keys):
                return [None] * len(keys)

        for door in DOORS:
            with pytest.raises(ReproError, match="submit, drain, contains"):
                door(LookupOnly())
