"""One serving contract, one pipeline, every door.

The :class:`~repro.serve.dispatch.Dispatch` protocol is only worth its
name if the offline executor, the sharded executor, the server core and
the asyncio server are interchangeable: same stream in, the serial
answers out (a dict's), same report shape.  These tests run them all
over one mixed stream, check that ``run`` closes the same batches on
every clock, on one device and over key-space shards, then pin
:func:`make_dispatch`'s resolution rules.  The serving-contract machine
(:mod:`tests.integration.test_serving_contract`) checks the online and
offline doors over every other combination.
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
from tests.integration.test_serving_contract import answer, apply

KEYS = random_keys(200, 8, seed=31)
STREAM = mixed_queries(KEYS, 500, QueryMix(), seed=32)
SHARD_KEYS = random_keys(2000, 8, seed=3)


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


def four_shard_engine():
    eng = ShardedEngine(sharding=ShardingConfig(n_shards=4), batch_size=64)
    eng.populate((k, i) for i, k in enumerate(SHARD_KEYS))
    eng.map_to_device()
    return eng


#: topology -> (engine factory, stream).
TOPOLOGIES = {
    "one-device": (single_engine, STREAM),
    "4-shard": (four_shard_engine, mixed_queries(
        SHARD_KEYS, 4000,
        QueryMix(lookups=0.70, updates=0.25, deletes=0.05), seed=11)),
}


def door_cases():
    """``(door, clock, topology)`` for every online door on every clock
    and topology; one-device cases keep their unsuffixed ids."""
    for topology in TOPOLOGIES:
        suffix = "" if topology == "one-device" else f"-{topology}"
        for door in (ServerCore, CuartServer):
            for clock in ("virtual", "wall"):
                yield pytest.param(door, clock, topology,
                                   id=f"{clock}-{door.__name__}{suffix}")


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
        model = {k: i for i, k in enumerate(KEYS)}
        serial = []
        for kind, payload in STREAM:
            want = answer(model, kind, payload)
            apply(model, kind, payload, want)
            if kind == "lookup":
                serial.append(want)
        for name, dispatch in all_dispatches():
            results, report = dispatch.run(list(STREAM))
            assert isinstance(report, MixedReport)
            assert report.operations == len(STREAM)
            assert results == serial, f"{name} diverged from the model"

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
    def outcome(dispatch, stream):
        results, rep = dispatch.run(list(stream))
        heat = None
        if isinstance(dispatch.engine, ShardedEngine):
            heat = int(dispatch.engine.router.heat.sum())
        return (results, rep.batches_by_op, rep.flush_reasons,
                rep.ops_by_status, rep.stream_overlap["makespan_s"], heat)

    @pytest.mark.parametrize("door,clock,topology", door_cases())
    def test_same_batches_as_the_executor(self, door, clock, topology):
        """Over shards too: one lane per device in the pipeline both
        doors share, and every op routed (heat recorded) once."""
        build, stream = TOPOLOGIES[topology]
        kwargs = {"clock": VirtualClock()} if clock == "virtual" else {}
        dispatch = door(build(), max_batch=64, **kwargs)
        expected = self.outcome(make_dispatch(build()), stream)
        assert self.outcome(dispatch, stream) == expected
        assert expected[2]["deadline"] == 0
        if expected[5] is not None:
            assert expected[5] == len(stream)


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
