"""Unit + model tests for the mixed OLTP executor."""

import pytest

from repro.errors import ReproError
from repro.host.engine import CuartEngine
from repro.host.mixed import MixedReport, MixedWorkloadExecutor
from repro.serve.core import ServerCore, VirtualClock
from repro.workloads import QueryMix, mixed_queries, random_keys


@pytest.fixture()
def engine():
    keys = random_keys(600, 8, seed=71)
    eng = CuartEngine(batch_size=256, spare=0.25)
    eng.populate((k, i) for i, k in enumerate(keys))
    eng.map_to_device()
    return eng, keys


class TestExecutor:
    def test_pure_lookup_stream(self, engine):
        eng, keys = engine
        stream = [("lookup", k) for k in keys[:50]]
        results, report = MixedWorkloadExecutor(eng).run(stream)
        assert results == list(range(50))
        assert report.lookups == 50 and report.hits == 50

    def test_read_after_write_in_stream_order(self, engine):
        eng, keys = engine
        stream = [
            ("lookup", keys[0]),
            ("update", (keys[0], 999)),
            ("lookup", keys[0]),
        ]
        results, report = MixedWorkloadExecutor(eng).run(stream)
        assert results == [0, 999]
        assert report.updates == 1

    def test_read_after_delete(self, engine):
        eng, keys = engine
        stream = [
            ("delete", keys[5]),
            ("lookup", keys[5]),
            ("lookup", keys[6]),
        ]
        results, report = MixedWorkloadExecutor(eng).run(stream)
        assert results == [None, 6]
        assert report.deletes == 1 and report.misses == 1

    def test_generated_mixed_stream(self, engine):
        eng, keys = engine
        stream = mixed_queries(keys, 400, QueryMix(), seed=3)
        results, report = MixedWorkloadExecutor(eng).run(stream)
        assert report.operations == 400
        assert report.batches >= 3
        assert len(results) == report.lookups
        # deletions can race lookups in the stream, but an op count
        # conservation law always holds
        assert report.hits + report.misses == report.lookups

    def test_unknown_operation_rejected(self, engine):
        eng, _ = engine
        with pytest.raises(ValueError):
            MixedWorkloadExecutor(eng).run([("scan", b"x")])

    @pytest.mark.parametrize("memtable", [None, True])
    def test_update_without_value_rejected(self, engine, memtable):
        """A None value marks a delete row in a write batch, so an update
        carrying one is refused before it can remove the key."""
        eng, keys = engine
        stream = [("update", (keys[3], 7)), ("update", (keys[4], None))]
        with pytest.raises(ReproError):
            MixedWorkloadExecutor(eng, memtable=memtable).run(stream)
        assert eng.lookup([keys[4]]) == [4]

    def test_simulated_rates_recorded(self, engine):
        """The run's simulated rate is its operations over the stream
        scheduler's makespan; the report carries no second model."""
        eng, keys = engine
        stream = [("lookup", keys[0]), ("update", (keys[1], 5))]
        _, report = MixedWorkloadExecutor(eng).run(stream)
        so = report.stream_overlap
        assert so["batches"] == 1  # the lookups ride the write launch
        assert so["makespan_s"] > 0
        assert so["makespan_s"] == pytest.approx(so["serial_s"])
        assert not hasattr(report, "simulated_mops")

    def test_batch_size_splits_runs(self, engine):
        eng, keys = engine
        stream = [("lookup", keys[i % len(keys)]) for i in range(600)]
        _, report = MixedWorkloadExecutor(eng).run(stream)
        assert report.batches >= 3  # 600 lookups / 256 batch size

    def test_flush_leaves_each_drained_window_alone(self, engine,
                                                   monkeypatch):
        """The run's overlap record is a fresh fold: whoever holds a
        window ``CuartEngine.drain`` returned (a tracer recording every
        drain) sees it unchanged after later windows fold in, and the
        report's ``stream_overlap`` is the fold of the drained windows,
        ``streams`` included."""
        eng, keys = engine
        stream = mixed_queries(keys, 1200, QueryMix(), seed=5)
        stream.insert(600, ("scan", (keys[10], keys[300])))
        held = []
        drain = eng.drain

        def keep():
            window = drain()
            held.append((window, window.as_dict(), window.events))
            return window

        monkeypatch.setattr(eng, "drain", keep)
        ex = MixedWorkloadExecutor(eng)
        _, report = ex.run(stream)
        assert len(held) == 2  # the scan barrier, then the end of run
        for window, as_dict, events in held:
            assert window.as_dict() == as_dict
            assert window.events == events
            assert [len(w) for w in window.windows] == [1]
        overlap = ex.last_overlap_stats
        assert overlap is not held[0][0]
        assert overlap.events == held[0][2] + held[1][2]
        assert report.stream_overlap["streams"] == eng.config.streams
        assert report.stream_overlap["batches"] == sum(
            w.batches for w, _, _ in held)
        assert report.stream_overlap["makespan_s"] == round(
            held[0][0].makespan_s + held[1][0].makespan_s, 9)


def _events(stats):
    return [(ev.op, ev.h2d_s, ev.kernel_s, ev.d2h_s) for ev in stats.events]


class TestLaunchAccounting:
    """Class batches versus device launches: a flush group's lookup
    batch and the write batch released right after it share one launch,
    every other class batch keeps a launch of its own."""

    @staticmethod
    def _twin(keys):
        eng = CuartEngine(batch_size=256, spare=0.25)
        eng.populate((k, i) for i, k in enumerate(keys))
        eng.map_to_device()
        return eng

    def test_fused_group_is_one_launch(self, engine):
        eng, keys = engine
        lookups = list(keys[:40]) + list(keys[100:110])
        rows = [(k, 900 + i) for i, k in enumerate(keys[100:130])]
        rows += [(k, None) for k in keys[200:210]]
        stream = [("lookup", k) for k in lookups]
        stream += [("update", r) if r[1] is not None else ("delete", r[0])
                   for r in rows]
        ex = MixedWorkloadExecutor(eng)
        results, report = ex.run(stream)
        # lookups of keys the group writes read the state before it
        assert results == list(range(40)) + list(range(100, 110))
        assert report.batches_by_op == {"lookup": 1, "write": 1}
        assert report.flush_reasons["drain"] == 2
        assert report.stream_overlap["batches"] == 1
        assert set(report.wall_s) == {"lookup", "write"}
        twin = self._twin(keys)
        twin.submit("write", rows, lookups=lookups)
        assert _events(ex.last_overlap_stats) == _events(twin.drain())

    @pytest.mark.parametrize("kind", ["lookup", "write"])
    def test_single_class_group_keeps_its_launch(self, engine, kind):
        eng, keys = engine
        if kind == "lookup":
            payloads = list(keys[:50])
            stream = [("lookup", k) for k in payloads]
        else:
            payloads = [(k, 5) for k in keys[:40]] + [
                (k, None) for k in keys[40:50]]
            stream = [("update", r) if r[1] is not None else ("delete", r[0])
                      for r in payloads]
        ex = MixedWorkloadExecutor(eng)
        ex.run(stream)
        twin = self._twin(keys)
        twin.submit(kind, payloads)
        assert _events(ex.last_overlap_stats) == _events(twin.drain())

    @pytest.mark.parametrize("edge", [False, True], ids=["free", "edge"])
    @pytest.mark.parametrize("door", ["executor", "server-core"])
    def test_insert_group_is_two_launches(self, engine, door, edge):
        """``[lookup x, insert y, update z]``: the drain releases the
        lookup batch directly before the write batch, ahead of the insert
        batch (or, when the update follows the insert of its key, after
        it), so the group costs two launches, with the serial answers."""
        eng, keys = engine
        x, y = keys[3], b"\x00new-key"
        z = y if edge else keys[4]
        stream = [("lookup", x), ("insert", (y, 1)), ("update", (z, 700))]
        if door == "executor":
            results, report = MixedWorkloadExecutor(eng).run(stream)
        else:
            results, report = ServerCore(eng, clock=VirtualClock()).run(
                stream)
        assert results == [3]
        assert eng.lookup([y, z]) == ([700, 700] if edge else [1, 700])
        assert report.batches_by_op == {"lookup": 1, "insert": 1, "write": 1}
        assert report.stream_overlap["batches"] == 2

    @pytest.mark.parametrize("door", ["executor", "server-core"])
    def test_write_first_group_is_one_launch(self, engine, door):
        """``[update a, lookup b]``: the drain releases the independent
        lookup batch first, so it rides the write launch, on both doors,
        with the serial answers."""
        eng, keys = engine
        a, b = keys[3], keys[4]
        stream = [("update", (a, 700)), ("lookup", b)]
        if door == "executor":
            ex = MixedWorkloadExecutor(eng)
            results, report = ex.run(stream)
            stats = ex.last_overlap_stats
        else:
            core = ServerCore(eng, clock=VirtualClock())
            results, report = core.run(stream)
            stats = core.overlap
        assert results == [4]
        assert eng.lookup([a, b]) == [700, 4]
        assert report.batches_by_op == {"lookup": 1, "write": 1}
        assert report.stream_overlap["batches"] == 1
        twin = self._twin(keys)
        twin.submit("write", [(a, 700)], lookups=[b])
        assert _events(stats) == _events(twin.drain())
