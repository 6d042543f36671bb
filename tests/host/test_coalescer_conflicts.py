"""Unit tests for the key-level conflict tracker in
:class:`repro.host.batching.OpClassCoalescer` and the engine's async
submit/drain dispatch surface."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.host.batching import OpClassCoalescer, fold_writes
from repro.host.engine import CuartEngine
from repro.workloads.synthetic import random_keys


def _flushed(out):
    """Flatten add() output into [(kind, n_payloads), ...]."""
    return [(k, len(ps)) for k, ps in out]


class TestKeyLevelCoalescing:
    def test_disjoint_keys_never_flush(self):
        """Cross-class ops on different keys coexist — the legacy
        write-dependency cut is gone."""
        coal = OpClassCoalescer(64)
        for i in range(20):
            assert coal.add("lookup", f"k{i}", f"k{i}") == ()
            assert coal.add("update", f"u{i}", (f"u{i}", i)) == ()
            assert coal.add("delete", f"d{i}", f"d{i}") == ()
        assert len(coal) == 60
        assert "write-dependency" not in coal.flush_reasons()
        assert coal.flush_reasons()["key-conflict"] == 0

    def test_same_key_read_after_write_records_edge(self):
        """lookup k after update k: no flush, but the drain releases the
        update batch before the lookup batch."""
        coal = OpClassCoalescer(64)
        assert coal.add("update", "k", ("k", 1)) == ()
        assert coal.add("lookup", "k", "k") == ()
        order = [kind for kind, _ in coal.drain()]
        assert order == ["write", "lookup"]

    @pytest.mark.parametrize("edge", [False, True])
    def test_ready_lookups_are_released_first(self, edge):
        """A write-first drain releases an independent lookup batch
        ahead of the write batch, where it can ride the write launch as
        stage 0; a lookup of a queued write's key keeps its edge."""
        coal = OpClassCoalescer(64)
        coal.add("update", "u", ("u", 1))
        coal.add("delete", "d", ("d", None))
        coal.add("lookup", "x", "x")
        if edge:
            coal.add("lookup", "u", "u")
        order = [kind for kind, _ in coal.drain()]
        assert order == (["write", "lookup"] if edge
                         else ["lookup", "write"])

    @pytest.mark.parametrize("edge, order", [
        (False, ["lookup", "write", "insert"]),
        (True, ["insert", "lookup", "write"]),
    ], ids=["free", "edge"])
    def test_lookups_released_directly_before_the_write(self, edge, order):
        """lookup x, insert y, update z (or y): among the drain's
        topological orders, one with the lookup batch directly before the
        write batch (one launch) wins over the lookup-first,
        first-arrival ranking."""
        coal = OpClassCoalescer(64)
        coal.add("lookup", "x", "x")
        coal.add("insert", "y", ("y", 1))
        key = "y" if edge else "z"
        coal.add("update", key, (key, 2))
        assert [kind for kind, _ in coal.drain()] == order

    def test_cycle_forces_key_conflict_flush(self):
        """update k → lookup k → update k: the second update cannot both
        follow the queued lookup and share the queued update's batch."""
        coal = OpClassCoalescer(64)
        coal.add("update", "k", ("k", 1))
        coal.add("lookup", "k", "k")
        out = coal.add("update", "k", ("k", 2))
        # the conflicting queues flushed, in dependency order
        assert [k for k, _ in out] == ["write", "lookup"]
        assert coal.flush_reasons()["key-conflict"] >= 1
        # the new update is queued afresh
        assert [(k, len(ps)) for k, ps in coal.drain()] == [("write", 1)]

    def test_duplicate_delete_flushes_own_class(self):
        """Deletes don't self-commute: the second delete of one key must
        observe the first's effect, so the delete queue flushes."""
        coal = OpClassCoalescer(64)
        coal.add("delete", "k", "k")
        out = coal.add("delete", "k", "k")
        assert _flushed(out) == [("write", 1)]
        assert coal.flush_reasons()["key-conflict"] == 1

    def test_repeated_lookups_and_updates_commute(self):
        """Same-key repeats of self-commuting classes share one batch."""
        coal = OpClassCoalescer(64)
        for i in range(10):
            assert coal.add("lookup", "k", "k") == ()
        for i in range(10):
            assert coal.add("update", "u", ("u", i)) == ()
        assert _flushed(coal.drain()) == [("lookup", 10), ("write", 10)]
        assert coal.flush_reasons()["key-conflict"] == 0

    def test_size_full_flushes_ancestors_first(self):
        """A full queue drags its DAG ancestors ahead of it, charged to
        dep-order; the full queue itself is charged to size-full."""
        coal = OpClassCoalescer(4)
        coal.add("update", "k", ("k", 1))
        out = []
        out.extend(coal.add("lookup", "k", "k"))  # edge: update -> lookup
        for i in range(3):
            out.extend(coal.add("lookup", f"x{i}", f"x{i}"))
        assert [k for k, _ in out] == ["write", "lookup"]
        reasons = coal.flush_reasons()
        assert reasons["size-full"] == 1
        assert reasons["dep-order"] == 1

    def test_write_batch_limit_counts_distinct_keys(self):
        """A write batch launches one row per key, so repeats of a key
        do not fill it; a lookup batch launches one row per op."""
        coal = OpClassCoalescer(4)
        for i in range(10):
            assert coal.add("update", "k", ("k", i)) == ()
        assert coal.add("update", "a", ("a", 1)) == ()
        assert coal.add("delete", "b", ("b", None)) == ()
        assert _flushed(coal.add("update", "c", ("c", 1))) == [("write", 13)]
        for _ in range(3):
            assert coal.add("lookup", "k", "k") == ()
        assert _flushed(coal.add("lookup", "k", "k")) == [("lookup", 4)]
        assert coal.flush_reasons()["size-full"] == 2

    def test_fold_writes_keeps_each_keys_last_row_in_stream_order(self):
        rows = [("a", 1), ("b", 2), ("a", 3), ("c", None), ("b", None)]
        out, back = fold_writes(rows)
        assert out == [("a", 3), ("c", None), ("b", None)]
        assert back.tolist() == [0, 2, 0, 1, 2]

    def test_update_then_delete_of_one_key_share_a_write_batch(self):
        """The write launch runs its delete stage after its update stage
        — serial order — so a delete joins queued updates of its key."""
        coal = OpClassCoalescer(64)
        assert coal.add("update", "k", ("k", 1)) == ()
        assert coal.add("update", "k", ("k", 2)) == ()
        assert coal.add("delete", "k", ("k", None)) == ()
        assert coal.add("update", "j", ("j", 3)) == ()
        assert [(k, ps) for k, ps in coal.drain()] == [
            ("write", [("k", 1), ("k", 2), ("k", None), ("j", 3)]),
        ]
        assert coal.flush_reasons()["key-conflict"] == 0

    @pytest.mark.parametrize("after", ["update", "delete", "insert"])
    def test_any_write_after_queued_delete_cuts_the_batch(self, after):
        """A queued delete is a barrier for its key: a later update or
        delete of it must observe the delete (a miss), so the write
        queue flushes with key-conflict; an insert orders after it."""
        coal = OpClassCoalescer(64)
        coal.add("update", "k", ("k", 1))
        coal.add("delete", "k", ("k", None))
        coal.add("update", "j", ("j", 2))
        payload = ("k", None) if after == "delete" else ("k", 5)
        out = coal.add(after, "k", payload)
        if after == "insert":
            assert out == ()
            assert _flushed(coal.drain()) == [("write", 3), ("insert", 1)]
            assert coal.flush_reasons()["key-conflict"] == 0
        else:
            assert _flushed(out) == [("write", 3)]
            assert coal.flush_reasons()["key-conflict"] == 1
            assert _flushed(coal.drain()) == [("write", 1)]

    def test_flush_reason_schema_complete(self):
        coal = OpClassCoalescer(8)
        assert set(coal.flush_reasons()) == {
            "size-full", "key-conflict", "dep-order", "drain", "deadline",
        }


class TestEngineSubmitDrain:
    @pytest.fixture()
    def eng(self):
        keys = random_keys(512, 12, seed=4)
        eng = CuartEngine(batch_size=128)
        eng.populate([(k, i + 1) for i, k in enumerate(keys)])
        eng.map_to_device()
        return eng, keys

    def test_submit_matches_direct_call(self, eng):
        eng, keys = eng
        direct = eng.lookup(list(keys[:64]))
        via_submit = eng.submit("lookup", list(keys[:64]))
        assert list(direct) == list(via_submit)

    def test_submit_accounts_stream_batches(self, eng):
        eng, keys = eng
        eng.submit("lookup", list(keys[:256]))  # 2 batches of 128
        eng.submit("update", [(k, 9) for k in keys[:128]])
        stats = eng.drain()
        assert stats.batches == 3
        assert stats.serial_s > stats.makespan_s  # overlap happened
        assert eng.drain().batches == 0  # window closed

    def test_mixed_write_batch_is_one_launch(self, eng):
        """A write batch holding update and delete rows costs one stream
        event; an update-only or delete-only write batch costs exactly
        what the per-kind submit does."""
        eng, keys = eng
        rows = [(k, 7) for k in keys[:64]] + [(k, None) for k in keys[64:96]]
        res = eng.submit("write", rows)
        assert res.found_array.all()
        (ev,) = eng.last_events
        assert ev.op == "write"
        for kind, payload, rows in (
            ("update", [(k, 5) for k in keys[100:164]],
             [(k, 5) for k in keys[100:164]]),
            ("delete", list(keys[200:264]),
             [(k, None) for k in keys[200:264]]),
        ):
            a, b = self._fresh(keys), self._fresh(keys)
            a.submit(kind, payload)
            b.submit("write", rows)
            ((ea,), (eb,)) = a.last_events, b.last_events
            assert (ea.h2d_s, ea.kernel_s, ea.d2h_s) == (
                eb.h2d_s, eb.kernel_s, eb.d2h_s)

    def test_write_call_charges_value_words_per_batch(self, eng):
        """A write call spanning several device batches (updates, then
        deletes) charges the 8-byte value word only to the batches that
        hold update rows."""
        eng, keys = eng
        ups = [(k, 5) for k in keys[:128]]
        dels = list(keys[128:256])
        eng.submit("write", ups + [(k, None) for k in dels])
        ev_up, ev_del = eng.last_events
        a, b = self._fresh(keys), self._fresh(keys)
        a.submit("update", ups)
        b.submit("delete", dels)
        assert ev_up.h2d_s == a.last_events[0].h2d_s
        assert ev_del.h2d_s == b.last_events[0].h2d_s
        assert ev_del.h2d_s < ev_up.h2d_s

    def test_each_launch_is_charged_its_own_batch(self, eng):
        """A call of 2.5 batches gets three stream events, each charged
        the rows its batch ships and that batch's own kernel time —
        exactly what submitting each batch alone costs."""
        eng, keys = eng
        eng.submit("lookup", list(keys[:320]))  # 128 + 128 + 64 rows
        link = eng._pcie
        assert [ev.d2h_s for ev in eng.last_events] == [
            link.transfer_time(8 * n) for n in (128, 128, 64)]
        for ev, lo, hi in zip(eng.last_events, (0, 128, 256),
                              (128, 256, 320)):
            alone = self._fresh(keys)
            alone.submit("lookup", list(keys[lo:hi]))
            (ea,) = alone.last_events
            assert (ev.h2d_s, ev.kernel_s, ev.d2h_s) == (
                ea.h2d_s, ea.kernel_s, ea.d2h_s)

    def test_cache_hits_ship_nothing(self):
        """A lookup call that is mostly hot-key cache hits (and in-call
        repeats) ships only its misses to the device."""
        keys = random_keys(512, 12, seed=4)
        eng = CuartEngine(batch_size=128, cache_size=256)
        eng.populate([(k, i + 1) for i, k in enumerate(keys)])
        eng.map_to_device()
        eng.lookup(list(keys[:100]))  # now cached
        misses = list(keys[100:110])
        res = eng.submit("lookup", list(keys[:100]) * 3 + misses)
        assert res.to_list()[-10:] == [i + 1 for i in range(100, 110)]
        (ev,) = eng.last_events
        alone = self._fresh(keys)
        alone.submit("lookup", misses)
        (ea,) = alone.last_events
        assert (ev.h2d_s, ev.kernel_s, ev.d2h_s) == (
            ea.h2d_s, ea.kernel_s, ea.d2h_s)
        assert ev.d2h_s == eng._pcie.transfer_time(8 * len(misses))

    def test_lookups_riding_a_write_launch_are_one_event(self, eng):
        """Lookup rows handed in with a write batch run as its stage 0:
        one stream event carrying every row's key plus 8 B per write
        row, one launch overhead, and 8 B back per row; the answers are
        the pre-launch state, as two launches would give."""
        eng, keys = eng
        rows = [(k, 7) for k in keys[:64]] + [(k, None) for k in keys[64:96]]
        lookups = list(keys[200:300]) + list(keys[:10]) + list(keys[64:70])
        lres, wres = eng.submit("write", rows, lookups=lookups)
        (ev,) = eng.last_events
        n, m, w = len(rows), len(lookups), len(keys[0])
        link = eng._pcie
        assert ev.op == "write"
        assert ev.h2d_s == link.transfer_time((n + m) * w + 8 * n)
        assert ev.d2h_s == link.transfer_time(8 * (n + m))
        assert lres.summary["host_s"] > 0

        a, b = self._fresh(keys), self._fresh(keys)
        two_l = a.submit("lookup", lookups)
        (ea,) = a.last_events
        two_w = b.submit("write", rows)
        (eb,) = b.last_events
        assert lres.to_list() == two_l.to_list()
        assert lres.to_list()[-16:] == [i + 1 for i in range(10)] + [
            i + 1 for i in range(64, 70)]  # read before the launch
        assert wres.found_array.tolist() == two_w.found_array.tolist()
        overhead = eng.device.launch_overhead_s
        assert ev.kernel_s - overhead < (ea.kernel_s - overhead) + (
            eb.kernel_s - overhead)
        assert eng.lookup(list(keys[:10]) + list(keys[64:70])) == (
            [7] * 10 + [None] * 6)

    def test_lookups_only_ride_write_batches(self, eng):
        eng, keys = eng
        with pytest.raises(ReproError):
            eng.submit("update", [(keys[0], 1)], lookups=[keys[1]])

    @staticmethod
    def _fresh(keys):
        eng = CuartEngine(batch_size=128)
        eng.populate([(k, i + 1) for i, k in enumerate(keys)])
        eng.map_to_device()
        return eng

    def test_submit_rejects_unknown_kind(self, eng):
        eng, _ = eng
        with pytest.raises(Exception):
            eng.submit("compact", [])

    def test_single_stream_engine_reports_no_overlap(self):
        keys = random_keys(256, 12, seed=6)
        eng = CuartEngine(batch_size=64, streams=1)
        eng.populate([(k, i + 1) for i, k in enumerate(keys)])
        eng.map_to_device()
        eng.submit("lookup", list(keys))
        stats = eng.drain()
        assert stats.batches == 4
        assert stats.saved_s == pytest.approx(0.0, abs=1e-12)
