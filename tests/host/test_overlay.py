"""The pending-write overlay must answer reads exactly like a serial
client replaying the same op sequence against a plain dict.

:class:`~repro.host.overlay.WriteOverlay` was promoted out of the mixed
executor's hot loop; these tests pin its contract in isolation — random
op streams run in lockstep against a reference model — plus the
executor-facing edges: forwarded-miss short-circuits, the memoized
base-existence probe and the pending-effect map.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.overlay import WriteOverlay


class _Reference:
    """Serial-client oracle: a dict mutated op by op, with the same
    "updates never resurrect" semantics the device batches apply."""

    def __init__(self, base: dict) -> None:
        self.state = dict(base)

    def lookup(self, key):
        return (key in self.state, self.state.get(key))

    def update(self, key, value) -> bool:
        if key not in self.state:
            return False
        self.state[key] = value
        return True

    def delete(self, key) -> bool:
        return self.state.pop(key, None) is not None

    def insert(self, key, value) -> None:
        self.state[key] = value


KEYS = [bytes([i]) * 4 for i in range(8)]


@st.composite
def op_streams(draw):
    n = draw(st.integers(1, 60))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["lookup", "update", "delete", "insert"]))
        key = draw(st.sampled_from(KEYS))
        value = draw(st.integers(0, 1000))
        ops.append((kind, key, value))
    return ops


class TestLockstepWithSerialClient:
    @given(op_streams())
    @settings(max_examples=200, deadline=None)
    def test_reads_match_reference(self, ops):
        base = {KEYS[i]: i for i in range(4)}  # half present, half absent
        overlay = WriteOverlay(lambda k: k in base)
        ref = _Reference(base)
        for kind, key, value in ops:
            if kind == "lookup":
                expected = ref.lookup(key)
                got = overlay.read(key)
                if got is None:
                    got = (key in base, base.get(key))
                assert got == (expected if expected[0] else (False, None))
            elif kind == "update":
                queued = overlay.note_update(key, value)
                applied = ref.update(key, value)
                # False means guaranteed miss: the reference must agree
                if not queued:
                    assert not applied
            elif kind == "delete":
                queued = overlay.note_delete(key)
                existed = ref.delete(key)
                if not queued:
                    assert not existed
            else:
                overlay.note_insert(key, value)
                ref.insert(key, value)

    @given(op_streams())
    @settings(max_examples=100, deadline=None)
    def test_snapshot_reflects_pending_effects(self, ops):
        """The pending-effect map (``overlay.entries``) agrees with the
        serial client's state, key by key."""
        base = {KEYS[i]: i for i in range(4)}
        overlay = WriteOverlay(lambda k: k in base)
        ref = _Reference(base)
        for kind, key, value in ops:
            if kind == "update":
                if overlay.note_update(key, value):
                    ref.update(key, value)
            elif kind == "delete":
                if overlay.note_delete(key):
                    ref.delete(key)
            elif kind == "insert":
                overlay.note_insert(key, value)
                ref.insert(key, value)
        assert len(overlay) == len(overlay.entries)
        for key, (status, value) in overlay.entries.items():
            if status == "present":
                assert ref.state[key] == value
            elif status == "absent":
                assert key not in ref.state
            else:  # maybe: present iff base had it
                assert (key in ref.state) == (key in base)


class TestForwardedMisses:
    def test_update_after_delete_short_circuits(self):
        overlay = WriteOverlay(lambda k: True)
        assert overlay.note_delete(b"k")
        assert not overlay.note_update(b"k", 1)

    def test_double_delete_short_circuits(self):
        overlay = WriteOverlay(lambda k: True)
        assert overlay.note_delete(b"k")
        assert not overlay.note_delete(b"k")

    def test_insert_resurrects(self):
        overlay = WriteOverlay(lambda k: True)
        overlay.note_delete(b"k")
        overlay.note_insert(b"k", 9)
        assert overlay.read(b"k") == (True, 9)
        assert overlay.note_update(b"k", 10)
        assert overlay.read(b"k") == (True, 10)

    def test_maybe_resolves_through_base(self):
        base = {b"hit": 1}
        overlay = WriteOverlay(lambda k: k in base)
        overlay.note_update(b"hit", 5)
        overlay.note_update(b"miss", 6)
        assert overlay.read(b"hit") == (True, 5)
        assert overlay.read(b"miss") == (False, None)


class TestMemoizedExistence:
    def test_one_probe_per_key(self):
        calls = []

        def contains(k):
            calls.append(k)
            return True

        overlay = WriteOverlay(contains)
        overlay.note_update(b"k", 1)
        for _ in range(5):
            assert overlay.read(b"k") == (True, 1)
        assert calls == [b"k"]


class TestDisabledDegradation:
    def test_delete_still_short_circuits_when_enabled(self):
        overlay = WriteOverlay(lambda k: False)
        assert overlay.note_delete(b"k")  # first delete goes to device
        assert not overlay.note_delete(b"k")  # second is a known miss


class TestExecutorLockstep:
    """The extracted overlay must leave executor semantics bit-identical:
    a mixed stream through the executor equals per-op serial engine calls."""

    def test_mixed_stream_matches_serial_engine(self):
        from repro.host.engine import CuartEngine
        from repro.host.mixed import MixedWorkloadExecutor
        from repro.workloads import random_keys
        from repro.workloads.queries import QueryMix, mixed_queries

        keys = random_keys(128, 8, seed=11)
        stream = mixed_queries(keys, 300, QueryMix(), seed=12)

        batched = CuartEngine(batch_size=32)
        batched.populate((k, i) for i, k in enumerate(keys))
        batched.map_to_device()
        serial = CuartEngine(batch_size=32)
        serial.populate((k, i) for i, k in enumerate(keys))
        serial.map_to_device()

        results, report = MixedWorkloadExecutor(batched).run(stream)
        expected = []
        for kind, payload in stream:
            if kind == "lookup":
                expected.append(serial.lookup([payload])[0])
            elif kind == "update":
                serial.update([payload])
            elif kind == "delete":
                serial.delete([payload])
            elif kind == "insert":
                serial.insert([payload])
        assert results == expected
        assert report.forwarded  # the stream exercised forwarding
