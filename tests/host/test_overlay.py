"""The pending-write overlay must answer reads exactly like a serial
client replaying the same op sequence against a plain dict.

:class:`~repro.host.overlay.WriteOverlay` was promoted out of the mixed
executor's hot loop.  The lockstep classes drive it behind the
pipeline as fixed scenarios of the serving-contract machine
(:mod:`tests.integration.test_serving_contract`), whose model is that
dict; the rest pin its executor-facing edges in isolation:
forwarded-miss short-circuits, the memoized base-existence probe and
the pending-effect map.
"""

from repro.host.overlay import WriteOverlay
from tests.integration.test_serving_contract import (
    MIX,
    POOL,
    ServingContract,
    drive,
    random_steps,
)

#: half present, half absent in the machine's base content.
KEYS = POOL[39:47]
OPS = ("lookup", "update", "delete", "insert")


class TestLockstepWithSerialClient:
    def test_reads_match_reference(self):
        drive(*random_steps(1, 120, OPS, pool=KEYS))

    def test_snapshot_reflects_pending_effects(self):
        """The pending-effect map (``overlay.entries``) agrees with the
        model, key by key, while the writes are still queued."""
        m = ServingContract()
        m.setup()
        for rule, key in random_steps(2, 40, OPS[1:], pool=KEYS):
            getattr(m, rule)(key)
        assert m.core.overlay.entries
        for key, (status, value) in m.core.overlay.entries.items():
            if status == "present":
                assert m.model[key] == value
            elif status == "absent":
                assert key not in m.model
            else:  # maybe: the value, if the key exists
                assert m.model.get(key, value) == value
        m.teardown()


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
    def test_mixed_stream_matches_serial_engine(self):
        m = drive(*random_steps(12, 150, MIX + ("insert",)))
        assert m.core.report.forwarded  # the stream exercised forwarding
