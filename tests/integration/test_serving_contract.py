"""The serving contract as one model-based test.

Batched execution answers as serial execution does: §3.4's
last-writer-wins by thread index and §3.3's deletes that leave nodes in
place hold however the batch pipeline
(:class:`repro.host.mixed.BatchPipeline`) coalesces, forwards, absorbs,
sheds, compacts or routes an op.  :class:`ServingContract` is one
hypothesis state machine over every combination the pipeline serves —
1, 2 or 4 devices in hash or range mode, memtable off or on, hot-key
cache off or on, either dedup hash table, faults off or on, a deep or a
shedding admission queue.  It drives the online door
(:class:`~repro.serve.core.ServerCore` on a
:class:`~repro.serve.core.VirtualClock`) and checks every answer against
a dict, not against another run of the engine under test.  At teardown
the offline door (:class:`~repro.host.mixed.MixedWorkloadExecutor`) and
a serial single engine replay the admitted ops.

:func:`drive` calls the rules in a fixed order: each adversarial burst
the per-feature suites pin (``tests/host/test_*_lockstep.py``,
``tests/host/test_overlay.py``, ``tests/serve/test_dispatch.py``,
``tests/integration/test_fault_soak.py``) is such a fixed scenario.  A
new serving rule gets a rule or an invariant here.
"""

from __future__ import annotations

import tempfile
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cuart.serialize import save_layout
from repro.errors import InvalidOperationError
from repro.gpusim.faults import FaultConfig
from repro.host.engine import CuartEngine
from repro.host.memtable import MemtableConfig
from repro.host.mixed import MixedWorkloadExecutor
from repro.host.resilience import ResiliencePolicy
from repro.host.results import OpStatus
from repro.host.sharding import ShardedEngine, ShardingConfig
from repro.obs.critical_path import attribute_stats
from repro.serve.core import ServerCore, VirtualClock

#: 40 keys with distinct first bytes, so one- and two-device trees get
#: an N48 root with leaf children, and three sharing the first one's.
PRESENT = ([bytes([16 + 4 * i]) + b"-key-%02d" % i for i in range(40)]
           + [bytes([16]) + b"-kez-%02d" % i for i in range(3)])
#: absent keys on new first bytes: inserting one claims a root slot.
ABSENT = [bytes([17 + 4 * i]) + b"-new-%02d" % i for i in range(12)]
POOL = PRESENT + ABSENT
BASE = {k: i + 1 for i, k in enumerate(PRESENT)}

MEMTABLE = MemtableConfig(segment_ops=4, max_debt=1)
DEADLINE_US = 100.0
SHED_DEPTH = 12
_FAILED = int(OpStatus.FAILED)


def pool_key(i: int) -> bytes:
    return POOL[i]


#: pool keys by index: a short strategy repr in the statistics.
keys = st.integers(0, len(POOL) - 1).map(pool_key)


def note(label: str) -> None:
    """``hypothesis.event`` inside a hypothesis run; fixed scenarios
    called outside one record nothing."""
    if currently_in_test_context():
        event(label)


def build_engine(devices=1, mode="hash", cache=0, hash_table="linear",
                 faults=False):
    """A populated, mapped engine: a :class:`CuartEngine` on one device
    in hash mode, else a :class:`ShardedEngine` (one device in range
    mode is the one-shard degenerate case)."""
    kwargs = dict(
        batch_size=16, hash_slots=1024, cache_size=cache,
        hash_table=hash_table, resilience=ResiliencePolicy(),
        faults=FaultConfig.uniform(0.02, seed=7) if faults else None,
    )
    if devices == 1 and mode == "hash":
        eng = CuartEngine(**kwargs)
    else:
        eng = ShardedEngine(
            sharding=ShardingConfig(n_shards=devices, mode=mode), **kwargs)
    eng.populate(BASE.items())
    eng.map_to_device()
    return eng


def content(engine) -> list:
    items = (engine.items() if isinstance(engine, ShardedEngine)
             else engine.tree.items())
    return sorted(items)


def layout_bytes(engine) -> bytes:
    """The saved device layout of a one-device engine."""
    if isinstance(engine, ShardedEngine):
        (engine,) = engine.shards
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.npz"
        save_layout(engine.layout, path)
        return path.read_bytes()


def canonical_bytes(engine) -> bytes:
    """The saved layout of a fresh single engine holding ``engine``'s
    content: equal content gives equal bytes, whatever the topology."""
    canon = CuartEngine(batch_size=16, hash_slots=1024)
    canon.populate(content(engine))
    canon.map_to_device()
    return layout_bytes(canon)


def answer(model: dict, kind: str, payload):
    """The serial answer of one op against ``model``: a lookup's value
    (None on a miss), a write's hit (an insert always lands), a scan's
    ``(key, value)`` rows in key order."""
    if kind == "lookup":
        return model.get(payload)
    if kind == "scan":
        lo, hi = payload
        return sorted((k, v) for k, v in model.items() if lo <= k <= hi)
    if kind == "insert":
        return True
    return (payload if kind == "delete" else payload[0]) in model


def apply(model: dict, kind: str, payload, hit) -> None:
    """Apply one op whose :func:`answer` was ``hit`` to ``model``."""
    if kind == "insert" or (kind == "update" and hit):
        model[payload[0]] = payload[1]
    elif kind == "delete" and hit:
        del model[payload]


def serial_replay(admitted, hash_table: str) -> CuartEngine:
    """Feed every admitted op alone to a fresh single engine, checking
    each answer against the model's."""
    eng = build_engine(hash_table=hash_table)
    for kind, payload, want in admitted:
        if kind == "lookup":
            got = eng.lookup([payload])[0]
        elif kind == "scan":
            got = eng.range(*payload)
        elif kind == "insert":
            eng.insert([payload])
            got = True
        else:
            got = bool(getattr(eng, kind)([payload]).found_array[0])
        assert got == want, (kind, payload)
    return eng


class ServingContract(RuleBasedStateMachine):
    """The batch pipeline behind its online door against a dict."""

    @initialize(
        devices=st.sampled_from([1, 2, 4]),
        mode=st.sampled_from(["hash", "range"]),
        memtable=st.booleans(),
        cache=st.sampled_from([0, 64]),
        hash_table=st.sampled_from(["linear", "bucketed"]),
        faults=st.booleans(),
        shed=st.booleans(),
    )
    def setup(self, devices=1, mode="hash", memtable=False, cache=0,
              hash_table="linear", faults=False, shed=False):
        self.params = dict(devices=devices, mode=mode, cache=cache,
                           hash_table=hash_table)
        self.memtable = MEMTABLE if memtable else None
        self.engine = build_engine(faults=faults, **self.params)
        self.clock = VirtualClock()
        self.core = ServerCore(
            self.engine, clock=self.clock, max_batch=16,
            deadline_us=DEADLINE_US,
            queue_depth=SHED_DEPTH if shed else 8192,
            memtable=self.memtable,
        )
        self.model = dict(BASE)
        self.value = 1_000
        #: ``(kind, payload, answer)`` of every admitted op, in order.
        self.admitted = []
        #: admitted ops not yet seen complete, with their answers.
        self.open_ops = []
        self.completed = 0
        self.tally = [0, 0, 0, 0]  # hits, misses, update/delete misses
        #: what makes the online run's batches differ from an offline
        #: run of the same admitted ops.
        self.irregular = set()
        self.windows_checked = 0
        self.forced = False
        #: how often each labelled outcome of the fused-launch rule
        #: fired.
        self.seen = {}
        self._watch_fused_launches()
        self._remember_lanes()

    def saw(self, label: str) -> None:
        self.seen[label] = self.seen.get(label, 0) + 1
        note(label)

    def _watch_fused_launches(self):
        """Label the launches lookups ride: a compaction's write launch
        (the lane's queued lookups, stage 0 before the install) and a
        flush group's write launch whose write batch arrived first (the
        coalescer releases a ready lookup batch first)."""
        core = self.core
        route, dispatch = core._route, core._dispatch
        #: routed op -> its arrival index
        arrival = {}
        order = count()

        def routed(kind, key, value, entry):
            arrival[id(entry)] = next(order)
            return route(kind, key, value, entry)

        def watched(lane, kind, entries, lookups=None, compaction=False):
            if lookups is not None:
                if compaction:
                    self.saw("compaction carried lookups")
                elif (min(arrival[id(op)] for op in entries)
                      < min(arrival[id(op)] for op in lookups)):
                    self.saw("lookups released ahead of a write")
            return dispatch(lane, kind, entries, lookups, compaction)

        core._route, core._dispatch = routed, watched

    # -- ops ---------------------------------------------------------------

    def fresh(self) -> int:
        self.value += 1
        return self.value

    def offer(self, kind: str, payload):
        """Offer one op; the model applies it only if it was admitted."""
        want = answer(self.model, kind, payload)
        op = self.core.offer(kind, payload)
        if op.shed:
            assert op.done and op.value is None
            note("shed")
            self.completed += 1
            return op
        apply(self.model, kind, payload, want)
        self.admitted.append((kind, payload, want))
        self.open_ops.append((op, want))
        return op

    @rule(key=keys)
    def lookup(self, key):
        self.offer("lookup", key)

    @rule(key=keys)
    def update(self, key):
        self.offer("update", (key, self.fresh()))

    @rule(key=keys)
    def delete(self, key):
        self.offer("delete", key)

    @rule(key=keys)
    def insert(self, key):
        self.offer("insert", (key, self.fresh()))

    @rule(a=keys, b=keys)
    def scan(self, a, b):
        self.forced = True
        self.offer("scan", (min(a, b), max(a, b)))

    @rule(key=keys, how=st.sampled_from(["no-value", "kind", "range"]))
    def invalid(self, key, how):
        """A malformed op raises and leaves no trace."""
        core = self.core
        before = (core.admitted, core.completed, core.backlog,
                  dict(core.report.ops_by_status), len(self.model))
        bad = {"no-value": ("update", (key, None)), "kind": ("upsert", key),
               "range": ("scan", key)}[how]
        with pytest.raises(InvalidOperationError):
            core.offer(*bad)
        assert (core.admitted, core.completed, core.backlog,
                dict(core.report.ops_by_status), len(self.model)) == before

    @rule(a=keys, b=keys)
    def churn(self, a, b):
        """Delete a, insert b, re-insert a: with a and b on one N48
        node, the insert batch claims a new slot next to a cleared one."""
        self.offer("delete", a)
        self.offer("insert", (b, self.fresh()))
        self.offer("insert", (a, self.fresh()))

    @rule(key=keys)
    def hot_burst(self, key):
        """Read-after-write and write-after-write on one hot key."""
        for kind in ("update", "lookup", "update", "update", "lookup",
                     "delete", "lookup", "update", "delete", "insert",
                     "lookup", "delete", "lookup"):
            self.offer(kind, key if kind in ("lookup", "delete")
                       else (key, self.fresh()))

    @rule(a=keys, b=keys)
    def read_beside_write(self, a, b):
        """An update of a, a lookup of b, then a scan of b, whose barrier
        flushes one group: its lookup batch, released first, rides the
        write launch (or, with the memtable on, the compaction's)."""
        self.offer("update", (a, self.fresh()))
        self.offer("lookup", b)
        self.scan(b, b)

    @rule(dt=st.sampled_from([10.0, 150.0, 1_000.0]))
    def tick(self, dt):
        self.clock.advance(dt)
        if self.core.poll():
            note("deadline close")

    @rule()
    def flush(self):
        self.forced = True
        self.irregular.add("flush")
        self.core.flush()
        self.check_drained()

    @rule(device=st.integers(0, 3), opened=st.booleans())
    def circuit(self, device, opened):
        lane = self.core.lanes[device % len(self.core.lanes)]
        health = lane.engine.device_health
        if opened:
            for _ in range(health.unhealthy_after):
                health.mark_failure()
        else:
            health.recover()
        self.irregular.add("circuit")
        note("circuit change: " + ("open" if opened else "close"))

    @rule(max_moves=st.sampled_from([1, None]))
    def rebalance(self, max_moves):
        """On several devices only (one has nothing to move)."""
        if self.params["devices"] == 1:
            return
        self.forced = True
        self.irregular.add("rebalance")
        moved = self.core.rebalance(max_moves=max_moves)["moved_partitions"]
        note("rebalance moves" if moved else "rebalance: no move")

    # -- after every step --------------------------------------------------

    def _remember_lanes(self):
        lanes = self.core.lanes
        self.was_open = [not lane.engine.device_health.healthy
                         for lane in lanes]
        self.lane_compactions = [
            lane.memtable.compactions if lane.memtable else 0
            for lane in lanes]
        self.hash_slots = [lane.engine.hash_slots for lane in lanes]

    @invariant()
    def answers_match_the_model(self):
        still = []
        for op, want in self.open_ops:
            if not op.done:
                still.append((op, want))
                continue
            assert op.status != _FAILED, op
            assert op.value == want, (op, op.key, want)
            self.completed += 1
            if op.op == "lookup":
                self.tally[0 if want is not None else 1] += 1
            elif op.op == "update" and not want:
                self.tally[2] += 1
            elif op.op == "delete" and not want:
                self.tally[3] += 1
        self.open_ops = still
        rep = self.core.report
        assert [rep.hits, rep.misses, rep.update_misses,
                rep.delete_misses] == self.tally
        assert sum(rep.ops_by_status.values()) == self.completed

    @invariant()
    def open_circuits_hold_compaction(self):
        """No debt-triggered compaction dispatches on a device while its
        circuit is open; a forced one (flush, scan, rebalance) does."""
        for i, lane in enumerate(self.core.lanes):
            if lane.memtable is None:
                continue
            done = lane.memtable.compactions
            if done > self.lane_compactions[i]:
                note("compaction")
            if (self.was_open[i] and not self.forced
                    and not lane.engine.device_health.healthy):
                assert done == self.lane_compactions[i]
        if self.hash_slots != [lane.engine.hash_slots
                               for lane in self.core.lanes]:
            note("hash-grow")
        self.forced = False
        self._remember_lanes()

    @invariant()
    def windows_reconcile(self):
        """Every drained window's stages, shard-skew excluded, sum to
        its makespan."""
        stats = self.core.overlap
        if stats is None or len(stats.windows) == self.windows_checked:
            return
        attributed = attribute_stats(stats).windows
        for attr in attributed[self.windows_checked:]:
            stages = sum(v for k, v in attr.stage_s.items()
                         if k != "shard-skew")
            assert stages == pytest.approx(attr.makespan_s, rel=1e-9)
        self.windows_checked = len(attributed)

    def check_drained(self):
        assert all(op.done for op, _ in self.open_ops)
        for lane in self.core.lanes:
            if lane.memtable is not None:
                assert lane.memtable.debt == 0
                assert lane.memtable.pending_ops() == 0

    # -- at teardown -------------------------------------------------------

    def teardown(self):
        if not hasattr(self, "core"):
            return
        core = self.core
        core.flush()
        self.check_drained()
        self.answers_match_the_model()
        self.windows_reconcile()
        assert core.backlog == 0
        assert self.completed == len(self.admitted) + core.sheds
        want = sorted(self.model.items())
        assert content(self.engine) == want
        assert self.engine.lookup(POOL).to_list() == [
            self.model.get(k) for k in POOL]
        serial = serial_replay(self.admitted, self.params["hash_table"])
        assert canonical_bytes(serial) == canonical_bytes(self.engine)
        injected = sum(
            lane.engine._injector.total_injected for lane in core.lanes
            if lane.engine._injector is not None)
        if (self.params["devices"] == 1 and "circuit" not in self.irregular
                and not injected
                and all(kind != "insert" for kind, _, _ in self.admitted)):
            # update and delete rows scatter in place and deletes leave
            # nodes in place: the device buffers themselves match
            assert layout_bytes(self.engine) == layout_bytes(serial)

        # the offline door over the admitted stream, on a fault-free twin
        twin = build_engine(**self.params)
        stream = [(kind, payload) for kind, payload, _ in self.admitted]
        results, rep = MixedWorkloadExecutor(
            twin, memtable=self.memtable).run(stream)
        assert results == [w for kind, _, w in self.admitted
                           if kind == "lookup"]
        assert content(twin) == want
        online = core.report_snapshot()
        if not (self.irregular or core.sheds or injected
                or online.flush_reasons.get("deadline", 0)):
            assert rep.batches_by_op == online.batches_by_op
            assert rep.flush_reasons == online.flush_reasons
            assert (rep.stream_overlap["makespan_s"]
                    == online.stream_overlap["makespan_s"])
            note("doors agree on batches and makespan")


ServingContract.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=50,
    derandomize=True,
    database=None,
    deadline=None,
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServingContract = ServingContract.TestCase


def drive(*steps, **params) -> ServingContract:
    """Run the machine's rules in a fixed order: ``setup(**params)``,
    then each ``(rule, *args)`` step followed by every invariant, then
    the teardown checks.  Returns the machine."""
    m = ServingContract()
    m.setup(**params)
    for name, *args in steps:
        getattr(m, name)(*args)
        m.answers_match_the_model()
        m.open_circuits_hold_compaction()
        m.windows_reconcile()
    m.teardown()
    return m


#: rules in the weights of a generated OLTP stream: ~50/35/15
#: lookups/updates/deletes.
MIX = ("lookup",) * 10 + ("update",) * 7 + ("delete",) * 3


def random_steps(seed: int, n: int, rules=("lookup", "lookup", "update",
                                         "delete"), pool=POOL, burst=1):
    """``n`` draws of a rule from ``rules`` (repeat one to weight it) on
    a key from ``pool``, each step repeated 1 to ``burst`` times."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n):
        step = (rules[int(rng.integers(len(rules)))],
                pool[int(rng.integers(len(pool)))])
        steps += [step] * int(rng.integers(1, burst + 1))
    return steps


def test_churn_on_one_n48_root_keeps_both_keys():
    """A delete-cleared N48 root slot and a new first byte in one insert
    batch, through the pipeline."""
    drive(("churn", PRESENT[3], ABSENT[0]), ("lookup", ABSENT[0]))


@pytest.mark.parametrize("devices", [1, 4])
def test_queued_lookups_ride_a_debt_compaction(devices):
    """Lookups queued on a lane ride its debt-triggered compaction's
    write launch as stage 0, and read the state before the install,
    with the cache on and faults injected."""
    steps = [("lookup", k) for k in PRESENT[:8]]
    # two passes over the other keys seal two segments on every lane
    steps += [("update", k) for k in PRESENT[8:]] * 2
    m = drive(*steps, devices=devices, memtable=True, cache=64, faults=True)
    lanes = m.core.lanes
    # each lane's lookups, queued before any write, rode its first
    # compaction, which its debt triggered (the teardown's is its last)
    assert all(lane.memtable.compactions > 1 for lane in lanes)
    assert m.seen == {"compaction carried lookups": len(lanes)}


def test_lookups_released_ahead_of_a_write():
    """``[update a, lookup b]``: the flush releases the independent
    lookup batch first, so it rides the write launch."""
    m = drive(("read_beside_write", PRESENT[0], PRESENT[1]))
    assert m.seen == {"lookups released ahead of a write": 1}
