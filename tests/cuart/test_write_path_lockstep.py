"""Lockstep oracle tests for the vectorized write path.

The batched update / delete / insert-claim kernels take whole-array fast
paths (one fused linear-probe pass over the conflict table, winner
scatters, bulk leaf allocation), and the engine's write launch walks the
tree once for its lookup, update and delete rows together, then runs
its update stage and its delete stage.  These tests pin them against the
per-key scalar oracle and the kernels run one at a time: the same stream
applied one single-row batch at a time must leave byte-identical device
buffers, including intra-batch duplicate keys (last-writer-wins by thread
index), same-key update-then-delete pairs in one write batch, and
delete-then-insert reuse of free-listed leaf slots.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.host.engine as engine_module
from repro.art.tree import AdaptiveRadixTree
from repro.constants import LEAF_TYPE_CODES, NIL_VALUE, NODE_TYPE_CODES
from repro.cuart.delete import delete_batch
from repro.cuart.insert import InsertEngine
from repro.cuart.layout import CuartLayout
from repro.cuart.lookup import lookup_batch
from repro.cuart.serialize import save_layout
from repro.cuart.update import UpdateEngine
from repro.errors import TransientKernelError
from repro.host.engine import CuartEngine
from repro.host.resilience import ResiliencePolicy
from repro.host.results import OpStatus
from repro.util.keys import keys_to_matrix
from repro.util.packing import link_indices, link_types
from repro.workloads.synthetic import random_keys

SEEDS = [3, 17, 91]


def _build(keys, *, spare=0.5) -> CuartLayout:
    tree = AdaptiveRadixTree()
    for i, k in enumerate(keys):
        tree.insert(k, i + 1)
    return CuartLayout(tree, spare=spare)


def _assert_layouts_equal(a: CuartLayout, b: CuartLayout) -> None:
    """Byte-identical device state: every buffer, free list and cursor."""
    for code in LEAF_TYPE_CODES:
        for attr in ("keys", "key_lens", "values"):
            assert np.array_equal(
                getattr(a.leaves[code], attr), getattr(b.leaves[code], attr)
            ), f"leaf[{code}].{attr} diverged"
    for code in NODE_TYPE_CODES:
        for attr in ("keys", "children", "child_index", "counts",
                     "prefix", "prefix_len"):
            x = getattr(a.nodes[code], attr)
            y = getattr(b.nodes[code], attr)
            if x is not None:
                assert np.array_equal(x, y), f"node[{code}].{attr} diverged"
    assert a.free_leaves == b.free_leaves
    assert a._next_leaf == b._next_leaf
    assert a.root_link == b.root_link


def _scalar_updates(layout, stream):
    """Per-key oracle: one single-row update batch per item, in order."""
    engine = UpdateEngine(layout)
    found = []
    for k, v in stream:
        mat, lens = keys_to_matrix([k])
        res = engine.apply(mat, lens, np.array([v], dtype=np.uint64))
        found.append(bool(res.found[0]))
    return found


class TestUpdateLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_update_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        keys = random_keys(256, 12, seed=seed)
        pool = keys + random_keys(32, 12, seed=seed + 999)  # some misses
        batched, scalar = _build(keys), _build(keys)
        # duplicates are frequent: 300 draws from 288 candidates
        idx = rng.integers(0, len(pool), size=300)
        vals = rng.integers(1, 1 << 40, size=300).astype(np.uint64)
        stream = [(pool[i], int(v)) for i, v in zip(idx, vals)]

        mat, lens = keys_to_matrix([k for k, _ in stream])
        res = UpdateEngine(batched).apply(mat, lens, vals)
        found_oracle = _scalar_updates(scalar, stream)

        assert res.found.tolist() == found_oracle
        _assert_layouts_equal(batched, scalar)

    def test_intra_batch_duplicates_last_writer_wins(self):
        keys = random_keys(64, 12, seed=5)
        layout = _build(keys)
        k = keys[7]
        stream = [(k, 111), (keys[9], 5), (k, 222), (k, 333)]
        mat, lens = keys_to_matrix([q for q, _ in stream])
        vals = np.array([v for _, v in stream], dtype=np.uint64)
        res = UpdateEngine(layout).apply(mat, lens, vals)
        # the highest thread index is the sole winner for the hot key
        assert res.winners.tolist() == [False, True, False, True]
        assert res.conflicts_eliminated == 2
        got = lookup_batch(layout, *keys_to_matrix([k, keys[9]]))
        assert got.values.tolist() == [333, 5]


class TestDeleteLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_delete_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        keys = random_keys(300, 12, seed=seed)
        batched, scalar = _build(keys), _build(keys)
        picks = rng.permutation(len(keys))[:180]  # distinct targets
        del_keys = [keys[i] for i in picks] + random_keys(20, 12,
                                                          seed=seed + 7)
        mat, lens = keys_to_matrix(del_keys)
        res = delete_batch(batched, mat, lens)

        deleted_oracle = []
        for k in del_keys:
            m1, l1 = keys_to_matrix([k])
            r1 = delete_batch(scalar, m1, l1)
            deleted_oracle.append(bool(r1.deleted[0]))

        assert res.deleted.tolist() == deleted_oracle
        _assert_layouts_equal(batched, scalar)

    def test_duplicate_deletes_share_one_clear(self):
        keys = random_keys(64, 12, seed=8)
        batched, scalar = _build(keys), _build(keys)
        k = keys[3]
        res = delete_batch(batched, *keys_to_matrix([k, k, k]))
        # dedup losers still report success (their location is cleared)
        assert res.deleted.tolist() == [True, True, True]
        assert res.unlinked == 1
        delete_batch(scalar, *keys_to_matrix([k]))
        _assert_layouts_equal(batched, scalar)


def _write_rows(rng, pool, n_keys):
    """A write batch honouring the coalescer's write-class contract:
    per key, zero or more updates then at most one delete, with the
    per-key chains interleaved at random (stream order kept per key)."""
    chains = []
    for i in rng.permutation(len(pool))[:n_keys]:
        k = pool[i]
        vals = rng.integers(1, 1 << 40, size=int(rng.integers(0, 4)))
        chain = [(k, int(v)) for v in vals]
        if not chain or rng.random() < 0.5:
            chain.append((k, None))
        chains.append(chain)
    rows = []
    live = [c[::-1] for c in chains]
    while live:
        j = int(rng.integers(len(live)))
        rows.append(live[j].pop())
        if not live[j]:
            live.pop(j)
    return rows


#: stage-0 lockstep cases: engine configurations a lookup riding a
#: write launch must not notice.
STAGE0_CASES = ["plain", "cache", "abort", "open-circuit", "halving"]


class _FaultHooks:
    """Fault hooks that abort the first kernel launch (``abort_first``)
    or every circuit probe (``fail_probes``) and pass everything else."""

    def __init__(self, *, abort_first=False, fail_probes=False):
        self.abort_first = abort_first
        self.fail_probes = fail_probes

    def on_kernel_launch(self, op, batch_size):
        if self.abort_first or (self.fail_probes and op == "probe"):
            self.abort_first = False
            raise TransientKernelError(
                "injected launch abort", fault="kernel_abort", op=op,
                batch_size=batch_size,
            )

    def on_transfer(self, nbytes, *, direction, op=None):
        pass

    def on_hashtable(self, op, n_keys):
        pass

    def on_alloc(self, nbytes, what, *, op=None):
        pass


def _stage0_engine(keys, case):
    cfg = {"batch_size": 512, "spare": 0.5}
    if case == "cache":
        cfg["cache_size"] = 256
    elif case == "halving":
        # growth is capped at the table's size: a full table halves the
        # launch instead
        cfg["hash_slots"] = 32
        cfg["resilience"] = ResiliencePolicy(max_hash_slots=32)
    elif case != "plain":
        cfg["resilience"] = ResiliencePolicy()
    eng = CuartEngine(**cfg)
    eng.populate([(k, i + 1) for i, k in enumerate(keys)])
    eng.map_to_device()
    if case == "abort":
        eng._injector = _FaultHooks(abort_first=True)
    elif case == "open-circuit":
        eng._injector = _FaultHooks(fail_probes=True)
        for _ in range(eng.device_health.unhealthy_after):
            eng.device_health.mark_failure()
    return eng


class TestFusedWriteLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_write_batch_matches_scalar_oracle(self, seed):
        """One write launch over update and delete rows — same-key
        update→delete pairs, duplicate updates, misses — equals the rows
        applied one single-row kernel at a time, in stream order."""
        rng = np.random.default_rng(seed)
        keys = random_keys(256, 12, seed=seed)
        pool = keys + random_keys(32, 12, seed=seed + 999)  # some misses
        rows = _write_rows(rng, pool, 160)
        dup_keys = {k for k, v in rows if v is not None}
        pairs = {k for k, v in rows if v is None} & dup_keys
        assert pairs, "no same-key update→delete pair drawn"
        assert len(dup_keys) < sum(v is not None for _, v in rows)

        def engine():
            eng = CuartEngine(batch_size=512, spare=0.5)
            eng.populate([(k, i + 1) for i, k in enumerate(keys)])
            eng.map_to_device()
            return eng

        fused, oracle = engine(), engine()
        res = fused.write(rows)
        assert fused.last_report.batches == 1  # one launch

        updater = UpdateEngine(oracle.layout)
        found_oracle = []
        model = dict(oracle.tree.items())
        for k, v in rows:
            mat, lens = keys_to_matrix([k])
            if v is None:
                r = delete_batch(oracle.layout, mat, lens)
                found_oracle.append(bool(r.deleted[0]))
                model.pop(k, None)
            else:
                r = updater.apply(mat, lens, np.array([v], dtype=np.uint64))
                found_oracle.append(bool(r.found[0]))
                if k in model:
                    model[k] = v

        assert res.found_array.tolist() == found_oracle
        _assert_layouts_equal(fused.layout, oracle.layout)
        # the deferred host-tree mirror replays the launch order too
        assert dict(fused.tree.items()) == model

    @pytest.mark.parametrize("case", STAGE0_CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stage0_lookups_match_two_launches_and_oracle(self, seed, case):
        """Lookup rows riding a write launch as stage 0 — including
        lookups of keys the same launch updates or deletes — read the
        state before the launch: their answers, the write results and
        the canonical serialized layout equal two separate launches
        (lookups first) and the serial oracle, with the hot-key cache
        on, under a launch abort, through an open circuit's CPU path
        and across ``HashTableFullError`` halving."""
        rng = np.random.default_rng(seed)
        keys = random_keys(256, 12, seed=seed)
        pool = keys + random_keys(32, 12, seed=seed + 999)  # some misses
        rows = _write_rows(rng, pool, 160)
        written = list(dict.fromkeys(k for k, _ in rows))
        lookups = [pool[i] for i in rng.integers(0, len(pool), size=96)]
        lookups += written[:40]  # keys this launch updates or deletes
        rng.shuffle(lookups)
        assert any(v is None for k, v in rows if k in set(lookups))

        fused, two, oracle = (_stage0_engine(keys, case) for _ in range(3))
        if case == "cache":
            # warm part of the lookup keys, so stage 0 ships only misses
            for eng in (fused, two):
                eng.lookup(lookups[::3])
        lres, wres = fused.submit("write", rows, lookups=lookups)
        two_l = two.submit("lookup", lookups)
        two_w = two.submit("write", rows)

        # the serial oracle: single-row lookups, then single-row writes
        before = [lookup_batch(oracle.layout, *keys_to_matrix([k]))
                  for k in lookups]
        expect_l = [None if r.values[0] == np.uint64(NIL_VALUE)
                    else int(r.values[0]) for r in before]
        updater = UpdateEngine(oracle.layout)
        expect_w = []
        model = dict(oracle.tree.items())
        for k, v in rows:
            mat, lens = keys_to_matrix([k])
            if v is None:
                expect_w.append(bool(delete_batch(
                    oracle.layout, mat, lens).deleted[0]))
                model.pop(k, None)
            else:
                expect_w.append(bool(updater.apply(
                    mat, lens, np.array([v], dtype=np.uint64)).found[0]))
                if k in model:
                    model[k] = v

        assert lres.to_list() == two_l.to_list() == expect_l
        assert wres.found_array.tolist() == two_w.found_array.tolist() \
            == expect_w
        if case == "halving":
            assert fused.last_report.batches > 1  # the launch was split
        elif case != "open-circuit":
            assert fused.last_report.batches == 1  # one launch
        if case == "abort":
            assert set(lres.status) == set(wres.status) == {
                int(OpStatus.RETRIED)}
        if case == "open-circuit":
            # the CPU answered the lookups before it applied the rows;
            # once the circuit closes, both engines re-map alike
            assert set(lres.status) == set(wres.status) == {
                int(OpStatus.DEGRADED_CPU)}
            for eng in (fused, two):
                eng._injector = None
                eng.device_health.recover()
                eng.map_to_device()
            _assert_layouts_equal(fused.layout, two.layout)
        else:
            _assert_layouts_equal(fused.layout, oracle.layout)
            _assert_layouts_equal(two.layout, oracle.layout)
        assert dict(fused.tree.items()) == dict(two.tree.items()) == model
        if case == "cache":
            # stage 0 filled the cache first, then the write rows
            # refreshed it: the cache holds the written values
            looked = written[:40]
            hits = fused.cache.stats.hits
            assert fused.lookup(looked) == [model.get(k) for k in looked]
            assert fused.cache.stats.hits - hits == len(looked)

    @pytest.mark.parametrize("root_table_depth", [None, 2])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_walk_equals_three_kernels_in_turn(
        self, seed, root_table_depth, monkeypatch, tmp_path
    ):
        """A launch's lookup, update and delete rows walk the tree once,
        together, keys padded to the widest row.  Against the reference
        — the lookup, update and delete kernels run one after another,
        each walking its own rows — the answers, the leaf buffers, the
        free lists and the saved layout are equal, and the launch issues
        the same transactions by class; its chain of dependent rounds is
        the joint walk's plus the two dedup stages'."""
        rng = np.random.default_rng(seed)
        keys = random_keys(256, 12, seed=seed)
        pool = keys + random_keys(32, 12, seed=seed + 999)  # some misses
        rows = _write_rows(rng, pool, 160)
        written = list(dict.fromkeys(k for k, _ in rows))
        lookups = [pool[i] for i in rng.integers(0, len(pool), size=64)]
        # keys this launch writes, and absent keys narrower and wider
        # than every write row
        lookups += (written[:40] + random_keys(8, 5, seed=seed + 1)
                    + random_keys(8, 16, seed=seed + 2))
        rng.shuffle(lookups)

        def engine():
            eng = CuartEngine(batch_size=512, spare=0.5,
                              root_table_depth=root_table_depth)
            eng.populate([(k, i + 1) for i, k in enumerate(keys)])
            eng.map_to_device()
            return eng

        fused, ref = engine(), engine()
        walks = []

        def walk_spy(*args, **kwargs):
            walks.append(lookup_batch(*args, **kwargs))
            return walks[-1]

        monkeypatch.setattr(engine_module, "lookup_batch", walk_spy)
        lres, wres = fused.submit("write", rows, lookups=lookups)
        (walk,) = walks  # one walk for the whole launch
        log = walk.log
        assert fused.last_report.batches == 1

        # the reference: three kernels in turn over the same rows
        rt = ref.root_table
        upd = [(k, v) for k, v in rows if v is not None]
        dels = [k for k, v in rows if v is None]
        l_mat, l_lens = keys_to_matrix(lookups)
        u_mat, u_lens = keys_to_matrix([k for k, _ in upd])
        d_mat, d_lens = keys_to_matrix(dels)
        joint = lookup_batch(ref.layout, *keys_to_matrix(
            lookups + [k for k, _ in rows]), root_table=rt)
        looked = lookup_batch(ref.layout, l_mat, l_lens, root_table=rt)
        updater = UpdateEngine(ref.layout, root_table=rt,
                               hash_slots=ref.hash_slots,
                               hash_table=ref.hash_table)
        u_walk = lookup_batch(ref.layout, u_mat, u_lens, root_table=rt)
        u = updater.apply(u_mat, u_lens,
                          np.array([v for _, v in upd], dtype=np.uint64))
        d_walk = lookup_batch(ref.layout, d_mat, d_lens, root_table=rt)
        d = delete_batch(ref.layout, d_mat, d_lens, root_table=rt,
                         table=updater.conflict_table())

        assert lres.to_list() == [
            None if v == np.uint64(NIL_VALUE) else int(v)
            for v in looked.values]
        is_del = np.array([v is None for _, v in rows])
        expect = np.zeros(len(rows), dtype=bool)
        expect[~is_del] = u.found
        expect[is_del] = d.deleted
        assert wres.found_array.tolist() == expect.tolist()
        _assert_layouts_equal(fused.layout, ref.layout)
        saved = []
        for eng in (fused, ref):
            path = tmp_path / f"layout{len(saved)}.npz"
            save_layout(eng.layout, path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

        logs = (looked.log, u.log, d.log)
        assert log.by_class == sum((lg.by_class for lg in logs), Counter())
        assert log.atomic_ops == sum(lg.atomic_ops for lg in logs)
        assert log.compute_cycles == sum(lg.compute_cycles for lg in logs)
        dedup = (u.log.dependent_rounds - u_walk.log.dependent_rounds
                 + d.log.dependent_rounds - d_walk.log.dependent_rounds)
        assert dedup > 0
        assert log.dependent_rounds == joint.log.dependent_rounds + dedup
        assert log.dependent_rounds < sum(lg.dependent_rounds for lg in logs)

    def test_rows_run_in_launch_order_not_row_order(self):
        """Outside the coalescer's contract (an update after a delete of
        its key in one batch) the launch order still rules, on the
        device and in the host-tree mirror: update stage, then delete
        stage."""
        keys = random_keys(64, 12, seed=4)
        eng = CuartEngine(batch_size=64)
        eng.populate([(k, i + 1) for i, k in enumerate(keys)])
        eng.map_to_device()
        k = keys[5]
        res = eng.write([(k, None), (k, 77), (keys[6], 9)])
        assert res.found_array.tolist() == [True, True, True]
        assert eng.lookup([k, keys[6]]) == [None, 9]
        assert k not in dict(eng.tree.items())


def _claim_only_workload(seed):
    """Base and fresh key sets whose claims never interact.

    Every key gets a distinct first byte, so the root is an ``N256``
    (never grows) and each fresh key is a ``NO_CHILD`` claim at a
    distinct (node, byte) slot — the regime where the vectorized claim
    scatter promises byte-identical buffers against the scalar oracle.
    """
    rng = np.random.default_rng(seed)
    firsts = rng.permutation(256)
    base_first, fresh_first = firsts[:120], firsts[120:200]

    def mk(fbytes, salt):
        r = np.random.default_rng(seed + salt)
        return [
            bytes([int(b)])
            + r.integers(0, 256, size=11, dtype=np.uint8).tobytes()
            for b in fbytes
        ]

    return mk(base_first, 101), mk(fresh_first, 202)


class TestInsertClaimLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_claim_only_batch_matches_scalar_oracle(self, seed):
        base, fresh = _claim_only_workload(seed)
        batched, scalar = _build(base, spare=1.0), _build(base, spare=1.0)
        vals = np.arange(1, len(fresh) + 1, dtype=np.uint64) * 7

        mat, lens = keys_to_matrix(fresh)
        res = InsertEngine(batched).apply(mat, lens, vals)

        oracle_engine = InsertEngine(scalar)
        inserted_oracle = []
        for k, v in zip(fresh, vals):
            m1, l1 = keys_to_matrix([k])
            r1 = oracle_engine.apply(m1, l1, np.array([v], dtype=np.uint64))
            inserted_oracle.append(bool(r1.inserted[0]))

        assert res.inserted.all()
        assert res.inserted.tolist() == inserted_oracle
        _assert_layouts_equal(batched, scalar)
        # both sides serve the union of old and new keys identically
        allk = base + fresh
        ga = lookup_batch(batched, *keys_to_matrix(allk))
        gb = lookup_batch(scalar, *keys_to_matrix(allk))
        assert np.array_equal(ga.values, gb.values)
        assert not np.any(ga.values == np.uint64(NIL_VALUE))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_batch_converges_to_scalar_content(self, seed):
        """Structurally interacting fresh keys (shared claim sites) defer
        losers to a retry pass instead of matching the scalar oracle
        byte-for-byte; repeated application must converge to the same
        served content."""
        base = random_keys(200, 12, seed=seed)
        known = set(base)
        fresh = [k for k in random_keys(120, 12, seed=seed + 1)
                 if k not in known]
        # enough spare that node/leaf capacity never binds: under
        # exhaustion the *last* slot goes to whichever key allocates
        # first, which legitimately differs between the two orders
        batched, scalar = _build(base, spare=3.0), _build(base, spare=3.0)
        vals = np.arange(1, len(fresh) + 1, dtype=np.uint64) * 7

        engine = InsertEngine(batched)
        mat, lens = keys_to_matrix(fresh)
        pending = np.arange(len(fresh))
        for _ in range(8):
            res = engine.apply(mat[pending], lens[pending], vals[pending])
            pending = pending[res.deferred]
            if pending.size == 0:
                break

        oracle_engine = InsertEngine(scalar)
        oracle_deferred = []
        for k, v in zip(fresh, vals):
            m1, l1 = keys_to_matrix([k])
            r1 = oracle_engine.apply(m1, l1, np.array([v], dtype=np.uint64))
            oracle_deferred.append(bool(r1.deferred[0]))

        # the same rows end up host-deferred, and both sides serve the
        # same key -> value map afterwards (buffer layout may differ)
        assert sorted(pending.tolist()) == [
            i for i, d in enumerate(oracle_deferred) if d
        ]
        allk = base + fresh
        ga = lookup_batch(batched, *keys_to_matrix(allk))
        gb = lookup_batch(scalar, *keys_to_matrix(allk))
        assert np.array_equal(ga.values, gb.values)

    def test_duplicate_new_keys_highest_thread_wins(self):
        base = random_keys(64, 12, seed=21)
        known = set(base)
        k = next(x for x in random_keys(8, 12, seed=22) if x not in known)
        layout = _build(base, spare=1.0)
        engine = InsertEngine(layout)
        mat, lens = keys_to_matrix([k, k, k])
        vals = np.array([10, 20, 30], dtype=np.uint64)
        res = engine.apply(mat, lens, vals)
        # one claim winner (the highest thread), losers deferred
        assert res.inserted.tolist() == [False, False, True]
        assert res.deferred.tolist() == [True, True, False]
        got = lookup_batch(layout, *keys_to_matrix([k]))
        assert got.values.tolist() == [30]
        # a second pass converges the losers into plain value updates
        res2 = engine.apply(mat, lens, vals)
        assert res2.n_inserted == 0 and res2.n_deferred == 0
        got = lookup_batch(layout, *keys_to_matrix([k]))
        assert got.values.tolist() == [30]  # LWW again

    def test_delete_then_insert_reuses_freed_slot(self):
        base = random_keys(128, 12, seed=33)
        layout = _build(base, spare=0.5)
        victim = base[11]
        res = delete_batch(layout, *keys_to_matrix([victim]))
        assert res.unlinked == 1
        vcode = [c for c in LEAF_TYPE_CODES if layout.free_leaves[c]]
        assert len(vcode) == 1
        freed = layout.free_leaves[vcode[0]][-1]

        known = set(base)
        newk = next(x for x in random_keys(8, 12, seed=34)
                    if x not in known)
        ins = InsertEngine(layout).apply(
            *keys_to_matrix([newk]), np.array([909], dtype=np.uint64)
        )
        assert ins.n_inserted == 1
        # the freed slot was recycled ("the leaf index is pushed into a
        # list of free leaves which can be used for future inserts")
        assert layout.free_leaves[vcode[0]] == []
        got = lookup_batch(layout, *keys_to_matrix([newk]))
        assert int(link_types(got.locations)[0]) == vcode[0]
        assert int(link_indices(got.locations)[0]) == freed
        assert got.values.tolist() == [909]
