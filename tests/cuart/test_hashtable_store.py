"""The conflict table's host store against a dense reference model.

The simulated §3.4 table has ``slots`` records, but the host keeps only
the records a batch claimed.  :class:`DenseModel` re-states both
layouts' probe race one key at a time over a full slot array; the table
must place every key in the same slot, pick the same winners, answer
the same lookups and report the same six counters.  A footprint gate
holds the host state of a 2^20-slot table to the batch it resolves.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuart.hashtable import (
    BUCKET_RECORDS,
    HASH_TABLE_VARIANTS,
    make_conflict_table,
)
from repro.errors import HashTableFullError
from repro.gpusim.simt import WARP_SIZE

COUNTERS = ("occupied", "total_probes", "max_probe", "transactions",
            "probe_groups", "atomics")


def groups(homes, steps, n_homes) -> int:
    """Distinct ``(round, warp, bucket)`` triples of a bucketed probe."""
    return len({(s, t // WARP_SIZE, (h + s) % n_homes)
                for t, (h, k) in enumerate(zip(homes, steps))
                for s in range(k)})


class DenseModel:
    """Every slot as a list entry; contenders race in ascending key
    order, one probe round at a time, and the lowest contender takes the
    first free record of the slot (linear) or bucket (bucketed)."""

    def __init__(self, table):
        self.table = table  # hashing only
        self.width = BUCKET_RECORDS if table.variant == "bucketed" else 1
        self.n_homes = table.slots // self.width
        self.keys = [0] * table.slots
        self.vals = [-1] * table.slots
        self.reset()

    def reset(self):
        self.keys = [0] * len(self.keys)
        self.vals = [-1] * len(self.vals)
        self.stats = dict.fromkeys(COUNTERS, 0)

    def home(self, keys):
        return self.table._hash(np.array(keys, dtype=np.uint64)).tolist()

    def records(self, b):
        return range(b * self.width, (b + 1) * self.width)

    def _place(self, uniq):
        home = self.home(uniq)
        slot, steps, cas = [None] * len(uniq), [0] * len(uniq), 0
        pending = list(range(len(uniq)))
        while pending:
            ranked, claims, left = {}, [], []
            for i in pending:
                b = (home[i] + steps[i]) % self.n_homes
                steps[i] += 1
                recs = self.records(b)
                mine = [s for s in recs if self.keys[s] == uniq[i]]
                if mine:
                    slot[i] = mine[0]
                    continue
                free = [s for s in recs if self.keys[s] == 0]
                cas += bool(free)
                rank = ranked[b] = ranked.get(b, -1) + 1
                if rank < len(free):
                    slot[i] = free[rank]
                    claims.append(i)
                else:
                    left.append(i)
            for i in claims:
                self.keys[slot[i]] = uniq[i]
            pending = left
        return slot, steps, cas

    def _charge(self, keys, uniq, steps, cas):
        per_thread = [steps[uniq.index(k)] for k in keys]
        st_ = self.stats
        st_["total_probes"] += sum(per_thread)
        st_["max_probe"] = max(st_["max_probe"], max(steps))
        if self.width == 1:
            tx = sum(per_thread)
            st_["atomics"] += tx + len(keys)
        else:
            tx = groups(self.home(keys), per_thread, self.n_homes)
            st_["atomics"] += cas + len(keys)
        st_["transactions"] += tx
        st_["probe_groups"] += tx

    def insert_max(self, keys, prios, readback=False):
        uniq = sorted(set(keys))
        if len(uniq) > len(self.keys) - self.stats["occupied"]:
            raise HashTableFullError("full")
        slot, steps, cas = self._place(uniq)
        self.stats["occupied"] = sum(k != 0 for k in self.keys)
        self._charge(keys, uniq, steps, cas)
        for k, p in zip(keys, prios):
            s = slot[uniq.index(k)]
            self.vals[s] = max(self.vals[s], p)
        if readback:
            tx = (sum(steps) if self.width == 1
                  else groups(self.home(uniq), steps, self.n_homes))
            self.stats["transactions"] += tx
            self.stats["probe_groups"] += tx
            return [self.vals[slot[uniq.index(k)]] == p
                    for k, p in zip(keys, prios)]

    def lookup(self, keys):
        uniq = sorted(set(keys))
        found, steps = {}, []
        for k, h in zip(uniq, self.home(uniq)):
            n = 0
            for n in range(1, self.n_homes + 1):
                recs = self.records((h + n - 1) % self.n_homes)
                hit = [s for s in recs if self.keys[s] == k]
                if hit:
                    found[k] = self.vals[hit[0]]
                    break
                if any(self.keys[s] == 0 for s in recs):
                    break
            steps.append(n)
        per_thread = [steps[uniq.index(k)] for k in keys]
        st_ = self.stats
        st_["total_probes"] += sum(steps)
        st_["max_probe"] = max(st_["max_probe"], max(steps))
        tx = (sum(steps) if self.width == 1
              else groups(self.home(keys), per_thread, self.n_homes))
        st_["transactions"] += tx
        st_["probe_groups"] += tx
        return [found.get(k, -1) for k in keys]

    def placement(self):
        return {s: (k, v) for s, (k, v) in enumerate(zip(self.keys, self.vals))
                if k}


def placement(table):
    n = table.occupied
    assert (np.diff(table._slot) > 0).all()  # sorted, one record a slot
    assert table._slot[n] == table.slots  # the sentinel ends the records
    return dict(zip(table._slot[:n].tolist(),
                    zip(table._key[:n].tolist(), table._val[:n].tolist())))


def counters(table):
    return {name: getattr(table, name) for name in COUNTERS}


def step(table, model, op, keys, prios):
    """Run one op on both sides and compare results and state."""
    karr = np.array(keys, dtype=np.uint64)
    parr = np.array(prios, dtype=np.int64)
    if op == "reset":
        table.reset()
        model.reset()
    elif op == "lookup":
        assert table.lookup(karr).tolist() == model.lookup(keys)
    else:
        readback = op == "resolve_winners"
        try:
            want = model.insert_max(keys, prios, readback=readback)
        except HashTableFullError:
            with pytest.raises(HashTableFullError):
                getattr(table, op)(karr, parr)
        else:
            got = getattr(table, op)(karr, parr)
            if readback:
                assert got.tolist() == want
    assert placement(table) == model.placement()
    assert counters(table) == model.stats


def keys_homed_at(table, home, count, start=1):
    """``count`` keys whose probe starts at ``home`` (slot or bucket)."""
    out, k = [], start
    while len(out) < count:
        if table._hash(np.array([k], dtype=np.uint64))[0] == home:
            out.append(k)
        k += 1
    return out


@pytest.mark.parametrize("variant", HASH_TABLE_VARIANTS)
def test_wrap_around_high_load_and_two_inserts_before_a_reset(variant):
    table = make_conflict_table(64, variant=variant)
    model = DenseModel(table)
    width = BUCKET_RECORDS if variant == "bucketed" else 1
    last = table.slots // width - 1
    # more keys than the last slot or bucket holds: the chains wrap to 0
    wrap = keys_homed_at(table, last, 2 * width + 1)
    rng = np.random.default_rng(3)
    fill = [int(k) for k in rng.choice(2**40, 60, replace=False) + 1
            if int(k) not in wrap]
    first = wrap + fill[:20]
    second = fill[15:58 - len(wrap)]  # overlaps the first batch
    steps = [
        ("insert_max", first + first[:5], range(len(first) + 5)),
        ("insert_max", second, range(100, 100 + len(second))),
        ("lookup", first + second + [2**41], None),
        ("reset", [], []),
        ("resolve_winners", wrap * 3, range(3 * len(wrap))),
        ("lookup", wrap + fill[:3], None),
    ]
    loads = []
    for op, keys, prios in steps:
        prios = list(prios) if prios is not None else []
        step(table, model, op, keys, prios)
        loads.append(table.load_factor)
    assert max(loads) >= 0.9
    assert model.placement().keys() & set(range(width))  # wrapped to 0


KEYS = st.lists(st.integers(1, 2**40), min_size=1, max_size=40, unique=True)


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(HASH_TABLE_VARIANTS),
    log_slots=st.integers(3, 6),
    pool=KEYS,
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert_max", "resolve_winners", "lookup",
                             "reset"]),
            st.lists(st.integers(0, 39), max_size=60),
        ),
        min_size=1, max_size=6,
    ),
)
def test_store_matches_the_dense_model(variant, log_slots, pool, ops):
    table = make_conflict_table(1 << log_slots, variant=variant)
    model = DenseModel(table)
    for t, (op, idx) in enumerate(ops):
        keys = [pool[i % len(pool)] for i in idx]
        if op in ("insert_max", "resolve_winners", "lookup") and not keys:
            continue
        prios = [(7 * i + t) % 23 for i in range(len(keys))]
        step(table, model, op, keys, prios)


@pytest.mark.parametrize("variant", HASH_TABLE_VARIANTS)
def test_host_state_follows_the_batch_not_the_slots(variant):
    """A 2^20-slot table (16 MiB on the simulated device) resolving one
    8,192-key batch allocates under 2 MiB on the host."""
    keys = np.random.default_rng(7).integers(1, 2**40, 8192).astype(np.uint64)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = make_conflict_table(1 << 20, variant=variant)
        table.resolve_winners(keys, np.arange(keys.size))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert table.occupied == np.unique(keys).size
    assert table.load_factor == table.occupied / (1 << 20)
