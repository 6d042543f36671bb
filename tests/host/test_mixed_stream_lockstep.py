"""Lockstep oracle tests for the pipelined mixed-stream scheduler.

The key-level coalescer + store-to-load forwarding let an interleaved
OLTP stream batch aggressively: same-key reads are answered from the
pending-write overlay, cross-class ops on different keys share no flush,
and ordering edges replace batch-granularity dependency cuts.  These
tests pin the whole executor — coalescer, forwarding, async submit/drain
dispatch — against the scalar sequential oracle: the same stream applied
one op at a time through a twin engine must produce identical per-op
results AND leave **byte-identical serialized device layouts**, including
adversarial read-after-write, write-after-write and duplicate-key-burst
interleavings on hot keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuart.serialize import save_layout
from repro.host.engine import CuartEngine
from repro.host.mixed import MixedWorkloadExecutor
from repro.workloads.queries import QueryMix, mixed_queries
from repro.workloads.synthetic import random_keys
from tests.cuart.test_write_path_lockstep import _assert_layouts_equal

SEEDS = [3, 17, 91]


def _engine(keys, *, batch_size=16) -> CuartEngine:
    eng = CuartEngine(batch_size=batch_size)
    eng.populate([(k, i + 1) for i, k in enumerate(keys)])
    eng.map_to_device()
    return eng


def _scalar_oracle(eng: CuartEngine, stream) -> list:
    """Apply the stream one single-op batch at a time, in order; returns
    the lookup results aligned with the stream's lookup ops."""
    out = []
    for kind, payload in stream:
        if kind == "lookup":
            out.append(eng.lookup([payload])[0])
        elif kind == "update":
            eng.update([payload])
        elif kind == "delete":
            eng.delete([payload])
        elif kind == "insert":
            eng.insert([payload])
        else:  # pragma: no cover - streams below never emit scans
            raise AssertionError(kind)
    return out


def _assert_lockstep(keys, stream, *, batch_size=16, tmp_path=None):
    pipelined = _engine(keys, batch_size=batch_size)
    scalar = _engine(keys, batch_size=batch_size)
    results, report = MixedWorkloadExecutor(pipelined).run(stream)
    oracle = _scalar_oracle(scalar, stream)

    assert results == oracle, "per-op lookup results diverged from serial"
    _assert_layouts_equal(pipelined.layout, scalar.layout)
    if tmp_path is not None:
        a, b = tmp_path / "pipelined.npz", tmp_path / "scalar.npz"
        save_layout(pipelined.layout, a)
        save_layout(scalar.layout, b)
        assert a.read_bytes() == b.read_bytes(), (
            "serialized layouts are not byte-identical"
        )
    return report


class TestMixedStreamLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_mixed_stream(self, seed, tmp_path):
        keys = random_keys(256, 12, seed=seed)
        mix = QueryMix(lookups=0.5, updates=0.35, deletes=0.15)
        stream = mixed_queries(keys, 600, mix, seed=seed + 1)
        report = _assert_lockstep(keys, stream, tmp_path=tmp_path)
        assert report.operations == 600
        # key-level tracking: no batch-granularity dependency cuts
        assert "write-dependency" not in report.flush_reasons

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_hot_key_raw_waw(self, seed, tmp_path):
        """Read-after-write and write-after-write chains concentrated on
        a tiny hot set — the regime that used to force a flush per run
        and now rides the forwarding overlay."""
        rng = np.random.default_rng(seed)
        keys = random_keys(64, 12, seed=seed)
        hot = keys[:6]
        stream = []
        for i in range(500):
            k = hot[int(rng.integers(len(hot)))]
            r = int(rng.integers(5))
            if r == 0:
                stream.append(("update", (k, 10_000 + i)))  # WAW chains
            elif r == 1:
                stream.append(("update", (k, 20_000 + i)))
                stream.append(("lookup", k))  # immediate RAW
            elif r == 2:
                stream.append(("delete", k))
                stream.append(("lookup", k))  # read-after-delete
            else:
                stream.append(("lookup", k))
        report = _assert_lockstep(keys, stream, tmp_path=tmp_path)
        # forwarding must actually engage on this stream
        assert sum(report.forwarded.values()) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_insert_resurrection_serves_serial_content(self, seed):
        """Delete → insert → read chains on hot keys.  Batched insert
        claims may recycle free-listed leaf slots in a different order
        than sequential singles, so buffer bytes can legitimately differ
        — but every per-op result and the final served key → value map
        must still match the serial oracle exactly."""
        rng = np.random.default_rng(seed + 7)
        keys = random_keys(64, 12, seed=seed)
        hot = keys[:8]
        stream = []
        for i in range(300):
            k = hot[int(rng.integers(len(hot)))]
            r = int(rng.integers(4))
            if r == 0:
                stream.append(("delete", k))
            elif r == 1:
                stream.append(("insert", (k, 30_000 + i)))
                stream.append(("lookup", k))
            elif r == 2:
                stream.append(("update", (k, 40_000 + i)))
            else:
                stream.append(("lookup", k))
        pipelined = _engine(keys)
        scalar = _engine(keys)
        results, _ = MixedWorkloadExecutor(pipelined).run(stream)
        oracle = _scalar_oracle(scalar, stream)
        assert results == oracle
        # both sides serve the identical final key -> value map
        assert pipelined.lookup(list(keys)) == scalar.lookup(list(keys))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicate_key_bursts(self, seed, tmp_path):
        """Bursts of identical ops on one key: duplicate deletes must
        report exactly one hit, duplicate updates are last-writer-wins,
        and the burst boundaries never corrupt neighbouring keys."""
        rng = np.random.default_rng(seed + 40)
        keys = random_keys(48, 12, seed=seed)
        stream = []
        for i in range(120):
            k = keys[int(rng.integers(len(keys)))]
            burst = int(rng.integers(2, 5))
            r = int(rng.integers(3))
            if r == 0:
                stream.extend([("delete", k)] * burst)
            elif r == 1:
                stream.extend(
                    ("update", (k, 1_000 * i + j)) for j in range(burst)
                )
            else:
                stream.extend([("lookup", k)] * burst)
            stream.append(("lookup", keys[int(rng.integers(len(keys)))]))
        _assert_lockstep(keys, stream, tmp_path=tmp_path)

    def test_report_tallies_match_oracle(self):
        """Hit/miss tallies — including forwarded ops that never reach
        the device — agree with a serial replay of the stream."""
        keys = random_keys(128, 12, seed=9)
        mix = QueryMix(lookups=0.6, updates=0.25, deletes=0.15)
        stream = mixed_queries(keys, 400, mix, seed=10)
        eng = _engine(keys)
        results, report = MixedWorkloadExecutor(eng).run(stream)

        state = {k: i + 1 for i, k in enumerate(keys)}
        hits = misses = upd_miss = del_miss = 0
        for kind, payload in stream:
            if kind == "lookup":
                if payload in state:
                    hits += 1
                else:
                    misses += 1
            elif kind == "update":
                if payload[0] in state:
                    state[payload[0]] = payload[1]
                else:
                    upd_miss += 1
            elif kind == "delete":
                if payload in state:
                    del state[payload]
                else:
                    del_miss += 1
        assert (report.hits, report.misses) == (hits, misses)
        assert report.update_misses == upd_miss
        assert report.delete_misses == del_miss
        assert sum(report.flush_reasons.values()) == report.batches
