"""The key-space-sharded engine: fixed scenarios of the serving-contract
machine (:mod:`tests.integration.test_serving_contract`).

Deterministic routing keeps every same-key conflict on one shard, so a
sharded run of any stream answers as a serial run does.  Each scenario
drives a :class:`~repro.host.sharding.ShardedEngine` through the
pipeline against a dict, then compares its canonical serialized layout
with a serial single engine's byte for byte.
"""

from __future__ import annotations

import pytest

from repro.host.mixed import MixedWorkloadExecutor
from tests.integration.test_serving_contract import (
    MIX,
    POOL,
    build_engine,
    canonical_bytes,
    drive,
    layout_bytes,
    random_steps,
)

SEEDS = [3, 17, 91]


def _on_distinct_shards(n, devices=4):
    """``n`` pool keys that a ``devices``-shard hash router spreads over
    ``n`` shards."""
    router = build_engine(devices=devices).router
    picked = {}
    for k in POOL:
        picked.setdefault(router.shard_of(k), k)
    assert len(picked) >= n
    return [picked[s] for s in sorted(picked)[:n]]


class TestCanonicalLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_mixed_stream(self, seed):
        drive(*random_steps(seed, 150, MIX), devices=4)

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_shard_count_invariance(self, n_shards):
        drive(*random_steps(11, 120, ("lookup", "update", "delete")),
              devices=n_shards)

    def test_range_mode_matches_hash_mode_content(self):
        drive(*random_steps(21, 120, MIX), devices=4, mode="range")


class TestAdversarialCrossShardBursts:
    """Hot keys on different shards, hammered in interleaved bursts."""

    def test_cross_shard_raw_waw_burst(self):
        hot = _on_distinct_shards(4)
        drive(*[("hot_burst", k) for k in hot * 3], devices=4)

    def test_cross_shard_delete_reinsert_burst(self):
        hot = _on_distinct_shards(4)
        m = drive(*[(rule, k) for k in hot * 3 for rule in
                    ("delete", "lookup", "insert", "lookup")], devices=4)
        assert m.core.report.misses == len(hot) * 3

    def test_duplicate_key_burst_last_writer_wins(self):
        hot = _on_distinct_shards(2)
        m = drive(*[("update", hot[i % 2]) for i in range(60)],
                  *[("lookup", k) for k in hot], devices=4)
        assert [want for _, _, want in m.admitted[-2:]] == [
            m.value - 1, m.value]


class TestFaultSoak:
    def test_faulty_shards_match_fault_free_oracle(self):
        """2% uniform faults, seeded apart per shard, under the retry
        policy: every op lands exactly once (the machine checks each
        answer and the replays)."""
        m = drive(*random_steps(61, 200, MIX), devices=4, faults=True)
        shards = m.engine.shards
        assert sum(s._injector.total_injected for s in shards) > 0
        assert len({s._injector.config.seed for s in shards}) == 4


class TestSingleShardDegenerate:
    def test_one_shard_is_byte_identical_to_plain_engine(self):
        """One shard serves everything: its own mapped layout (not a
        canonical one) is byte for byte a plain engine's."""
        steps = random_steps(71, 150, ("lookup", "update", "delete"))
        one_shard = drive(*steps, mode="range").engine
        plain = drive(*steps).engine
        assert layout_bytes(one_shard) == layout_bytes(plain)

    def test_rebalance_preserves_canonical_bytes(self):
        """Partitions migrate mid-stream: online through the pipeline,
        and between two offline runs (each builds a fresh pipeline)."""
        m = drive(*random_steps(81, 60, ("lookup", "update", "update")),
                  ("rebalance", None),
                  *random_steps(82, 60, ("lookup", "update", "delete")),
                  devices=4, mode="range")
        twin = build_engine(devices=4, mode="range")
        stream = [(kind, payload) for kind, payload, _ in m.admitted]
        half = len(stream) // 2
        got, _ = MixedWorkloadExecutor(twin).run(stream[:half])
        assert twin.rebalance()["moved_partitions"] > 0
        got += MixedWorkloadExecutor(twin).run(stream[half:])[0]
        assert got == [want for kind, _, want in m.admitted
                       if kind == "lookup"]
        assert canonical_bytes(twin) == canonical_bytes(m.engine)
