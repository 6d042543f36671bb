"""The pipelined mixed-stream scheduler on one device: fixed scenarios
of the serving-contract machine (:mod:`tests.integration.
test_serving_contract`).

The key-level coalescer and store-to-load forwarding batch an
interleaved OLTP stream aggressively; each scenario below drives it
with a burst the machine checks op by op against a dict, then replays
on the offline door and a serial engine (byte-identical layouts for
update/delete streams, canonical ones once inserts run).
"""

from __future__ import annotations

import pytest

from tests.integration.test_serving_contract import (
    MIX,
    POOL,
    drive,
    random_steps,
)

SEEDS = [3, 17, 91]


class TestMixedStreamLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_mixed_stream(self, seed):
        m = drive(*random_steps(seed, 150, MIX))
        # key-level tracking: no batch-granularity dependency cuts
        assert "write-dependency" not in m.core.report_snapshot().flush_reasons

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_hot_key_raw_waw(self, seed):
        """RAW and WAW chains on a tiny hot set ride the overlay."""
        m = drive(*random_steps(seed, 100, ("update", "lookup", "delete",
                                            "hot_burst"), pool=POOL[:6]))
        assert sum(m.core.report.forwarded.values()) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_insert_resurrection_serves_serial_content(self, seed):
        """Delete, insert and read chains on hot keys."""
        drive(*random_steps(seed + 7, 100, ("delete", "insert", "update",
                                            "lookup"), pool=POOL[:8]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicate_key_bursts(self, seed):
        """Runs of one op on one key: one delete hits, updates are
        last-writer-wins, neighbours stay intact."""
        drive(*random_steps(seed + 40, 60, ("delete", "update", "lookup"),
                            burst=4))

    def test_report_tallies_match_oracle(self):
        """Hits and misses, forwarded ones included, agree with the
        model after every step."""
        m = drive(*random_steps(9, 200, MIX))
        rep = m.core.report_snapshot()
        assert rep.operations == len(m.admitted)
        assert sum(rep.flush_reasons.values()) == rep.batches
