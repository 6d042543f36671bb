"""Unit tests for transaction-log accounting."""

import pytest

from repro.gpusim.transactions import TransactionLog


class TestTransactionLog:
    def test_empty(self):
        log = TransactionLog()
        assert log.total_transactions == 0
        assert log.total_bytes == 0
        assert log.dependent_rounds == 0

    def test_record_aggregates(self):
        log = TransactionLog()
        log.begin_round(100)
        log.record(64, 100)
        log.record(16, 50, aligned=False)
        assert log.total_transactions == 150
        assert log.total_bytes == 64 * 100 + 16 * 50
        assert log.unaligned_transactions == 50
        assert log.rounds[0].transactions == 150

    def test_record_without_round_opens_one(self):
        log = TransactionLog()
        log.launched_threads = 7
        log.record(8, 1)
        assert log.dependent_rounds == 1
        assert log.rounds[0].active_threads == 7

    def test_zero_count_ignored(self):
        log = TransactionLog()
        log.record(64, 0)
        assert log.total_transactions == 0

    def test_atomics_and_compute(self):
        log = TransactionLog()
        log.record_atomics(10)
        log.record_compute(500)
        assert log.atomic_ops == 10
        assert log.compute_cycles == 500

    def test_summary_keys(self):
        log = TransactionLog()
        log.begin_round(4)
        log.record(16, 4)
        s = log.summary()
        assert s["transactions"] == 4
        assert s["rounds"] == 1
