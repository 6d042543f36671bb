"""Unified BatchResult / OpStatus API (repro.host.results)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.constants import NIL_VALUE
from repro.host.results import (
    BatchResult,
    OpStatus,
    status_codes,
    values_to_list,
)

NIL = np.uint64(NIL_VALUE)


def _lookup_result(**kw):
    vals = np.array([7, NIL, 42], dtype=np.uint64)
    return BatchResult("lookup", found=vals != NIL, values=vals, **kw)


class TestStatusCodes:
    def test_found_partitions_ok_not_found(self):
        st = status_codes(np.array([True, False, True]))
        assert st.tolist() == [OpStatus.OK, OpStatus.NOT_FOUND, OpStatus.OK]
        assert st.dtype == np.uint8

    def test_precedence_failed_beats_everything(self):
        found = np.array([True] * 5)
        st = status_codes(
            found,
            attempts=np.array([1, 2, 2, 2, 2]),
            degraded=np.array([False, False, True, True, False]),
            failed=np.array([False, False, False, True, True]),
        )
        assert st.tolist() == [
            OpStatus.OK,
            OpStatus.RETRIED,
            OpStatus.DEGRADED_CPU,
            OpStatus.FAILED,
            OpStatus.FAILED,
        ]

    def test_retry_overrides_not_found(self):
        # a retried miss reports RETRIED: the status says how it was
        # served, found_array says whether the key existed
        st = status_codes(np.array([False]), attempts=np.array([3]))
        assert st.tolist() == [OpStatus.RETRIED]

    def test_shed_status_exists_for_admission_control(self):
        # the serving front-end stamps SHED on ops rejected at the
        # queue; it never appears in device-produced status vectors
        assert OpStatus.SHED == 5
        assert OpStatus.SHED.name == "SHED"


class TestValuesToList:
    def test_nil_maps_to_none(self):
        vals = np.array([7, NIL, 42], dtype=np.uint64)
        assert values_to_list(vals) == [7, None, 42]

    def test_overrides_apply(self):
        vals = np.array([NIL, NIL], dtype=np.uint64)
        assert values_to_list(vals, {0: 99}) == [99, None]


class TestCanonicalAccessors:
    def test_lookup_shape(self):
        res = _lookup_result()
        assert res.op == "lookup"
        assert res.found_array.tolist() == [True, False, True]
        assert res.found_mask is res.found_array
        assert res.n_found == 2
        assert res.to_list() == [7, None, 42]
        assert res.attempts.tolist() == [1, 1, 1]  # defaults to one try
        assert res.summary is None

    def test_status_counters(self):
        res = _lookup_result(
            status=np.array(
                [OpStatus.RETRIED, OpStatus.DEGRADED_CPU, OpStatus.FAILED],
                dtype=np.uint8,
            ),
            attempts=np.array([4, 4, 4]),
        )
        assert res.n_retried == 1
        assert res.n_degraded == 1
        assert res.n_failed == 1
        assert not res.ok
        assert res.counts_by_status() == {
            "RETRIED": 1, "DEGRADED_CPU": 1, "FAILED": 1,
        }

    def test_ok_and_default_status(self):
        res = _lookup_result()
        assert res.ok
        assert res.counts_by_status() == {"OK": 2, "NOT_FOUND": 1}

    def test_write_result_to_list_is_found_flags(self):
        res = BatchResult("update", found=np.array([True, False]))
        assert res.to_list() == [True, False]
        assert res.value_array is None

    def test_overrides_resolve_host_side_rows(self):
        vals = np.array([NIL, NIL], dtype=np.uint64)
        res = BatchResult(
            "lookup", found=np.array([True, False]), values=vals,
            overrides={0: 99},
        )
        assert res.to_list() == [99, None]

    def test_take_fans_rows_out(self):
        """``take`` repeats rows: every op of a folded row reads the
        row's found flag, status and attempts."""
        res = BatchResult(
            "write", found=np.array([True, False]),
            status=np.array([OpStatus.RETRIED, OpStatus.NOT_FOUND],
                            dtype=np.uint8),
            attempts=np.array([2, 1]),
        )
        out = res.take(np.array([0, 1, 0, 0]))
        assert out.op == "write"
        assert out.to_list() == [True, False, True, True]
        assert out.counts_by_status() == {"RETRIED": 3, "NOT_FOUND": 1}
        assert out.attempts.tolist() == [2, 1, 2, 2]
        vals = np.array([NIL, 5], dtype=np.uint64)
        res = BatchResult("lookup", found=np.array([True, True]),
                          values=vals, overrides={0: 99})
        assert res.take(np.array([1, 0, 0])).to_list() == [5, 99, 99]

    def test_insert_summary_via_attribute(self):
        res = BatchResult(
            "insert", found=np.array([True]),
            summary={"device_inserted": 1, "deferred": 0},
        )
        assert res.summary["device_inserted"] == 1
        assert res.summary["deferred"] == 0


class TestSequenceProtocol:
    def test_len_iter_index_do_not_warn(self):
        res = _lookup_result()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(res) == 3
            assert list(res) == [7, None, 42]
            assert res[0] == 7
            assert res[1] is None
            assert res[-1] == 42
            assert res[0:2] == [7, None]

    def test_equality_against_plain_sequences(self):
        res = _lookup_result()
        assert res == [7, None, 42]
        assert res == (7, None, 42)
        assert res != [7, None, 41]
        assert res == _lookup_result()
        assert (res == object()) is False  # NotImplemented -> identity

    def test_repr_is_list_repr(self):
        assert repr(_lookup_result()) == "[7, None, 42]"


class TestShimsRetired:
    """The PR 4 deprecation shims completed their cycle and are gone;
    the -W error::DeprecationWarning CI gate stays honest because no
    code path can emit the shim warnings any more."""

    def test_legacy_accessors_removed(self):
        res = _lookup_result()
        with pytest.raises(AttributeError):
            res.values
        with pytest.raises(AttributeError):
            res.array
        with pytest.raises(AttributeError):
            res.hit_mask

    def test_string_getitem_removed(self):
        res = BatchResult(
            "insert", found=np.array([True]),
            summary={"device_inserted": 1},
        )
        with pytest.raises(TypeError):
            res["device_inserted"]

    def test_legacy_classes_removed(self):
        import repro.host.results as results

        assert not hasattr(results, "LazyValues")
        assert not hasattr(results, "FoundFlags")
