"""Unit + property tests for approximate (Hamming) lookups."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuart.approx import approx_lookup
from repro.cuart.layout import CuartLayout
from repro.errors import ReproError
from repro.workloads import build_tree, random_keys

from tests.conftest import make_tree


def hamming(a: bytes, b: bytes) -> int:
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


@pytest.fixture(scope="module")
def fuzzy_layout():
    keys = random_keys(1200, 6, seed=121)
    return CuartLayout(build_tree(keys)), keys


class TestExactSubset:
    def test_distance_zero_equals_exact_lookup(self, fuzzy_layout):
        lay, keys = fuzzy_layout
        res = approx_lookup(lay, keys[17], max_mismatches=0)
        assert len(res) == 1
        assert res.matches[0].key == keys[17]
        assert res.matches[0].value == 17
        assert res.matches[0].distance == 0

    def test_missing_key_distance_zero(self, fuzzy_layout):
        lay, _ = fuzzy_layout
        assert len(approx_lookup(lay, b"\xee" * 6, max_mismatches=0)) == 0


class TestFuzzyMatching:
    def test_single_byte_corruption_recovered(self, fuzzy_layout):
        lay, keys = fuzzy_layout
        corrupted = bytearray(keys[50])
        corrupted[2] ^= 0xFF
        res = approx_lookup(lay, bytes(corrupted), max_mismatches=1)
        found = {m.key for m in res.matches}
        assert keys[50] in found
        target = next(m for m in res.matches if m.key == keys[50])
        assert target.distance == 1

    def test_corruption_in_first_byte(self, fuzzy_layout):
        lay, keys = fuzzy_layout
        corrupted = bytes([keys[9][0] ^ 0x01]) + keys[9][1:]
        res = approx_lookup(lay, corrupted, max_mismatches=1)
        assert keys[9] in {m.key for m in res.matches}

    def test_budget_respected(self, fuzzy_layout):
        lay, keys = fuzzy_layout
        corrupted = bytearray(keys[50])
        corrupted[1] ^= 0xFF
        corrupted[4] ^= 0xFF
        assert keys[50] not in {
            m.key for m in approx_lookup(lay, bytes(corrupted), 1).matches
        }
        assert keys[50] in {
            m.key for m in approx_lookup(lay, bytes(corrupted), 2).matches
        }

    def test_matches_sorted_by_distance(self, fuzzy_layout):
        lay, keys = fuzzy_layout
        res = approx_lookup(lay, keys[3], max_mismatches=2)
        dists = [m.distance for m in res.matches]
        assert dists == sorted(dists)
        assert res.best().key == keys[3]

    def test_different_length_never_matches(self):
        lay = CuartLayout(make_tree([(b"abcd", 1), (b"zzzz", 2)]))
        res = approx_lookup(lay, b"abc", max_mismatches=3)
        assert len(res) == 0

    def test_larger_budget_explores_more(self, fuzzy_layout):
        lay, keys = fuzzy_layout
        a = approx_lookup(lay, keys[0], max_mismatches=0)
        b = approx_lookup(lay, keys[0], max_mismatches=2)
        assert b.states_visited > a.states_visited
        assert b.log.total_transactions > a.log.total_transactions

    def test_validation(self, fuzzy_layout):
        lay, _ = fuzzy_layout
        with pytest.raises(ReproError):
            approx_lookup(lay, b"x", max_mismatches=-1)
        with pytest.raises(ReproError):
            approx_lookup(lay, b"", max_mismatches=1)

    def test_empty_layout(self):
        from repro.art.tree import AdaptiveRadixTree

        lay = CuartLayout(AdaptiveRadixTree())
        assert len(approx_lookup(lay, b"abc", 2)) == 0

    def test_long_shared_prefix_beyond_window(self):
        # optimistic prefix skip must not fabricate or lose matches
        p = b"w" * 20
        keys = [p + bytes([b, 5]) for b in range(10)]
        lay = CuartLayout(make_tree((k, i) for i, k in enumerate(keys)))
        probe = bytearray(keys[3])
        probe[5] ^= 0x10  # corrupt inside the skipped window
        res = approx_lookup(lay, bytes(probe), max_mismatches=1)
        assert keys[3] in {m.key for m in res.matches}
        # and the reported distance is the true full-key distance
        m = next(m for m in res.matches if m.key == keys[3])
        assert m.distance == 1

    def test_prefix_longer_than_a_narrow_window(self):
        # only the layout's stored window is compared on the way down
        keys = [b"p" * 10 + bytes([b]) + b"zz" for b in range(5)]
        lay = CuartLayout(make_tree((k, i) for i, k in enumerate(keys)),
                          prefix_window=4)
        res = approx_lookup(lay, keys[1], max_mismatches=1)
        assert [(m.key, m.distance) for m in res.matches][:1] == [(keys[1], 0)]
        assert len(res) == 5


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.binary(min_size=3, max_size=3), st.integers(0, 2**20),
                    min_size=1, max_size=80),
    st.binary(min_size=3, max_size=3),
    st.integers(0, 2),
)
def test_matches_brute_force(pairs, probe, k):
    lay = CuartLayout(make_tree(pairs.items()))
    res = approx_lookup(lay, probe, max_mismatches=k)
    expect = sorted(
        (hamming(key, probe), key)
        for key in pairs
        if hamming(key, probe) <= k
    )
    got = sorted((m.distance, m.key) for m in res.matches)
    assert got == expect
    for m in res.matches:
        assert m.value == pairs[m.key]
