"""Unit and property tests for the host Adaptive Radix Tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art.nodes import Leaf, Node4, Node16, Node48, Node256
from repro.art.tree import AdaptiveRadixTree
from repro.art.verify import verify_tree
from repro.errors import KeyEncodingError, KeyPrefixError
from repro.util.keys import encode_int


def make_tree(pairs):
    t = AdaptiveRadixTree()
    for k, v in pairs:
        t.insert(k, v)
    return t


class TestBasics:
    def test_empty(self):
        t = AdaptiveRadixTree()
        assert len(t) == 0
        assert t.search(b"x") is None
        assert t.minimum() is None and t.maximum() is None

    def test_single(self):
        t = make_tree([(b"hello\x00", 5)])
        assert t.search(b"hello\x00") == 5
        assert t.search(b"hellp\x00") is None
        assert len(t) == 1

    def test_two_keys_split_leaf(self):
        t = make_tree([(b"aa", 1), (b"ab", 2)])
        assert t.search(b"aa") == 1
        assert t.search(b"ab") == 2
        assert isinstance(t.root, Node4)
        assert t.root.prefix == b"a"

    def test_update_in_place(self):
        t = make_tree([(b"k1", 1)])
        t.insert(b"k1", 99)
        assert t.search(b"k1") == 99
        assert len(t) == 1

    def test_contains(self):
        t = make_tree([(b"q", 0)])
        assert b"q" in t
        assert b"r" not in t

    def test_version_bumps_on_mutation(self):
        t = AdaptiveRadixTree()
        v0 = t.version
        t.insert(b"a", 1)
        assert t.version > v0
        v1 = t.version
        t.delete(b"a")
        assert t.version > v1


class TestGrowth:
    def test_grows_through_all_node_types(self):
        t = AdaptiveRadixTree()
        for b in range(256):
            t.insert(bytes([0, b]), b)
        assert isinstance(t.root, Node256)
        for b in range(256):
            assert t.search(bytes([0, b])) == b

    @pytest.mark.parametrize(
        "n,expected",
        [(4, Node4), (5, Node16), (17, Node48), (49, Node256)],
    )
    def test_type_by_fanout(self, n, expected):
        t = AdaptiveRadixTree()
        for b in range(n):
            t.insert(bytes([b, 0]), b)
        assert isinstance(t.root, expected)


class TestPathCompression:
    def test_long_shared_prefix_single_node(self):
        t = make_tree([(b"aaaaaaaaaaaaaaaaaaaax", 1), (b"aaaaaaaaaaaaaaaaaaaay", 2)])
        assert isinstance(t.root, Node4)
        assert t.root.prefix == b"a" * 20
        assert t.search(b"aaaaaaaaaaaaaaaaaaaax") == 1

    def test_prefix_split(self):
        t = make_tree([(b"abcdef", 1), (b"abcxyz", 2), (b"abq", 3)])
        assert t.search(b"abcdef") == 1
        assert t.search(b"abcxyz") == 2
        assert t.search(b"abq") == 3
        assert t.root.prefix == b"ab"

    def test_lookup_shorter_than_prefix_misses(self):
        t = make_tree([(b"abcdef", 1), (b"abcxyz", 2)])
        assert t.search(b"ab") is None
        assert t.search(b"abc") is None

    def test_mismatch_inside_prefix_misses(self):
        t = make_tree([(b"abcdef", 1), (b"abcxyz", 2)])
        assert t.search(b"abZdef") is None


class TestPrefixKeyRejection:
    def test_insert_prefix_of_existing(self):
        t = make_tree([(b"abc", 1)])
        with pytest.raises(KeyPrefixError):
            t.insert(b"ab", 2)

    def test_insert_extension_of_existing(self):
        t = make_tree([(b"abc", 1)])
        with pytest.raises(KeyPrefixError):
            t.insert(b"abcd", 2)

    def test_prefix_ending_inside_inner_node(self):
        t = make_tree([(b"abcd", 1), (b"abce", 2)])
        with pytest.raises(KeyPrefixError):
            t.insert(b"abc", 3)

    def test_prefix_ending_at_split(self):
        t = make_tree([(b"abcdef", 1), (b"abcxyz", 2)])
        with pytest.raises(KeyPrefixError):
            t.insert(b"abc", 3)

    def test_rejected_key_inside_a_compressed_path_leaves_the_tree(self):
        t = make_tree([(b"abcX1", 1), (b"abcY1", 2)])
        with pytest.raises(KeyPrefixError):
            t.insert(b"ab", 3)
        assert t.root.prefix == b"abc"
        assert verify_tree(t) == []
        assert [t.search(k) for k in (b"abcX1", b"abcY1")] == [1, 2]


class TestValidation:
    def test_empty_key(self):
        with pytest.raises(KeyEncodingError):
            AdaptiveRadixTree().insert(b"", 1)

    def test_non_bytes_key(self):
        with pytest.raises(KeyEncodingError):
            AdaptiveRadixTree().insert("str", 1)  # type: ignore[arg-type]

    def test_nil_value_rejected(self):
        from repro.constants import NIL_VALUE

        with pytest.raises(KeyEncodingError):
            AdaptiveRadixTree().insert(b"k", NIL_VALUE)

    def test_negative_value_rejected(self):
        with pytest.raises(KeyEncodingError):
            AdaptiveRadixTree().insert(b"k", -1)

    def test_bytearray_key_changed_after_insert_leaves_the_tree(self):
        t = AdaptiveRadixTree()
        k = bytearray(b"abc\x00")
        t.insert(k, 1)
        t.insert(b"abd\x00", 2)
        k[2] = ord("z")
        assert list(t.items()) == [(b"abc\x00", 1), (b"abd\x00", 2)]
        assert all(type(key) is bytes for key, _ in t.items())
        assert t.search(b"abc\x00") == 1 and t.search(b"abd\x00") == 2
        assert verify_tree(t) == []


class TestDelete:
    def test_delete_only_key(self):
        t = make_tree([(b"solo", 1)])
        assert t.delete(b"solo")
        assert len(t) == 0 and t.root is None

    def test_delete_missing(self):
        t = make_tree([(b"a1", 1)])
        assert not t.delete(b"a2")
        assert not t.delete(b"zz")
        assert len(t) == 1

    def test_delete_collapses_node4_to_leaf(self):
        t = make_tree([(b"ka", 1), (b"kb", 2)])
        t.delete(b"ka")
        assert isinstance(t.root, Leaf)
        assert t.search(b"kb") == 2

    def test_delete_merges_prefix(self):
        t = make_tree([(b"aa_x", 1), (b"aa_y", 2), (b"ab", 3)])
        t.delete(b"ab")
        # root should collapse into the aa_ subtree with merged prefix
        assert t.search(b"aa_x") == 1 and t.search(b"aa_y") == 2
        assert isinstance(t.root, Node4)
        assert t.root.prefix == b"aa_"

    def test_delete_shrinks_node16(self):
        t = AdaptiveRadixTree()
        for b in range(5):
            t.insert(bytes([b, 1]), b)
        assert isinstance(t.root, Node16)
        t.delete(bytes([4, 1]))
        assert isinstance(t.root, Node4)
        for b in range(4):
            assert t.search(bytes([b, 1])) == b

    def test_delete_shrinks_node256(self):
        t = AdaptiveRadixTree()
        for b in range(49):
            t.insert(bytes([b, 1]), b)
        assert isinstance(t.root, Node256)
        t.delete(bytes([48, 1]))
        assert isinstance(t.root, Node48)

    def test_delete_all_in_random_order(self):
        import random

        keys = [encode_int(i * 7919, 8) for i in range(300)]
        t = make_tree([(k, i) for i, k in enumerate(keys)])
        order = keys[:]
        random.Random(3).shuffle(order)
        for i, k in enumerate(order):
            assert t.delete(k), k
            assert t.search(k) is None
            assert len(t) == len(keys) - i - 1
        assert t.root is None

    def test_delete_wrong_leaf_same_path(self):
        t = make_tree([(b"abcdef", 1), (b"abcxyz", 2)])
        # traverses to the abcdef leaf but the key differs
        assert not t.delete(b"abcdeg")
        assert t.search(b"abcdef") == 1


class TestOrderedAccess:
    def test_items_sorted(self):
        keys = [encode_int(v, 4) for v in (5, 1, 9, 3, 200, 128)]
        t = make_tree([(k, i) for i, k in enumerate(keys)])
        out = [k for k, _ in t.items()]
        assert out == sorted(keys)

    def test_min_max(self):
        t = make_tree([(b"m", 1), (b"a", 2), (b"z", 3)])
        assert t.minimum() == (b"a", 2)
        assert t.maximum() == (b"z", 3)

    def test_range_query(self):
        t = make_tree([(encode_int(v, 2), v) for v in range(0, 100, 7)])
        got = [v for _, v in t.range_query(encode_int(10, 2), encode_int(50, 2))]
        assert got == [v for v in range(0, 100, 7) if 10 <= v <= 50]

    def test_range_query_empty_interval(self):
        t = make_tree([(b"m", 1)])
        assert list(t.range_query(b"x", b"a")) == []

    def test_range_query_inclusive_bounds(self):
        t = make_tree([(b"a", 1), (b"b", 2), (b"c", 3)])
        assert [k for k, _ in t.range_query(b"a", b"c")] == [b"a", b"b", b"c"]

    def test_prefix_query(self):
        t = make_tree(
            [(b"app\x00", 1), (b"apple\x00", 2), (b"apply\x00", 3), (b"bat\x00", 4)]
        )
        got = [k for k, _ in t.prefix_query(b"appl")]
        assert got == [b"apple\x00", b"apply\x00"]

    def test_prefix_query_full_key(self):
        t = make_tree([(b"one\x00", 1), (b"two\x00", 2)])
        assert [v for _, v in t.prefix_query(b"one\x00")] == [1]

    def test_prefix_query_no_match(self):
        t = make_tree([(b"one\x00", 1)])
        assert list(t.prefix_query(b"xx")) == []

    def test_prefix_query_prefix_inside_compressed_path(self):
        t = make_tree([(b"commonXa", 1), (b"commonXb", 2)])
        assert len(list(t.prefix_query(b"com"))) == 2
        assert len(list(t.prefix_query(b"commonX"))) == 2
        assert list(t.prefix_query(b"commonY")) == []


# ---------------------------------------------------------------------------
# property-based: the tree must behave exactly like a dict with sorted keys
# ---------------------------------------------------------------------------

fixed_keys = st.binary(min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(fixed_keys, st.integers(0, 2**40), max_size=200))
def test_model_insert_search(pairs):
    t = make_tree(pairs.items())
    assert len(t) == len(pairs)
    for k, v in pairs.items():
        assert t.search(k) == v
    assert [k for k, _ in t.items()] == sorted(pairs)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(fixed_keys, st.integers(0, 2**40), min_size=1, max_size=120),
    st.data(),
)
def test_model_delete(pairs, data):
    t = make_tree(pairs.items())
    doomed = data.draw(
        st.lists(st.sampled_from(sorted(pairs)), unique=True, max_size=len(pairs))
    )
    for k in doomed:
        assert t.delete(k)
    remaining = {k: v for k, v in pairs.items() if k not in set(doomed)}
    assert len(t) == len(remaining)
    for k, v in remaining.items():
        assert t.search(k) == v
    for k in doomed:
        assert t.search(k) is None
    assert [k for k, _ in t.items()] == sorted(remaining)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(fixed_keys, st.integers(0, 2**20), max_size=150),
    fixed_keys,
    fixed_keys,
)
def test_model_range_query(pairs, a, b):
    lo, hi = min(a, b), max(a, b)
    t = make_tree(pairs.items())
    got = list(t.range_query(lo, hi))
    expect = sorted((k, v) for k, v in pairs.items() if lo <= k <= hi)
    assert got == expect


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.binary(min_size=1, max_size=6), st.integers(0, 99), max_size=80),
    st.binary(min_size=0, max_size=3),
)
def test_model_prefix_query(pairs, prefix):
    # filter to a prefix-free key set
    keys = sorted(pairs)
    pruned = {}
    for k in keys:
        if not any(k != o and k.startswith(o) for o in pruned):
            pruned[k] = pairs[k]
    t = make_tree(pruned.items())
    got = list(t.prefix_query(prefix))
    expect = sorted((k, v) for k, v in pruned.items() if k.startswith(prefix))
    assert got == expect
