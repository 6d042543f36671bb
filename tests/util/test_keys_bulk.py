"""Property tests: the bulk key encoders against their scalar references.

The vectorized serving path rests on ``encode_key_batch`` /
``encode_int_batch`` / ``encode_str_batch`` producing byte-identical
output to the original per-key encoders, and on ``dedup_rows`` grouping
encoded rows exactly.  These tests pin that equivalence down, including
the awkward inputs (trailing NUL bytes, explicit widths, forced token
collisions).
"""

import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyEncodingError
from repro.util import keys as keys_mod
from repro.util.keys import (
    _keys_to_matrix_scalar,
    dedup_rows,
    encode_int,
    encode_int_batch,
    encode_key_batch,
    encode_str,
    encode_str_batch,
    keys_to_matrix,
)

byte_keys = st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=64)


@st.composite
def same_length_keys(draw):
    """Every key one length: the joined buffer reshapes into the matrix."""
    n = draw(st.integers(1, 64))
    length = draw(st.integers(1, 24))
    return draw(st.lists(st.binary(min_size=length, max_size=length),
                         min_size=n, max_size=n))


#: mixed lengths built from NUL-heavy bytes, so keys carry embedded and
#: trailing ``\x00`` bytes: the padded path (fixed-width rows).
nul_heavy_keys = st.lists(
    st.lists(st.sampled_from([0, 0, 1, 0x61, 0xFF]), min_size=1,
             max_size=24).map(bytes),
    min_size=2, max_size=64,
).filter(lambda ks: len(set(map(len, ks))) > 1)


class TestEncodeKeyBatch:
    @given(byte_keys)
    @settings(max_examples=200)
    def test_matches_scalar_reference(self, ks):
        mat, lens = encode_key_batch(ks)
        ref_mat, ref_lens = _keys_to_matrix_scalar(ks)
        np.testing.assert_array_equal(mat, ref_mat)
        np.testing.assert_array_equal(lens, ref_lens)

    @given(byte_keys, st.integers(24, 40))
    @settings(max_examples=100)
    def test_matches_scalar_reference_with_width(self, ks, width):
        mat, lens = encode_key_batch(ks, width=width)
        ref_mat, ref_lens = _keys_to_matrix_scalar(ks, width=width)
        np.testing.assert_array_equal(mat, ref_mat)
        np.testing.assert_array_equal(lens, ref_lens)

    @given(same_length_keys())
    @settings(max_examples=100)
    def test_same_length_keys_match_scalar_reference(self, ks):
        mat, lens = encode_key_batch(ks)
        ref_mat, ref_lens = _keys_to_matrix_scalar(ks)
        np.testing.assert_array_equal(mat, ref_mat)
        np.testing.assert_array_equal(lens, ref_lens)

    @given(nul_heavy_keys, st.sampled_from([None, 24, 31]))
    @settings(max_examples=100)
    def test_mixed_lengths_with_nuls_match_scalar_reference(self, ks, width):
        mat, lens = encode_key_batch(ks, width=width)
        ref_mat, ref_lens = _keys_to_matrix_scalar(ks, width=width)
        assert mat.dtype == ref_mat.dtype
        np.testing.assert_array_equal(mat, ref_mat)
        np.testing.assert_array_equal(lens, ref_lens)

    @pytest.mark.parametrize("ks", [
        [b"abc", b"def"],  # every key fills the width: reshape path
        [b"abc", b"d"],  # short keys: padded path
    ])
    def test_matrix_is_writable(self, ks):
        mat, _ = encode_key_batch(ks)
        assert mat.flags.writeable
        mat[0, 0] = 0x7A
        assert mat[0, 0] == 0x7A

    # str keys: test_str_keys_raise and test_mixed_keys_raise.  Buffers
    # join like bytes, but the tree stores and compares keys as bytes,
    # so every key is checked, on both paths, not just the first.
    @pytest.mark.parametrize("ks", [
        [b"ok", 7], [7], [b"ok", None],
        [b"ab", bytearray(b"cd")], [b"a", bytearray(b"cd")],
        [b"ab", memoryview(b"cd")], [b"a", memoryview(b"cd")],
        [b"ab", np.frombuffer(b"cd", dtype=np.uint8)],
        [b"ab", array.array("B", b"cd")],
    ])
    def test_non_bytes_keys_raise(self, ks):
        with pytest.raises(KeyEncodingError, match=type(ks[-1]).__name__):
            encode_key_batch(ks)

    @pytest.mark.parametrize("ks", [
        [b"ab", np.bytes_(b"c\x01")],  # every key fills the width: join
        [b"ab", np.bytes_(b"cd\x01"), np.bytes_(b"e")],  # padded rows
    ], ids=["join", "padded"])
    def test_bytes_subclass_keys_match_scalar_reference(self, ks):
        mat, lens = encode_key_batch(ks)
        ref_mat, ref_lens = _keys_to_matrix_scalar(ks)
        np.testing.assert_array_equal(mat, ref_mat)
        np.testing.assert_array_equal(lens, ref_lens)

    def test_trailing_nul_bytes_survive(self):
        # fixed-width bytes dtypes strip trailing NULs on *element*
        # access; the matrix view must still carry them
        mat, lens = encode_key_batch([b"a\x00\x00", b"b"])
        assert lens.tolist() == [3, 1]
        assert mat[0].tolist() == [ord("a"), 0, 0]

    def test_empty_batch(self):
        mat, lens = encode_key_batch([])
        assert mat.shape == (0, 1) and lens.size == 0

    def test_empty_key_raises(self):
        with pytest.raises(KeyEncodingError):
            encode_key_batch([b"ok", b""])

    def test_too_wide_key_raises(self):
        with pytest.raises(KeyEncodingError):
            encode_key_batch([b"abc"], width=2)

    def test_str_keys_raise(self):
        with pytest.raises(KeyEncodingError):
            encode_key_batch(["abc"])

    def test_mixed_keys_raise(self):
        with pytest.raises(KeyEncodingError):
            encode_key_batch([b"ok", "nope"])

    def test_keys_to_matrix_uses_bulk_path(self):
        ks = [b"alpha", b"beta"]
        mat, lens = keys_to_matrix(ks)
        ref_mat, ref_lens = _keys_to_matrix_scalar(ks)
        np.testing.assert_array_equal(mat, ref_mat)
        np.testing.assert_array_equal(lens, ref_lens)


class TestEncodeIntBatch:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32))
    @settings(max_examples=100)
    def test_matches_scalar_width8(self, vals):
        out = encode_int_batch(vals, width=8)
        for i, v in enumerate(vals):
            assert out[i].tobytes() == encode_int(v, 8)

    @given(
        st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=32),
        st.sampled_from([3, 4, 8, 12]),
    )
    @settings(max_examples=100)
    def test_matches_scalar_other_widths(self, vals, width):
        out = encode_int_batch(vals, width=width)
        for i, v in enumerate(vals):
            assert out[i].tobytes() == encode_int(v, width)

    def test_negative_raises(self):
        with pytest.raises(KeyEncodingError):
            encode_int_batch([1, -2])

    def test_overflow_raises(self):
        with pytest.raises(KeyEncodingError):
            encode_int_batch([256], width=1)


class TestEncodeStrBatch:
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_characters="\x00",
                    blacklist_categories=("Cs",),  # lone surrogates
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=100)
    def test_matches_scalar(self, texts):
        assert encode_str_batch(texts) == [encode_str(t) for t in texts]

    def test_nul_raises(self):
        with pytest.raises(KeyEncodingError):
            encode_str_batch(["ok", "b\x00ad"])


class TestDedupRows:
    @staticmethod
    def _check(ks):
        mat, lens = encode_key_batch(ks)
        first, inverse = dedup_rows(mat, lens)
        # every row's representative is byte- and length-identical to it
        rep = first[inverse]
        np.testing.assert_array_equal(mat[rep], mat)
        np.testing.assert_array_equal(lens[rep], lens)
        # distinct groups hold distinct keys
        uniq = {ks[int(i)] for i in first}
        assert len(uniq) == first.size == len(set(ks))

    @given(byte_keys)
    @settings(max_examples=200)
    def test_grouping_exact(self, ks):
        self._check(ks)

    def test_trailing_nul_not_merged_with_prefix(self):
        # the padded rows of b"a" and b"a\x00" are identical: only the
        # carried length can tell them apart
        self._check([b"a", b"a\x00", b"a", b"a\x00\x00"])

    def test_collision_fallback_is_exact(self, monkeypatch):
        # zero mixing constants collapse every row token to the same
        # value, forcing the verify step to reject the hash grouping and
        # take the exact memcmp fallback
        monkeypatch.setattr(keys_mod, "_MIX_A", np.uint64(0))
        monkeypatch.setattr(keys_mod, "_MIX_B", np.uint64(0))
        ks = [b"x", b"y", b"x", b"zz", b"y"]
        self._check(ks)
