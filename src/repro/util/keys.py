"""Binary-comparable key encoding.

ART and its GPU derivatives index *binary-comparable* byte strings: the
lexicographic order of the encoded bytes must equal the desired key order
(Leis et al. 2013, section IV).  This module provides the standard
encoders used throughout the reproduction:

* fixed-width big-endian integers (the paper's "traditional columns where
  indexes are built of 8 (numeric IDs) ... byte keys"),
* UUID-like 16-byte keys,
* strings with a 0x00 terminator so no encoded key can be a proper prefix
  of another.

It also provides the dense ``(batch, width)`` uint8 key matrices consumed
by the vectorized device kernels.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import KeyEncodingError


def encode_int(value: int, width: int = 8) -> bytes:
    """Encode ``value`` as a big-endian unsigned integer of ``width`` bytes.

    Big-endian order makes numeric order equal byte-lexicographic order,
    which is what the ordered leaf buffers (section 3.2.1) rely on for
    range queries.

    >>> encode_int(1, 4).hex()
    '00000001'
    """
    if width <= 0:
        raise KeyEncodingError(f"width must be positive, got {width}")
    if value < 0:
        raise KeyEncodingError(f"negative keys are not binary-comparable: {value}")
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
        raise KeyEncodingError(f"{value} does not fit in {width} bytes") from exc


def decode_int(key: bytes) -> int:
    """Inverse of :func:`encode_int`."""
    return int.from_bytes(key, "big")


def encode_str(text: str, encoding: str = "utf-8") -> bytes:
    """Encode a string key with a 0x00 terminator.

    The terminator guarantees that no encoded key is a proper prefix of
    another encoded key, the precondition radix trees need to keep every
    key addressable (see :class:`repro.errors.KeyPrefixError`).
    """
    raw = text.encode(encoding)
    if b"\x00" in raw:
        raise KeyEncodingError("string keys must not contain NUL bytes")
    return raw + b"\x00"


def encode_uuid_like(hi: int, lo: int) -> bytes:
    """Encode a 128-bit (UUID-style) key from two 64-bit halves."""
    return encode_int(hi, 8) + encode_int(lo, 8)


def common_prefix_len(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def keys_to_matrix(
    keys: Sequence[bytes], width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pack a batch of byte keys into a dense ``(len(keys), width)`` uint8
    matrix plus a vector of key lengths.

    This is the host-side "coalescing" step of section 4.1: device kernels
    only consume fixed-stride buffers.  Keys shorter than ``width`` are
    zero-padded (the padding never participates in comparisons because the
    length vector is carried along).

    The whole batch is encoded in one vectorized pass (see
    :func:`encode_key_batch`).
    """
    return encode_key_batch(keys, width=width)


def _keys_to_matrix_scalar(
    keys: Sequence[bytes], width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The original per-key encoder (reference implementation; the bulk
    encoder is property-tested byte-identical against it)."""
    if width is None:
        width = max((len(k) for k in keys), default=1)
    n = len(keys)
    mat = np.zeros((n, width), dtype=np.uint8)
    lens = np.zeros(n, dtype=np.int64)
    for i, k in enumerate(keys):
        if len(k) > width:
            raise KeyEncodingError(
                f"key of length {len(k)} does not fit matrix width {width}"
            )
        if len(k) == 0:
            raise KeyEncodingError("empty keys cannot be indexed")
        mat[i, : len(k)] = np.frombuffer(k, dtype=np.uint8)
        lens[i] = len(k)
    return mat, lens


def encode_key_batch(
    keys: Sequence[bytes], width: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk-encode ``keys`` into one ``(len(keys), width)`` uint8 matrix +
    length vector without any per-key Python work.

    Every key must be ``bytes`` (``np.bytes_`` included).  When every
    key fills the width, the keys joined into one writable buffer are
    the matrix; otherwise NumPy copies each key into its zero-padded
    ``S{width}`` row in one C-level pass.  The type check and the length
    vector are the only other per-key passes, both C-level ``map``s.
    """
    n = len(keys)
    if n == 0:
        w = 1 if width is None else width
        return np.zeros((0, w), dtype=np.uint8), np.zeros(0, dtype=np.int64)
    if not set(map(type, keys)) <= {bytes}:
        for k in keys:
            if not isinstance(k, bytes):
                raise KeyEncodingError(
                    f"keys must be bytes, got {type(k).__name__}",
                    got=type(k).__name__,
                )
    lens = np.fromiter(map(len, keys), dtype=np.int64, count=n)
    longest = int(lens.max())
    if width is None:
        width = max(longest, 1)
    elif longest > width:
        raise KeyEncodingError(
            f"key of length {longest} does not fit matrix width {width}"
        )
    if not lens.all():
        raise KeyEncodingError("empty keys cannot be indexed")
    if int(lens.min()) == width:
        buf = bytearray().join(keys)
        return np.frombuffer(buf, dtype=np.uint8).reshape(n, width), lens
    mat = np.array(keys, dtype=f"S{width}").view(np.uint8).reshape(n, width)
    return mat, lens


#: multiply-xor mixing constants (64-bit golden-ratio / splitmix64).
_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)


def dedup_rows(
    mat: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group identical keys of an encoded batch: returns ``(first,
    inverse)`` with ``first`` the row index of each distinct key's first
    occurrence and ``inverse`` mapping every row to its group, so
    ``first[inverse[i]]`` is row ``i``'s representative.

    A padded row alone cannot distinguish ``b"a"`` from ``b"a\\x00"``,
    so the length participates.  The fast path sorts one mixed 64-bit
    token per row instead of memcmp-sorting whole rows, then *verifies*
    the grouping with a whole-array gather-compare; a (astronomically
    rare) token collision falls back to exact row sorting, so the result
    is always exact.
    """
    n, W = mat.shape
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    W8 = max((W + 7) // 8, 1)
    padded = np.zeros((n, W8 * 8), dtype=np.uint8)
    padded[:, :W] = mat
    words = padded.view(np.uint64)
    h = lens.astype(np.uint64) * _MIX_A
    for c in range(W8):
        h = (h ^ words[:, c]) * _MIX_B
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    rep = first[inverse]
    if bool((mat[rep] == mat).all()) and bool((lens[rep] == lens).all()):
        return first, inverse
    # token collision: exact fallback via memcmp sort of (row, len)
    aug = np.empty((n, W + 8), dtype=np.uint8)
    aug[:, :W] = mat
    aug[:, W:] = lens.astype("<u8")[:, None].view(np.uint8)
    void = aug.view(np.dtype((np.void, aug.shape[1])))[:, 0]
    _, first, inverse = np.unique(void, return_index=True, return_inverse=True)
    return first, inverse


def encode_int_batch(values, width: int = 8) -> np.ndarray:
    """Vectorized :func:`encode_int`: a ``(n, width)`` uint8 matrix whose
    row ``i`` is byte-identical to ``encode_int(values[i], width)``."""
    if width <= 0:
        raise KeyEncodingError(f"width must be positive, got {width}")
    try:
        arr = np.asarray(values, dtype=np.uint64)
    except (OverflowError, ValueError, TypeError) as exc:
        raise KeyEncodingError(
            f"integer keys must be non-negative and fit 64 bits: {exc}"
        ) from exc
    if width < 8 and arr.size and int(arr.max()) >> (8 * width):
        bad = int(arr[(arr >> np.uint64(8 * width)) > 0][0])
        raise KeyEncodingError(f"{bad} does not fit in {width} bytes")
    be = arr.astype(">u8").view(np.uint8).reshape(arr.size, 8)
    if width == 8:
        return be.copy()
    if width < 8:
        return be[:, 8 - width :].copy()
    out = np.zeros((arr.size, width), dtype=np.uint8)
    out[:, width - 8 :] = be
    return out


def encode_str_batch(texts: Sequence[str], encoding: str = "utf-8") -> list[bytes]:
    """Vectorized :func:`encode_str`: encode a batch of string keys (with
    the 0x00 terminator each) in one pass over one joined buffer."""
    if not texts:
        return []
    raw = "\x00".join(texts).encode(encoding)
    parts = raw.split(b"\x00")
    if len(parts) != len(texts):
        raise KeyEncodingError("string keys must not contain NUL bytes")
    return [p + b"\x00" for p in parts]


def matrix_to_keys(mat: np.ndarray, lens: np.ndarray) -> list[bytes]:
    """Inverse of :func:`keys_to_matrix`."""
    return [mat[i, : lens[i]].tobytes() for i in range(mat.shape[0])]


def sort_keys(keys: Iterable[bytes]) -> list[bytes]:
    """Lexicographically sorted copy of ``keys`` (the order the mapped
    leaf buffers must exhibit)."""
    return sorted(keys)


def encode_signed_int(value: int, width: int = 8) -> bytes:
    """Encode a *signed* integer order-preservingly.

    Two's complement does not sort lexicographically (negative values
    have the high bit set); flipping the sign bit restores the order —
    the standard index trick.

    >>> encode_signed_int(-1) < encode_signed_int(0) < encode_signed_int(1)
    True
    """
    if width <= 0:
        raise KeyEncodingError(f"width must be positive, got {width}")
    lo = -(1 << (8 * width - 1))
    hi = (1 << (8 * width - 1)) - 1
    if not lo <= value <= hi:
        raise KeyEncodingError(f"{value} does not fit a signed {width}-byte key")
    return (value - lo).to_bytes(width, "big")


def decode_signed_int(key: bytes) -> int:
    """Inverse of :func:`encode_signed_int`."""
    width = len(key)
    return int.from_bytes(key, "big") - (1 << (8 * width - 1))


def encode_float(value: float) -> bytes:
    """Encode an IEEE-754 double order-preservingly (8 bytes).

    Positive floats already sort by their bit pattern; negatives sort
    in reverse.  Flipping the sign bit for positives and all bits for
    negatives produces total lexicographic order (NaNs are rejected —
    they have no place in a total order).
    """
    import math
    import struct

    if isinstance(value, float) and math.isnan(value):
        raise KeyEncodingError("NaN keys are not orderable")
    (bits,) = struct.unpack(">Q", struct.pack(">d", float(value)))
    if bits & (1 << 63):
        bits ^= (1 << 64) - 1  # negative: flip everything
    else:
        bits ^= 1 << 63  # positive: flip the sign bit
    return bits.to_bytes(8, "big")


def decode_float(key: bytes) -> float:
    """Inverse of :func:`encode_float`."""
    import struct

    bits = int.from_bytes(key, "big")
    if bits & (1 << 63):
        bits ^= 1 << 63
    else:
        bits ^= (1 << 64) - 1
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


def encode_composite(*parts: bytes) -> bytes:
    """Concatenate already-encoded key parts into one composite key.

    Fixed-width parts (int/float encodings) compose directly.  A
    variable-width part (e.g. :func:`encode_str`) must not be a prefix
    of another value of the same column — ``encode_str``'s terminator
    guarantees that — and only the *last* part may vary in width,
    otherwise column boundaries would shift between keys.

    >>> k = encode_composite(encode_int(42, 4), encode_str("eu-west"))
    """
    if not parts:
        raise KeyEncodingError("composite keys need at least one part")
    for p in parts:
        if not isinstance(p, (bytes, bytearray)) or len(p) == 0:
            raise KeyEncodingError("composite parts must be non-empty bytes")
    return b"".join(parts)
