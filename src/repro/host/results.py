"""Unified engine result API: :class:`BatchResult` + :class:`OpStatus`.

Every public engine operation (``lookup`` / ``update`` / ``insert`` /
``delete``) returns one :class:`BatchResult` carrying, per query:

* the raw kernel value vector (lookups) and the found-mask,
* an :class:`OpStatus` code — whether the op succeeded first try, was
  retried after a transient device fault, was served by the CPU
  degradation path, or failed outright,
* the attempt count the resilience layer spent on its batch,

so callers *observe* degradation instead of catching exceptions.

A :class:`BatchResult` still behaves like a plain result sequence — it
iterates / indexes over the Python-object results (lookup values /
found booleans) and compares equal to the equivalent ``list``.

The PR 4 deprecation shims (``LazyValues`` / ``FoundFlags`` and the
``.values`` / ``.array`` / ``.hit_mask`` / string ``[...]`` accessors)
completed their deprecation cycle and are gone; see the migration table
in ``docs/api.md``.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence as _SequenceABC
from typing import Optional

import numpy as np

from repro.constants import NIL_VALUE


def values_to_list(
    array: np.ndarray, overrides: Optional[dict] = None
) -> list:
    """Convert a raw uint64 kernel value vector (``NIL_VALUE`` = miss)
    to the Python-object list shape (``int`` / ``None``), applying
    host-resolved row overrides (long-key strategy b)."""
    obj = array.astype(object)
    obj[array == np.uint64(NIL_VALUE)] = None
    if overrides:
        for pos, val in overrides.items():
            obj[pos] = val
    return obj.tolist()


class OpStatus(enum.IntEnum):
    """Per-query outcome classification, strongest-signal-wins.

    ``RETRIED`` / ``DEGRADED_CPU`` describe *how* the query was served,
    not whether the key existed — read :attr:`BatchResult.found_array`
    for hit/miss.  ``FAILED`` only appears when every retry, recovery
    and degradation avenue was exhausted (with degradation enabled it
    should never occur).  ``SHED`` is assigned by the serving front-end
    (:mod:`repro.serve`) when admission control rejects an op on a full
    queue: the op never executed and should be retried after the
    returned ``retry_after_us``."""

    OK = 0
    NOT_FOUND = 1
    RETRIED = 2
    DEGRADED_CPU = 3
    FAILED = 4
    SHED = 5


def status_codes(
    found: np.ndarray,
    *,
    attempts: Optional[np.ndarray] = None,
    degraded: Optional[np.ndarray] = None,
    failed: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Build the per-query status vector with the canonical precedence
    ``FAILED > DEGRADED_CPU > RETRIED > NOT_FOUND > OK``."""
    st = np.where(
        np.asarray(found, dtype=bool),
        np.uint8(OpStatus.OK), np.uint8(OpStatus.NOT_FOUND),
    )
    if attempts is not None:
        st[np.asarray(attempts) > 1] = np.uint8(OpStatus.RETRIED)
    if degraded is not None:
        st[np.asarray(degraded, dtype=bool)] = np.uint8(OpStatus.DEGRADED_CPU)
    if failed is not None:
        st[np.asarray(failed, dtype=bool)] = np.uint8(OpStatus.FAILED)
    return st


class BatchResult(_SequenceABC):
    """Outcome of one batched engine operation.

    Canonical accessors
    -------------------
    ``op``
        the operation kind: ``"lookup"`` / ``"write"`` / ``"update"`` /
        ``"delete"`` / ``"insert"``.
    ``value_array``
        (n,) uint64 raw kernel values for lookups (``NIL_VALUE`` =
        miss), ``None`` for write ops.
    ``found_array`` (alias ``found_mask``)
        (n,) bool — the key existed (hit / applied / deleted).
    ``status``
        (n,) uint8 vector of :class:`OpStatus` codes.
    ``attempts``
        (n,) int32 — device dispatch attempts spent on each query's
        batch (1 = first try; 0 = never dispatched to the device).
    ``summary``
        op-level counters (insert ops: ``device_inserted`` / ``updated``
        / ``deferred`` / ``remapped``); ``None`` otherwise.
    ``to_list()``
        the legacy Python-object results: values-with-``None`` for
        lookups, found booleans for write ops.

    The sequence protocol (iteration, ``len``, integer indexing,
    ``==`` against lists) runs over ``to_list()``, so existing callers
    written against the old shapes keep working unchanged.
    """

    __slots__ = (
        "op", "value_array", "found_array", "_status", "_attempts",
        "summary", "_overrides", "_list",
    )

    def __init__(
        self,
        op: str,
        *,
        found: np.ndarray,
        values: Optional[np.ndarray] = None,
        overrides: Optional[dict] = None,
        status: Optional[np.ndarray] = None,
        attempts: Optional[np.ndarray] = None,
        summary: Optional[dict] = None,
    ) -> None:
        self.op = op
        self.found_array = np.asarray(found, dtype=bool)
        self.value_array = values
        self._overrides = overrides or {}
        # status/attempts stay None on the fast path (no resilience
        # layer: everything succeeded first try) and materialize lazily,
        # so per-batch serving pays nothing for them
        self._attempts = (
            np.asarray(attempts, dtype=np.int32)
            if attempts is not None else None
        )
        self._status = (
            np.asarray(status, dtype=np.uint8)
            if status is not None else None
        )
        self.summary = summary
        self._list: Optional[list] = None

    # -- canonical API ---------------------------------------------------
    @property
    def status(self) -> np.ndarray:
        """(n,) uint8 vector of :class:`OpStatus` codes (lazy)."""
        if self._status is None:
            self._status = status_codes(self.found_array)
        return self._status

    @property
    def attempts(self) -> np.ndarray:
        """(n,) int32 dispatch attempts per query's batch (lazy)."""
        if self._attempts is None:
            self._attempts = np.ones(len(self.found_array), dtype=np.int32)
        return self._attempts

    @property
    def found_mask(self) -> np.ndarray:
        """Alias of :attr:`found_array`."""
        return self.found_array

    @property
    def n_found(self) -> int:
        return int(self.found_array.sum())

    @property
    def n_retried(self) -> int:
        if self._status is None:
            return 0
        return int((self._status == np.uint8(OpStatus.RETRIED)).sum())

    @property
    def n_degraded(self) -> int:
        if self._status is None:
            return 0
        return int((self._status == np.uint8(OpStatus.DEGRADED_CPU)).sum())

    @property
    def n_failed(self) -> int:
        if self._status is None:
            return 0
        return int((self._status == np.uint8(OpStatus.FAILED)).sum())

    @property
    def ok(self) -> bool:
        """True when no query failed outright."""
        return self.n_failed == 0

    def counts_by_status(self) -> dict[str, int]:
        """``{status name: count}`` over the batch (only statuses that
        occur)."""
        if self._status is None:
            # fast path: pure found/not-found split, no status vector
            nf = self.n_found
            out = {}
            if nf:
                out["OK"] = nf
            if nf < len(self.found_array):
                out["NOT_FOUND"] = len(self.found_array) - nf
            return out
        codes, counts = np.unique(self._status, return_counts=True)
        return {
            OpStatus(int(c)).name: int(n) for c, n in zip(codes, counts)
        }

    def take(self, index: np.ndarray) -> "BatchResult":
        """The result at ``index`` (positions may repeat): fans a folded
        batch's per-row outcome back out to every op that shared a
        row."""
        overrides = {i: self._overrides[j] for i, j in enumerate(index)
                     if j in self._overrides} if self._overrides else None
        return BatchResult(
            self.op, found=self.found_array[index],
            values=(None if self.value_array is None
                    else self.value_array[index]),
            overrides=overrides,
            status=None if self._status is None else self._status[index],
            attempts=(None if self._attempts is None
                      else self._attempts[index]),
            summary=self.summary,
        )

    def to_list(self) -> list:
        """The Python-object result list (memoized): values-with-``None``
        for lookups, found booleans for write ops."""
        if self._list is None:
            if self.value_array is not None:
                self._list = values_to_list(
                    self.value_array, self._overrides
                )
            else:
                self._list = self.found_array.tolist()
        return self._list

    # -- sequence protocol -----------------------------------------------
    def __len__(self) -> int:
        return len(self.found_array)

    def __getitem__(self, index):
        return self.to_list()[index]

    def __iter__(self):
        return iter(self.to_list())

    def __eq__(self, other) -> bool:
        if isinstance(other, BatchResult):
            return self.to_list() == other.to_list()
        if isinstance(other, (list, tuple)):
            return self.to_list() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self.to_list())
