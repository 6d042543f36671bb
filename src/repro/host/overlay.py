"""Pending-write overlay: store-to-load forwarding over queued batches.

Promoted out of the mixed executor's inline hot loop into an engine-level
concept (ROADMAP item 3's prep): both offline executors and the async
serving front-end (:mod:`repro.serve`) coalesce writes into per-class
device batches, and until those batches flush, a reader must still
observe every queued write — exactly what a serial client would see.

:class:`WriteOverlay` holds, per key, the *cumulative* effect of every
write that entered the queues:

``"present"``
    a pending insert — the key will exist with the recorded value.
``"absent"``
    a pending delete — the key will definitely not exist (updates never
    resurrect, so a later update/delete on it is a guaranteed miss).
``"maybe"``
    pending updates only — present iff the key exists in the engine's
    *applied* state; one ``contains`` probe per distinct key resolves it
    (memoized: pending updates never change existence, and a pending
    delete/insert overwrites the entry with a definite status).

Entries stay valid after their queues flush: the overlay then merely
restates what the applied batches already did to the engine's state,
as long as the keys stay on this engine (a rebalance clears them).
The ``contains`` probe is required: every serving engine provides it
(:data:`repro.host.engine.SERVING_CONTRACT`).
"""

from __future__ import annotations

from typing import Callable, Optional

#: shared entry for a pending delete (avoids one tuple allocation per
#: delete in the executors' hot loops).
_ABSENT = ("absent", None)


class WriteOverlay:
    """Per-key pending-write state with store-to-load forwarding.

    The hot-loop contract (used by :class:`repro.host.mixed.
    BatchPipeline`, behind both the offline executor and
    :class:`repro.serve.ServerCore`):

    * probe ``overlay.entries.get`` once per read — ``None``
      means "no pending write, go to the device" and costs one dict
      lookup; only overlaid keys pay a method call
      (:meth:`resolve_read`).
    * writes call :meth:`note_update` / :meth:`note_delete` /
      :meth:`note_insert`; a ``False`` return means the op
      short-circuits to a host-side miss and must *not* be queued.
    """

    __slots__ = ("entries", "_exists_memo", "_contains")

    def __init__(self, contains: Callable) -> None:
        #: key -> (status, value); probe with ``entries.get`` on the
        #: read fast path.
        self.entries: dict = {}
        # base-existence memo for "maybe" keys (one probe per key).
        self._exists_memo: dict = {}
        self._contains = contains

    def __len__(self) -> int:
        return len(self.entries)

    def base_exists(self, key) -> bool:
        """Does the key exist in the engine's applied state (memoized)?"""
        hit = self._exists_memo.get(key)
        if hit is None:
            hit = self._exists_memo[key] = self._contains(key)
        return hit

    def resolve_read(self, key, entry) -> tuple[bool, object]:
        """Answer a read whose ``entries.get`` probe returned ``entry``
        (not ``None``): ``(found, value)`` as a serial client would
        observe it."""
        status, val = entry
        if status == "present" or (status == "maybe"
                                   and self.base_exists(key)):
            return True, val
        return False, None

    def read(self, key) -> Optional[tuple[bool, object]]:
        """One-shot read: ``None`` when the key has no pending write,
        else ``(found, value)`` (cold-path convenience over the
        ``entries.get`` + :meth:`resolve_read` fast path)."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        return self.resolve_read(key, entry)

    def note_update(self, key, value) -> bool:
        """Record a pending update.  Returns ``False`` when the key is
        definitely absent (pending delete): the update is a guaranteed
        miss and must skip the device entirely."""
        entries = self.entries
        st = entries.get(key)
        if st is None:
            entries[key] = ("maybe", value)
            return True
        if st[0] == "absent":
            return False
        entries[key] = (st[0], value)
        return True

    def note_delete(self, key) -> bool:
        """Record a pending delete.  Returns ``False`` when the key is
        already definitely absent (the second delete must report a miss
        without device work)."""
        st = self.entries.get(key)
        if st is not None and st[0] == "absent":
            return False
        self.entries[key] = _ABSENT
        return True

    def note_insert(self, key, value) -> None:
        """Record a pending insert: the key is definitely present."""
        self.entries[key] = ("present", value)

    def forget(self, key) -> None:
        """Retire one key's pending effect *and* its base-existence memo.

        The memtable's merge-compactor calls this per installed key: the
        device layout now carries the folded write, so the overlay entry
        would merely restate applied state — and the memo is stale, the
        install may have changed the key's base existence."""
        self.entries.pop(key, None)
        self._exists_memo.pop(key, None)

    def forget_exists(self, key) -> None:
        """Drop only the base-existence memo for a key (the entry stays
        pending).  Nothing in the library calls it (a compaction retires
        every key it folds through :meth:`forget`); only the benchmark's
        wrap table, ``perfbench/layers.py``, names it."""
        self._exists_memo.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and existence memo: the keys may have moved
        to another device (:meth:`repro.host.mixed.BatchPipeline.
        rebalance`)."""
        self.entries.clear()
        self._exists_memo.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteOverlay(pending={len(self.entries)})"
