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
restates what the applied batches already did to the engine's state.
The overlay degrades to inert no-ops when the engine lacks a
``contains`` probe (``enabled`` is False): nothing is recorded, every
read misses the overlay, and every write proceeds to the device.

:meth:`snapshot` is the promotion hook: it exposes the pending-effect
map in one stable shape so a future in-memory memtable (ROADMAP item 3)
or a checkpointer can fold queued-but-unflushed writes into durable
state without reaching into executor internals.
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

    def __init__(self, contains: Optional[Callable] = None) -> None:
        #: key -> (status, value); probe with ``entries.get`` on the
        #: read fast path.  Stays empty when forwarding is disabled.
        self.entries: dict = {}
        # base-existence memo for "maybe" keys (one probe per key).
        self._exists_memo: dict = {}
        self._contains = contains

    @property
    def enabled(self) -> bool:
        """Forwarding is active (the engine exposes ``contains``)."""
        return self._contains is not None

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
            if self._contains is not None:
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
        if self._contains is not None:
            self.entries[key] = _ABSENT
        return True

    def note_insert(self, key, value) -> None:
        """Record a pending insert: the key is definitely present."""
        if self._contains is not None:
            self.entries[key] = ("present", value)

    def snapshot(self) -> dict:
        """Stable copy of the pending-effect map: ``{key: (status,
        value)}`` with status in ``"present"`` / ``"absent"`` /
        ``"maybe"`` — the hook a memtable / checkpointer consumes."""
        return dict(self.entries)

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
        pending).  Used when a compaction changes applied state under a
        key whose newest write lives in a still-active segment."""
        self._exists_memo.pop(key, None)

    def clear(self) -> None:
        """Forget all pending effects (e.g. after a full drain when the
        caller wants overlay reads to reflect only applied state)."""
        self.entries.clear()
        self._exists_memo.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"WriteOverlay({state}, pending={len(self.entries)})"
