"""Exception hierarchy for the CuART reproduction.

Every exception carries an optional *structured context* — keyword
arguments recorded in :attr:`ReproError.context` and appended to the
message — so policy code (the resilience engine, tests, operators
reading logs) can inspect *which* buffer overflowed or *which* op was
in flight without parsing strings::

    raise HashTableFullError(
        "distinct keys exceed the free slots",
        buffer="hash-table", slots=1024, occupied=980, requested=200,
    )

    except CapacityError as exc:
        exc.context["buffer"]     # -> "hash-table"
        exc.transient             # -> False: grow, don't just retry

:attr:`ReproError.transient` classifies recoverability: transient
faults (the :class:`DeviceFault` family, injected hash-table failures)
are safe to retry verbatim because they fire *before* any device state
was mutated; non-transient errors need an actual intervention (grow a
buffer, re-map the layout, fix the input).
"""

from __future__ import annotations


class ReproDeprecationWarning(DeprecationWarning):
    """Deprecation warnings raised by this library's own back-compat
    shims (e.g. the legacy accessors on
    :class:`repro.host.results.BatchResult`).

    A distinct category so CI can escalate every *other*
    ``DeprecationWarning`` to an error (``-W error::DeprecationWarning``)
    while allow-listing ours
    (``-W default::repro.errors.ReproDeprecationWarning``)."""


class ReproError(Exception):
    """Base class for all library errors.

    ``ReproError(message, **context)`` stores ``context`` (``None``
    values dropped) on :attr:`context` and renders it into the message.
    """

    #: safe to retry verbatim — the failure fired before any state
    #: changed.  Class default; may be overridden per instance via the
    #: ``transient=`` keyword.
    transient = False

    def __init__(self, message: str = "", *, transient: bool | None = None,
                 **context) -> None:
        self.message = message
        self.context = {k: v for k, v in context.items() if v is not None}
        if transient is not None:
            self.transient = transient
        super().__init__(self._render())

    def _render(self) -> str:
        if not self.context:
            return self.message
        ctx = " ".join(f"{k}={v!r}" for k, v in self.context.items())
        return f"{self.message} [{ctx}]" if self.message else f"[{ctx}]"

    def with_context(self, **context) -> "ReproError":
        """Annotate in flight (e.g. the engine adds ``op=`` / ``batch=``
        to a kernel-raised error).  Existing keys win; returns ``self``
        so ``raise exc.with_context(op=op)`` reads naturally."""
        for k, v in context.items():
            if v is not None and k not in self.context:
                self.context[k] = v
        self.args = (self._render(),)
        return self


class KeyEncodingError(ReproError, ValueError):
    """A key could not be encoded into binary-comparable bytes."""


class KeyPrefixError(ReproError, ValueError):
    """A key that is a proper prefix of an existing key (or vice versa)
    was inserted.

    Radix trees index binary-comparable keys; a key that is a proper
    prefix of another cannot be distinguished from the traversal that
    passes *through* it.  The standard remedy (Leis et al. 2013, sec. IV)
    is to append a terminator byte — :func:`repro.util.keys.encode_str`
    does exactly that.
    """


class InvalidOperationError(ReproError, ValueError):
    """An op stream carried an unknown operation kind or a malformed
    payload (a scan that is not a ``(lo, hi)`` range, an update without
    a value)."""


class KeyTooLongError(ReproError, ValueError):
    """A key exceeds the compile-time maximum leaf size and no long-key
    strategy is configured (section 3.2.3)."""


class CapacityError(ReproError, RuntimeError):
    """A fixed-capacity device buffer (node buffer, hash table, free list)
    ran out of space.

    Raise sites say *which* buffer via context: ``buffer=`` names it
    (``"hash-table"``, a per-type node/leaf buffer name), with
    occupancy figures (``slots`` / ``occupied`` / ``requested``) so the
    resilience layer can size the recovery."""


class HashTableFullError(CapacityError):
    """The update-engine hash table could not place an entry even after a
    full linear-probe cycle (section 3.4/4.5)."""


class StaleLayoutError(ReproError, RuntimeError):
    """A device layout was used after the host-side tree changed in a way
    the layout cannot reflect (structural insert without re-mapping)."""


class SimulationError(ReproError, RuntimeError):
    """The GPU simulation was configured inconsistently."""


class DeviceFault(ReproError, RuntimeError):
    """A transient device-side fault (simulated).

    All faults fire at the dispatch boundary — *before* the kernel
    mutates device state — so a retry replays the identical batch
    against unchanged buffers."""

    transient = True


class TransientKernelError(DeviceFault):
    """A kernel launch aborted (simulated ECC trap / launch failure);
    nothing was executed."""


class PcieTransferError(DeviceFault):
    """A host↔device transfer failed (simulated timeout or a checksum
    mismatch detected before the batch was committed)."""


class DeviceOOMError(DeviceFault):
    """A simulated device allocation (node/leaf buffers, re-map) was
    refused; the existing buffers are untouched."""
