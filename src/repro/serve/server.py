"""Asyncio front door over :class:`~repro.serve.core.ServerCore`.

:class:`CuartServer` turns the core's three-call contract (``offer`` /
``next_deadline_us`` / ``poll``) into an awaitable per-op API: callers
``await server.lookup(key)`` (or the unified :meth:`CuartServer.submit`)
and a single pump task closes batches on size or deadline, whichever
comes first.  Everything stateful lives in the core, so the asyncio
layer is just future plumbing plus one timer loop — concurrency-safe
because offers, polls and completions all run on the event loop thread.

:class:`SyncCuartServer` is the shim for synchronous callers: it hosts
the async server on a daemon event-loop thread and bridges each call
with ``run_coroutine_threadsafe``, so many *threads* submitting singly
still coalesce into shared device batches.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.host.mixed import MixedReport
from repro.serve.core import (
    ServedOp,
    ServerConfig,
    ServerCore,
    ServerOverloadedError,
)

__all__ = ["CuartServer", "SyncCuartServer"]


class CuartServer:
    """Async serving front-end over one serving engine: a
    :class:`~repro.host.engine.CuartEngine` or a key-space-sharded
    :class:`~repro.host.sharding.ShardedEngine`
    (:data:`~repro.host.engine.SERVING_CONTRACT`, checked at
    construction).

    >>> server = CuartServer(engine, deadline_us=200.0)
    >>> await server.start()
    >>> value = await server.lookup(b"key-a\\x00")
    >>> ok = await server.update((b"key-a\\x00", 7))
    >>> await server.stop()

    Ops shed by admission control raise
    :class:`~repro.serve.core.ServerOverloadedError` from the
    convenience coroutines; :meth:`submit` instead returns the completed
    :class:`~repro.serve.core.ServedOp` so callers can branch on
    ``op.shed`` / ``op.retry_after_us`` without exception handling.

    Also implements the offline :class:`~repro.serve.dispatch.Dispatch`
    protocol (:meth:`run` delegates to the core), so a server instance
    drops into benchmark slots an executor fits.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServerConfig] = None,
        *,
        clock=None,
        **kwargs,
    ) -> None:
        self.core = ServerCore(engine, config, clock=clock, **kwargs)
        self._wake: Optional[asyncio.Event] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._running = False

    @property
    def engine(self):
        return self.core.engine

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._wake = asyncio.Event()
        self._pump_task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        """Stop the pump, flush every queued op (their futures resolve)
        and close the simulated stream window."""
        if not self._running:
            return
        self._running = False
        self._wake.set()
        await self._pump_task
        self._pump_task = None
        self.core.flush()

    async def __aenter__(self) -> "CuartServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def _pump(self) -> None:
        """The batch-close timer: sleep until the oldest queued op's
        deadline, wake early on arrivals (they may close a batch on
        size, moving the next deadline)."""
        core = self.core
        wake = self._wake
        while self._running:
            due = core.next_deadline_us()
            if due is None:
                await wake.wait()
                wake.clear()
                continue
            delay_s = max(due - core.clock(), 0.0) / 1e6
            try:
                await asyncio.wait_for(wake.wait(), timeout=delay_s)
                wake.clear()
            except asyncio.TimeoutError:
                pass
            # poll even when woken by an arrival: the offer that woke
            # us may have raced an already-expired deadline
            core.poll()

    # -- the unified op API ----------------------------------------------

    async def submit(self, kind: str, payload, *, tenant: str = "default"
                     ) -> ServedOp:
        """Submit one op; resolves when its batch completes (or
        immediately for forwarded / shed ops).  Returns the completed
        :class:`~repro.serve.core.ServedOp`."""
        if not self._running:
            raise RuntimeError("server is not running; await start() first")
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()

        def resolve(op: ServedOp) -> None:
            if not fut.done():
                fut.set_result(op)

        op = self.core.offer(kind, payload, tenant=tenant, on_done=resolve)
        if op.done and not fut.done():
            fut.set_result(op)
        self._wake.set()
        return await fut

    async def _op(self, kind: str, payload, tenant: str) -> ServedOp:
        op = await self.submit(kind, payload, tenant=tenant)
        if op.shed:
            raise ServerOverloadedError(op.tenant, op.retry_after_us)
        return op

    async def lookup(self, key, *, tenant: str = "default"):
        """The key's value, or None when absent."""
        return (await self._op("lookup", key, tenant)).value

    async def update(self, key, value, *, tenant: str = "default") -> bool:
        """True when the key existed and was updated."""
        return bool((await self._op("update", (key, value), tenant)).value)

    async def insert(self, key, value, *, tenant: str = "default") -> bool:
        """True when the insert was applied (device or deferred)."""
        return bool((await self._op("insert", (key, value), tenant)).value)

    async def delete(self, key, *, tenant: str = "default") -> bool:
        """True when the key existed and was removed."""
        return bool((await self._op("delete", key, tenant)).value)

    async def scan(self, lo, hi, *, tenant: str = "default") -> list:
        """All (key, value) pairs in [lo, hi] — a full batch barrier."""
        return (await self._op("scan", (lo, hi), tenant)).value

    # -- offline Dispatch conformance ------------------------------------

    def run(self, stream) -> tuple[list, MixedReport]:
        """Offline stream execution through the same core (no event
        loop required) — the :class:`~repro.serve.dispatch.Dispatch`
        contract."""
        return self.core.run(stream)

    def stats(self) -> dict:
        return self.core.stats()


class SyncCuartServer:
    """Blocking facade for threaded applications.

    Runs a :class:`CuartServer` on a private daemon event-loop thread;
    each method schedules the matching coroutine and blocks on its
    result, so concurrent calls from many threads share device batches
    exactly like concurrent coroutines would.

    >>> with SyncCuartServer(engine) as server:
    ...     value = server.lookup(b"key-a\\x00")
    """

    def __init__(self, engine, config: Optional[ServerConfig] = None,
                 **kwargs) -> None:
        self._server = CuartServer(engine, config, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def engine(self):
        return self._server.engine

    @property
    def core(self) -> ServerCore:
        return self._server.core

    def start(self) -> None:
        if self._thread is not None:
            return
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="cuart-serve", daemon=True
        )
        self._thread.start()
        self._call(self._server.start())

    def stop(self) -> None:
        if self._thread is None:
            return
        self._call(self._server.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "SyncCuartServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _call(self, coro):
        if self._loop is None:
            coro.close()  # keep the "never awaited" warning quiet
            raise RuntimeError("server is not running; call start() first")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def submit(self, kind: str, payload, *, tenant: str = "default"
               ) -> ServedOp:
        return self._call(self._server.submit(kind, payload, tenant=tenant))

    def lookup(self, key, *, tenant: str = "default"):
        return self._call(self._server.lookup(key, tenant=tenant))

    def update(self, key, value, *, tenant: str = "default") -> bool:
        return self._call(self._server.update(key, value, tenant=tenant))

    def insert(self, key, value, *, tenant: str = "default") -> bool:
        return self._call(self._server.insert(key, value, tenant=tenant))

    def delete(self, key, *, tenant: str = "default") -> bool:
        return self._call(self._server.delete(key, tenant=tenant))

    def scan(self, lo, hi, *, tenant: str = "default") -> list:
        return self._call(self._server.scan(lo, hi, tenant=tenant))

    def stats(self) -> dict:
        return self._server.stats()
