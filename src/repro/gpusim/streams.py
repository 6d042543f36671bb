"""Stream / pipeline overlap model (sections 4.1 and 4.3).

The host code "utilizes a variable amount of command streams for both
CuART and GRT, decoupling the GPU dispatch from a specific number of host
threads".  A steady stream of batches flows through three pipeline
stages — host preparation, PCIe transfer, kernel — and the sustained
rate is set by the slowest stage, not the sum:

    batch_rate = 1 / max(t_host / host_parallelism,
                         t_pcie / pcie_overlap,
                         t_kernel / kernel_overlap)

``kernel_overlap`` > 1 models concurrent kernels from independent streams
filling the device when a single batch cannot; CuART's fully asynchronous
CUDA streams overlap better than GRT's synchronous OpenCL-style dispatch
(section 4.3: "CuART is much more thread agnostic ... inherent
asynchronousity of the CUDA API").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PipelineStage:
    name: str
    seconds_per_batch: float
    parallelism: float = 1.0

    @property
    def effective_s(self) -> float:
        return self.seconds_per_batch / max(self.parallelism, 1e-9)


@dataclass(frozen=True)
class PipelineResult:
    stages: tuple[PipelineStage, ...]
    batch_size: int

    @property
    def bottleneck(self) -> PipelineStage:
        return max(self.stages, key=lambda s: s.effective_s)

    @property
    def seconds_per_batch(self) -> float:
        return self.bottleneck.effective_s

    @property
    def throughput_ops(self) -> float:
        """Sustained queries/second of the saturated pipeline."""
        t = self.seconds_per_batch
        return self.batch_size / t if t > 0 else 0.0

    @property
    def throughput_mops(self) -> float:
        return self.throughput_ops / 1e6

    @property
    def latency_s(self) -> float:
        """End-to-end latency of one batch (stages traversed serially)."""
        return sum(s.seconds_per_batch for s in self.stages)


def pipeline(stages: list[PipelineStage], batch_size: int) -> PipelineResult:
    """Steady-state throughput of a saturated batch pipeline."""
    return PipelineResult(stages=tuple(stages), batch_size=batch_size)


@dataclass(frozen=True)
class StreamEvent:
    """Simulated timeline of one batch dispatched through a
    :class:`StreamScheduler` (all clocks in seconds since the
    scheduler's epoch)."""

    op: str
    h2d_s: float
    kernel_s: float
    d2h_s: float
    copy_start_s: float
    kernel_start_s: float
    done_s: float

    @property
    def serial_s(self) -> float:
        """What the batch would cost with no cross-batch overlap."""
        return self.h2d_s + self.kernel_s + self.d2h_s


@dataclass(frozen=True)
class DeviceTimeline:
    """One device's batches in one submit/drain window: its
    :class:`StreamEvent` list (window-relative clocks), enough to
    reconstruct its critical path (:mod:`repro.obs.critical_path`)."""

    streams: int
    events: list
    makespan_s: float


@dataclass
class StreamOverlapStats:
    """Aggregate overlap accounting of submit/drain windows."""

    batches: int = 0
    #: sum of every batch's serial (transfer + kernel) cost.
    serial_s: float = 0.0
    #: simulated completion time of the last batch (the pipelined
    #: makespan: staging of batch *i+1* overlaps batch *i*'s kernel).
    makespan_s: float = 0.0
    streams: int = 2
    #: the record's windows in simulated-time order (a barrier drained
    #: the pipeline between two), each a list of one
    #: :class:`DeviceTimeline` per concurrent device that ran batches.
    #: Excluded from :meth:`as_dict` and from equality.
    windows: list = field(default_factory=list, repr=False, compare=False)

    @property
    def events(self) -> tuple:
        """Every :class:`StreamEvent`, window by window and, within a
        window, device by device (a read-only view of :attr:`windows`)."""
        return tuple(ev for window in self.windows for dev in window
                     for ev in dev.events)

    @property
    def saved_s(self) -> float:
        """Simulated seconds hidden by the overlap."""
        return max(self.serial_s - self.makespan_s, 0.0)

    @property
    def overlap_ratio(self) -> float:
        """Fraction of the serial cost hidden by pipelining (0 when
        nothing was submitted or nothing could overlap)."""
        return self.saved_s / self.serial_s if self.serial_s > 0 else 0.0

    def add_window(self, other: "StreamOverlapStats") -> None:
        """Fold a later submit window into this one.  Windows are
        sequential in simulated time (a barrier drained the pipeline
        between them), so their makespans add and ``other``'s windows
        follow this record's."""
        self.batches += other.batches
        self.serial_s += other.serial_s
        self.makespan_s += other.makespan_s
        self.windows.extend(list(window) for window in other.windows)

    def merge_parallel(self, other: "StreamOverlapStats") -> None:
        """Fold a *concurrent* one-window record into this one: its
        devices join this record's last window.  They ran over the same
        simulated interval (one shard per device), so the combined
        makespan is the max — the slowest device — while serial cost
        and batch counts still add.  This is the device-scaling
        primitive: N balanced shards each doing 1/N of the serial work
        leave the makespan ~flat."""
        if len(other.windows) > 1:
            raise ValueError("merge_parallel joins a one-window record")
        if other.windows:
            if not self.windows:
                self.windows.append([])
            self.windows[-1].extend(other.windows[0])
        self.batches += other.batches
        self.serial_s += other.serial_s
        self.makespan_s = max(self.makespan_s, other.makespan_s)
        self.streams += other.streams

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "streams": self.streams,
            "serial_s": round(self.serial_s, 9),
            "makespan_s": round(self.makespan_s, 9),
            "saved_s": round(self.saved_s, 9),
            "overlap_ratio": round(self.overlap_ratio, 4),
        }


class DevicePlacement:
    """Where one device's batches run (sections 4.1/4.3): the placement
    rule of the double-buffered stream pipeline.

    The device has two serial engines — the PCIe copy engine and the
    compute engine — and ``n_streams`` batch buffers.  A batch stages
    once its release time has come, the copy engine is free and a
    buffer is: batch ``i + n_streams`` reuses batch ``i``'s buffer, so
    it waits for that batch to complete, and with one buffer every
    batch waits for the one before it (the serial sum).  Its kernel
    starts once it is staged and the compute engine is free, and its
    return DMA follows on the other, full-duplex copy direction.

    :class:`StreamScheduler` places every batch at release 0; the
    serving front-end (:class:`repro.serve.core.ServerCore`) places each
    launch from the clock time it was dispatched.
    """

    __slots__ = ("n_streams", "copy_free_s", "kernel_free_s", "inflight")

    def __init__(self, n_streams: int) -> None:
        self.n_streams = n_streams
        self.copy_free_s = 0.0
        self.kernel_free_s = 0.0
        #: completion clocks of the batches holding a buffer, oldest
        #: first.
        self.inflight: deque = deque()

    @property
    def free_s(self) -> float:
        """When the device's last placed batch completes (0 before any):
        every earlier batch completed before the one that reused its
        buffer staged."""
        return max(self.inflight, default=0.0)

    def place(self, h2d_s: float, kernel_s: float, d2h_s: float,
              release_s: float = 0.0) -> tuple[float, float, float]:
        """Place one batch; returns its copy start, kernel start and
        completion."""
        copy_start = max(self.copy_free_s, release_s)
        if len(self.inflight) >= self.n_streams:
            # all batch buffers busy: wait for the oldest to complete
            copy_start = max(copy_start, self.inflight.popleft())
        copy_done = copy_start + h2d_s
        kernel_start = max(copy_done, self.kernel_free_s)
        kernel_done = kernel_start + kernel_s
        done = kernel_done + d2h_s
        self.copy_free_s = copy_done
        self.kernel_free_s = kernel_done
        self.inflight.append(done)
        return copy_start, kernel_start, done


class StreamScheduler:
    """Double-buffered multi-stream dispatch clock (sections 4.1/4.3).

    Models the async CUDA pipeline on one :class:`DevicePlacement`:
    while batch *i*'s kernel runs, batch *i+1*'s host→device staging
    proceeds on another stream, so the steady-state per-batch cost is
    ``max(kernel, transfer)`` instead of their sum
    (:func:`repro.gpusim.cost_model.overlapped_batch_time`).  With
    ``n_streams=1`` the copy engine may not run ahead of the compute
    engine and the model degenerates to the serial sum, which is the
    GRT-style synchronous dispatch.

    The scheduler is a pure simulated-time bookkeeper: callers execute
    their kernels eagerly (results are exact either way) and report the
    modeled stage times here; :meth:`drain` closes the window and
    returns the overlap accounting.
    """

    def __init__(self, n_streams: int = 2, *, metrics=None) -> None:
        if n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {n_streams}")
        self.n_streams = n_streams
        self._device = DevicePlacement(n_streams)
        self._stats = StreamOverlapStats(streams=n_streams)
        self._events: list = []
        self._m_saved = self._m_batches = None
        if metrics is not None:
            self._m_saved = metrics.counter(
                "stream_overlap_saved_us_total",
                "simulated microseconds hidden by multi-stream overlap",
            )
            self._m_batches = metrics.counter(
                "stream_batches_total",
                "batches dispatched through the stream scheduler",
            )

    @property
    def pending(self) -> int:
        return len(self._device.inflight)

    def submit(
        self, op: str, *, h2d_s: float, kernel_s: float, d2h_s: float = 0.0
    ) -> StreamEvent:
        """Account one batch; returns its simulated timeline."""
        copy_start, kernel_start, done = self._device.place(
            h2d_s, kernel_s, d2h_s)
        st = self._stats
        st.batches += 1
        st.serial_s += h2d_s + kernel_s + d2h_s
        st.makespan_s = max(st.makespan_s, done)
        if self._m_batches is not None:
            self._m_batches.inc()
        ev = StreamEvent(
            op=op, h2d_s=h2d_s, kernel_s=kernel_s, d2h_s=d2h_s,
            copy_start_s=copy_start, kernel_start_s=kernel_start, done_s=done,
        )
        self._events.append(ev)
        return ev

    def drain(self) -> StreamOverlapStats:
        """Close the window: return the accumulated overlap stats (one
        window, this device's timeline) and reset the clocks for the
        next submit window."""
        stats = self._stats
        if self._events:
            stats.windows.append([DeviceTimeline(
                streams=self.n_streams, events=self._events,
                makespan_s=stats.makespan_s)])
        if self._m_saved is not None and stats.saved_s > 0:
            self._m_saved.inc(stats.saved_s * 1e6)
        self._stats = StreamOverlapStats(streams=self.n_streams)
        self._events = []
        self._device = DevicePlacement(self.n_streams)
        return stats


def launch_kernel(op: str, batch_size: int, *, injector=None) -> None:
    """Pre-launch gate for one kernel dispatch.

    The simulated equivalent of a ``cudaLaunchKernel`` call: the fault
    injector (:mod:`repro.gpusim.faults`) may abort the launch here —
    before the kernel body runs, so an abort leaves device state
    untouched and the batch can be replayed verbatim.  With
    ``injector=None`` this is a no-op.
    """
    if injector is not None:
        injector.on_kernel_launch(op, batch_size)
