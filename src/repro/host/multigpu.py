"""Multi-GPU scale-out model.

The paper's server carries **two** A100s (§4.1) but the evaluation
drives one; this module models the natural scale-out: the index is
replicated on every device (lookups are stateless, so any replica
serves any batch) and host threads round-robin their batches across
per-device streams.  Each device brings its own PCIe link and memory
channels; the host preparation stage is the shared resource — which is
exactly where the pipeline saturates, making the speedup sub-linear
beyond a few devices (the same host-bound ceiling figure 9 shows for
threads).

Updates on replicated indexes must be applied to every replica; the
model charges the update kernel on all devices (no speedup for the
device stage) while reads scale.

The ``"sharded"`` workload models the partitioned alternative
(:mod:`repro.host.sharding`): the key space is split over the devices,
every operation — read *or* write — is routed to the one device that
owns its key, so the device stages divide by ``n`` for any op mix.
The executed counterpart is :class:`~repro.host.sharding.ShardedEngine`;
``tests/host/test_multigpu.py`` reconciles this analytic curve against
its measured makespans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import SimulationError
from repro.gpusim.cost_model import KernelTiming
from repro.gpusim.devices import CpuSpec, DeviceSpec
from repro.gpusim.pcie import PcieLink
from repro.gpusim.streams import PipelineResult, pipeline
from repro.host.dispatcher import DispatchConfig, pipeline_throughput


@dataclass(frozen=True)
class MultiGpuConfig:
    """Scale-out settings."""

    n_devices: int = 2
    #: ``"lookup"`` / ``"update"`` model the replicated index (reads
    #: scale, writes broadcast); ``"sharded"`` models key-space
    #: partitioning (every op routes to its owning device, so reads
    #: *and* writes divide by ``n`` — the executed counterpart is
    #: :class:`repro.host.sharding.ShardedEngine`).
    workload: str = "lookup"  # "lookup" | "update" | "sharded"

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise SimulationError("n_devices must be >= 1")
        if self.workload not in ("lookup", "update", "sharded"):
            raise SimulationError(f"unknown workload {self.workload!r}")


def multi_gpu_throughput(
    kernel: KernelTiming,
    dispatch: DispatchConfig,
    device: DeviceSpec,
    cpu: CpuSpec,
    config: MultiGpuConfig,
    pcie: PcieLink | None = None,
) -> PipelineResult:
    """Sustained end-to-end rate with ``n_devices`` replicas.

    Reads: PCIe and kernel stages parallelize across replicas (each has
    its own link and memory); the host stage is shared.  Updates: every
    replica must apply every write, so the device stages do not scale —
    only the host-side coalescing overlap remains.  Sharded: ops route
    to the device owning their key, so the device stages divide by
    ``n`` for reads and writes alike (host stage still shared).
    """
    # one device's async §4.1 stages (every replica runs CuART's
    # streams, whatever the dispatch style)
    host, link, kern = pipeline_throughput(
        kernel, replace(dispatch, api="cuda"), device, cpu, pcie
    ).stages
    if config.workload in ("lookup", "sharded"):
        # replicated reads fan out; sharded placement routes *every* op
        # (reads and writes alike) to the one device owning its key, so
        # each device carries 1/n of the batches either way
        device_scale = float(config.n_devices)
    else:
        # broadcast writes: n replicas each run the full update batch; no
        # read scaling is bought and PCIe must carry n copies
        device_scale = 1.0
    return pipeline([
        host,
        replace(link, parallelism=device_scale),
        replace(kern, parallelism=device_scale),
    ], dispatch.batch_size)


def scaling_curve(
    kernel: KernelTiming,
    dispatch: DispatchConfig,
    device: DeviceSpec,
    cpu: CpuSpec,
    max_devices: int = 8,
    workload: str = "lookup",
) -> list[tuple[int, float]]:
    """(devices, MOps/s) series — where does the host bound flatten it?"""
    out = []
    for n in range(1, max_devices + 1):
        rate = multi_gpu_throughput(
            kernel, dispatch, device, cpu,
            MultiGpuConfig(n_devices=n, workload=workload),
        ).throughput_mops
        out.append((n, rate))
    return out
