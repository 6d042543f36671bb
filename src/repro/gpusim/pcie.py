"""PCIe transfer model.

Section 4.1: "the throughput is measured as an end-to-end manner,
including CPU overhead for processing the lookups afterwards, PCIe
transfer times and pipelining."  Each batch ships its key matrix to the
device and its result vector back; both directions can overlap with
kernel execution across streams (``repro.gpusim.streams``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PcieLink:
    name: str
    #: effective per-direction bandwidth in bytes/second (after protocol
    #: overhead; ~80% of the headline rate).
    bandwidth: float
    #: per-transfer setup latency in seconds (DMA descriptor, doorbell).
    latency_s: float = 8e-6

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` in one direction."""
        if nbytes <= 0:
            return 0.0
        return self.latency_s + nbytes / self.bandwidth

    def transfer(self, nbytes: int, *, direction: str = "h2d",
                 injector=None, op: str | None = None) -> float:
        """Guarded transfer: consult the fault injector, then return the
        modeled transfer time.

        The injector fires *before* the transfer is considered
        delivered — a timeout or checksum mismatch means the batch never
        reached the other side, so re-sending the same bytes is safe.
        """
        if injector is not None and nbytes > 0:
            injector.on_transfer(nbytes, direction=direction, op=op)
        return self.transfer_time(nbytes)


#: Gen3 x16 (GTX1070-era): 15.75 GB/s raw, ~12.5 effective.
PCIE3_X16 = PcieLink(name="PCIe 3.0 x16", bandwidth=12.5e9)

#: Gen4 x16 (A100 / RTX3090 hosts): 31.5 GB/s raw, ~25 effective.
PCIE4_X16 = PcieLink(name="PCIe 4.0 x16", bandwidth=25e9)


def link_for_device(device_name: str) -> PcieLink:
    """Paper machines: the notebook's GTX1070 is Gen3, the rest Gen4."""
    return PCIE3_X16 if "1070" in device_name else PCIE4_X16
