"""Hybrid CPU/GPU query processing (section 3.2.3 option (a),
figures 13 and 14).

Keys longer than the device maximum are "skipped" by the GPU path and
processed on the CPU against the host ART, in parallel with the GPU
batches.  The end-to-end rate of the combined system is set by whichever
side finishes its share last:

    T(Q) = max( T_gpu(share_gpu · Q),  T_cpu(share_cpu · Q) )

Figure 14's punchline is that the CPU side is *much* slower per query
than the GPU pipeline — the paper measures ~50% total degradation with
only 3% of queries on the CPU, implying a CPU path in the very low
MOps/s aggregate (its per-query cost includes taking a query out of the
stream, a full pointer-chasing ART descent and merging the result back
under synchronization).  The constants below are calibrated to that
plateau; the pointer-chase itself comes from the structural CPU model in
:func:`repro.gpusim.cost_model.cpu_lookup_time`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.cost_model import cpu_lookup_time
from repro.gpusim.devices import CpuSpec
from repro.gpusim.streams import PipelineResult

#: per-query overhead of pulling one query out of the coalesced stream,
#: dispatching it to a worker and merging its result back (locking +
#: cache-line ping-pong between the splitter and 56 workers).  Calibrated
#: against figure 14's CPU-bound plateau.
SPLIT_MERGE_OVERHEAD_S = 6.0e-6


@dataclass(frozen=True)
class HybridConfig:
    """Settings of the hybrid split."""

    #: fraction of the query stream processed on the CPU.
    cpu_fraction: float
    #: host threads devoted to CPU-side lookups (the paper uses 56 of the
    #: server's 64 physical cores; 8 keep feeding the GPU).
    cpu_threads: int = 56
    #: average tree levels a CPU lookup traverses (from TreeStats).
    avg_levels: float = 5.0
    #: average node record size on the CPU path.
    node_bytes: float = 176.0
    #: host working set of the CPU-side tree in bytes.
    working_set_bytes: int = 1 << 30
    #: classic pointer ART (False) or the CuART flat layout (True) on the
    #: CPU side — figure 14 compares implementations.
    contiguous_layout: bool = False


def cpu_path_rate(config: HybridConfig, cpu: CpuSpec) -> float:
    """Aggregate CPU-side queries/second across the worker threads."""
    per_lookup = cpu_lookup_time(
        cpu,
        avg_levels=config.avg_levels,
        node_bytes=config.node_bytes,
        working_set_bytes=config.working_set_bytes,
        contiguous=config.contiguous_layout,
        threads=1,
    )
    per_query = per_lookup + SPLIT_MERGE_OVERHEAD_S
    threads = min(config.cpu_threads, cpu.threads)
    return threads / per_query


def split_queries(keys, max_key_bytes: int):
    """Partition a query stream into (short → GPU, long → CPU) preserving
    original positions."""
    short, short_pos, long_, long_pos = [], [], [], []
    for i, k in enumerate(keys):
        if len(k) <= max_key_bytes:
            short.append(k)
            short_pos.append(i)
        else:
            long_.append(k)
            long_pos.append(i)
    return (short, short_pos), (long_, long_pos)


def hybrid_throughput(
    gpu_pipeline: PipelineResult,
    config: HybridConfig,
    cpu: CpuSpec,
) -> dict:
    """Combined end-to-end rate when ``cpu_fraction`` of queries run on
    the CPU and the rest flow through the GPU pipeline."""
    f = min(max(config.cpu_fraction, 0.0), 1.0)
    gpu_rate = gpu_pipeline.throughput_ops  # queries/s when fed 100%
    cpu_rate = cpu_path_rate(config, cpu)
    # per unit of total queries: time the GPU needs for its (1-f) share
    # and the CPU for its f share; they run concurrently
    t_gpu = (1.0 - f) / gpu_rate if gpu_rate > 0 else float("inf")
    t_cpu = f / cpu_rate if f > 0 else 0.0
    total_rate = 1.0 / max(t_gpu, t_cpu) if max(t_gpu, t_cpu) > 0 else 0.0
    return {
        "total_mops": total_rate / 1e6,
        "gpu_share_mops": gpu_rate / 1e6,
        "cpu_share_mops": cpu_rate / 1e6,
        "bottleneck": "cpu" if t_cpu > t_gpu else "gpu",
        "cpu_fraction": f,
    }
