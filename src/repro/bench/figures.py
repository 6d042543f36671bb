"""One reproduction function per evaluation figure of the paper.

Figures 1–6 are architecture diagrams; the evaluation artifacts are
figures 7–18 (there are no numbered result tables).  Every function
returns a :class:`~repro.bench.report.FigureResult` carrying the same
series the paper plots plus shape checks ("who wins, where the knee is").

Absolute numbers are *simulated* MOps/s from the transaction-level cost
model and are not expected to match the authors' testbed; the checks
encode the qualitative claims that must hold.  Tree sizes run at
``1/Scale.factor`` of the paper's (see runner.py).
"""

from __future__ import annotations

import numpy as np

from repro.bench.report import FigureResult
from repro.bench.runner import (
    Scale,
    cuart_lookup_log,
    cuart_update_run,
    get_tree,
    grt_lookup_log,
    grt_update_run,
)
from repro.constants import DEFAULT_BATCH_SIZE
from repro.cuart.cpu_lookup import modeled_cpu_throughput
from repro.gpusim.cost_model import CostModel, cpu_update_time
from repro.gpusim.devices import (
    A100,
    GTX1070,
    RTX3090,
    SERVER_CPU,
    WORKSTATION_CPU,
)
from repro.host.dispatcher import DispatchConfig, HostCostParameters, pipeline_throughput
from repro.host.hybrid import HybridConfig, hybrid_throughput

MI = 1 << 20
KI = 1 << 10

#: extra per-batch overhead of the OpenCL GRT build (section 4.3 observes
#: the OpenCL dispatch pipelines worse than CUDA streams).
_OCL_COSTS = HostCostParameters(per_batch_s=4.5e-5, sync_extra_per_batch_s=3.0e-5)


def _cm(device, scale: Scale) -> CostModel:
    """Cost model with the L2 shrunk by the experiment's scale factor so
    cache-residency regimes match the paper's tree sizes."""
    return CostModel(device, l2_scale=1.0 / scale.factor)


def _endtoend(
    log, batch_size, device, cpu, scale, *, threads=8, key_bytes=32,
    api="cuda", ocl=False,
):
    """Kernel log -> simulated end-to-end MOps/s through the pipeline."""
    kernel = _cm(device, scale).kernel_time(log)
    cfg = DispatchConfig(
        batch_size=batch_size,
        host_threads=threads,
        key_bytes=key_bytes,
        api=api,
        host_costs=_OCL_COSTS if ocl else HostCostParameters(),
    )
    return pipeline_throughput(kernel, cfg, device, cpu).throughput_mops


# ---------------------------------------------------------------------------
# Figure 7 — CPU: classic ART vs the CuART memory layout
# ---------------------------------------------------------------------------


def fig07(scale: Scale = Scale()) -> FigureResult:
    """Lookup throughput on classical ART vs CuART memory layout on CPUs
    (12 threads, 32ki items per batch, workstation)."""
    sizes = [scale.size(s) for s in (256 * KI, 2 * MI, 16 * MI, 100 * MI)]
    key_lens = (8, 16, 32)
    rows = []
    speedups = {}
    for key_len in key_lens:
        for n in sizes:
            stats = get_tree("random", n, key_len).stats
            art = modeled_cpu_throughput(
                stats, WORKSTATION_CPU, contiguous=False, threads=12
            )
            cuart = modeled_cpu_throughput(
                stats, WORKSTATION_CPU, contiguous=True, threads=12
            )
            rows.append((n, key_len, art, cuart, cuart / art))
            speedups[(key_len, n)] = cuart / art
    result = FigureResult(
        figure="Figure 7",
        title="CPU lookup throughput: classic ART vs CuART layout",
        params={"threads": 12, "batch": "32ki", "machine": "workstation",
                "scale": f"1/{scale.factor}"},
        columns=["tree size", "KL", "ART MOps/s", "CuART MOps/s", "speedup"],
        rows=rows,
        paper_claim=(
            "CuART outperforms the original ART by 2.5x for small trees, "
            "up to 10-20x for large trees"
        ),
    )
    result.check(
        "CuART layout faster at every point",
        all(r[3] > r[2] for r in rows),
    )
    for key_len in key_lens:
        result.check(
            f"speedup grows with tree size (KL={key_len})",
            speedups[(key_len, sizes[-1])] > speedups[(key_len, sizes[0])],
        )
    result.check(
        "large-tree speedup reaches >= 4x",
        max(speedups.values()) >= 4.0,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 8 — lookup throughput vs batch size
# ---------------------------------------------------------------------------


def fig08(scale: Scale = Scale()) -> FigureResult:
    """Lookup throughput with increasing batch size (26Mi entries,
    8 threads, 32 byte keys, server)."""
    n = scale.size(26 * MI)
    batches = [2 * KI, 4 * KI, 8 * KI, 16 * KI, 32 * KI, 64 * KI, 128 * KI]
    rows = []
    for b in batches:
        cu = _endtoend(
            cuart_lookup_log("random", n, 32, b), b, A100, SERVER_CPU, scale
        )
        gl = grt_lookup_log("random", n, 32, b)
        gc = _endtoend(gl, b, A100, SERVER_CPU, scale, api="sync")
        go = _endtoend(gl, b, A100, SERVER_CPU, scale, api="sync", ocl=True)
        rows.append((b, cu, gc, go))
    result = FigureResult(
        figure="Figure 8",
        title="Lookup throughput vs batch size",
        params={"entries": n, "threads": 8, "key": "32B", "machine": "server",
                "scale": f"1/{scale.factor}"},
        columns=["batch", "CuART", "GRT-CUDA", "GRT-OpenCL"],
        rows=rows,
        paper_claim=(
            "both GRT and CuART achieve a good performance at any batch "
            "size between 8192 and 131072 items"
        ),
    )
    plateau = [r[1] for r in rows if 8 * KI <= r[0] <= 128 * KI]
    result.check("CuART >= both GRT variants at every batch size",
                 all(r[1] >= max(r[2], r[3]) for r in rows))
    result.check("CuART strictly ahead across the 8ki-128ki plateau",
                 all(r[1] > max(r[2], r[3]) for r in rows if r[0] >= 8 * KI))
    result.check("CuART plateau 8ki-128ki varies < 2x",
                 max(plateau) / min(plateau) < 2.0)
    result.check("small batches are slower than the plateau (CuART)",
                 rows[0][1] < max(plateau))
    result.check("GRT-CUDA >= GRT-OpenCL everywhere",
                 all(r[2] >= r[3] for r in rows))
    return result


# ---------------------------------------------------------------------------
# Figure 9 — lookup throughput vs host threads
# ---------------------------------------------------------------------------


def fig09(scale: Scale = Scale()) -> FigureResult:
    """Lookup throughput with increasing number of threads (26Mi entries,
    32 byte keys, 32ki items per batch, server)."""
    n = scale.size(26 * MI)
    batch = DEFAULT_BATCH_SIZE
    cu_log = cuart_lookup_log("random", n, 32, batch)
    g_log = grt_lookup_log("random", n, 32, batch)
    threads = [1, 2, 4, 8, 12, 16, 24, 32]
    rows = []
    for t in threads:
        cu = _endtoend(cu_log, batch, A100, SERVER_CPU, scale, threads=t)
        gc = _endtoend(g_log, batch, A100, SERVER_CPU, scale, threads=t,
                       api="sync")
        go = _endtoend(g_log, batch, A100, SERVER_CPU, scale, threads=t,
                       api="sync", ocl=True)
        rows.append((t, cu, gc, go))
    result = FigureResult(
        figure="Figure 9",
        title="Lookup throughput vs host threads",
        params={"entries": n, "batch": batch, "key": "32B",
                "machine": "server", "scale": f"1/{scale.factor}"},
        columns=["threads", "CuART", "GRT-CUDA", "GRT-OpenCL"],
        rows=rows,
        paper_claim=(
            "more host threads are preferable for both; CuART is much "
            "more thread agnostic (async CUDA streams)"
        ),
    )
    result.check("throughput grows with threads for all variants",
                 all(rows[-1][i] >= rows[0][i] for i in (1, 2, 3)))
    # thread agnostic: CuART reaches 90% of its peak with fewer threads
    def threads_to_90(col):
        peak = max(r[col] for r in rows)
        return next(r[0] for r in rows if r[col] >= 0.9 * peak)

    result.check("CuART saturates with fewer threads than GRT",
                 threads_to_90(1) <= threads_to_90(2))
    result.check("CuART above GRT at every thread count",
                 all(r[1] > r[2] for r in rows))
    return result


# ---------------------------------------------------------------------------
# Figure 10 — lookup throughput vs tree size
# ---------------------------------------------------------------------------


def fig10(scale: Scale = Scale()) -> FigureResult:
    """Lookup throughput with increasing tree size (64k-144M entries,
    8 threads, 32 byte keys, 16ki items per batch, workstation)."""
    paper_sizes = [64 * KI, 256 * KI, MI, 4 * MI, 16 * MI, 64 * MI, 144 * MI]
    batch = 16 * KI
    rows = []
    cm = _cm(RTX3090, scale)
    for ps in paper_sizes:
        n = scale.size(ps)
        cu_log = cuart_lookup_log("random", n, 32, batch)
        gr_log = grt_lookup_log("random", n, 32, batch)
        cu = _endtoend(cu_log, batch, RTX3090, WORKSTATION_CPU, scale)
        gr = _endtoend(gr_log, batch, RTX3090, WORKSTATION_CPU, scale,
                       api="sync")
        kernel_ratio = (cm.kernel_time(gr_log).total_s
                        / cm.kernel_time(cu_log).total_s)
        rows.append((ps, n, cu, gr, cu / gr, kernel_ratio))
    result = FigureResult(
        figure="Figure 10",
        title="Lookup throughput vs tree size",
        params={"threads": 8, "key": "32B", "batch": batch,
                "machine": "workstation", "scale": f"1/{scale.factor}"},
        columns=["paper size", "scaled size", "CuART", "GRT", "e2e ratio",
                 "kernel ratio"],
        rows=rows,
        paper_claim=(
            "CuART outperforms GRT for all tested index sizes (up to 2x); "
            "CuART throughput even increases slightly with tree size"
        ),
    )
    result.check("CuART above GRT at every size", all(r[2] > r[3] for r in rows))
    result.check("kernel advantage reaches >= 1.5x (paper: up to 2x)",
                 max(r[5] for r in rows) >= 1.5)
    result.check(
        "CuART degrades more gracefully than GRT with size",
        (rows[-1][2] / rows[0][2]) >= (rows[-1][3] / rows[0][3]),
    )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — lookup throughput vs key length
# ---------------------------------------------------------------------------


def fig11(scale: Scale = Scale()) -> FigureResult:
    """Lookup throughput with increasing key length (26Mi entries,
    8 threads, 32ki items per batch, server)."""
    n = scale.size(26 * MI)
    batch = DEFAULT_BATCH_SIZE
    key_lens = [4, 8, 12, 16, 20, 24, 28, 32]
    rows = []
    for kl in key_lens:
        cu = _endtoend(cuart_lookup_log("random", n, kl, batch), batch,
                       A100, SERVER_CPU, scale, key_bytes=kl)
        cu32 = _endtoend(
            cuart_lookup_log("random", n, kl, batch, single_leaf=32),
            batch, A100, SERVER_CPU, scale, key_bytes=kl,
        )
        gr = _endtoend(grt_lookup_log("random", n, kl, batch), batch,
                       A100, SERVER_CPU, scale, key_bytes=kl, api="sync")
        rows.append((kl, cu, cu32, gr, cu / gr))
    result = FigureResult(
        figure="Figure 11",
        title="Lookup throughput vs key length",
        params={"entries": n, "threads": 8, "batch": batch,
                "machine": "server", "scale": f"1/{scale.factor}"},
        columns=["key len", "CuART", "CuART(fix32)", "GRT", "CuART/GRT"],
        rows=rows,
        paper_claim=(
            "CuART outperforms GRT on longer keys while short keys are "
            "beneficial for GRT (byte- vs word-oriented comparison)"
        ),
        notes=(
            "partial reproduction: under the transaction model GRT's "
            "short-key win shrinks to a narrowing of the gap — CuART's "
            "advantage still grows monotonically with key length, and the "
            "fixed-32B-leaf ablation shows the wasted-leaf-bandwidth "
            "effect the paper's initial design suffered"
        ),
    )
    ratios = [r[4] for r in rows]
    result.check("CuART/GRT advantage grows from short to long keys",
                 ratios[-1] > ratios[0])
    result.check("fixed-32B-leaf ablation hurts short keys",
                 rows[0][2] <= rows[0][1])
    result.check("CuART wins clearly at 32B keys", ratios[-1] >= 1.3)
    return result


# ---------------------------------------------------------------------------
# Figure 12 — BTC dataset
# ---------------------------------------------------------------------------


def fig12(scale: Scale = Scale()) -> FigureResult:
    """Throughput against the BTC dataset (15.4M keys, 32 byte key
    length, 32ki items per batch, 8 threads, server)."""
    n = scale.size(int(15.4 * MI))
    batch = DEFAULT_BATCH_SIZE
    rows = []
    series = {}
    cm = _cm(A100, scale)
    for kind in ("random", "btc"):
        cu_log = cuart_lookup_log(kind, n, 32, batch)
        gr_log = grt_lookup_log(kind, n, 32, batch)
        cu = _endtoend(cu_log, batch, A100, SERVER_CPU, scale)
        gr = _endtoend(gr_log, batch, A100, SERVER_CPU, scale, api="sync")
        # kernel-level rates expose the tree-depth effect even when the
        # host pipeline, not the kernel, binds the end-to-end rate
        cu_k = batch / cm.kernel_time(cu_log).total_s / 1e6
        gr_k = batch / cm.kernel_time(gr_log).total_s / 1e6
        stats = get_tree(kind, n, 32).stats
        rows.append((kind, cu, gr, cu_k, gr_k, round(stats.avg_leaf_level, 2)))
        series[kind] = (cu_k, gr_k)
    result = FigureResult(
        figure="Figure 12",
        title="Throughput on the BTC(-like) dataset vs synthetic",
        params={"keys": n, "key": "32B", "batch": batch, "threads": 8,
                "machine": "server", "scale": f"1/{scale.factor}"},
        columns=["dataset", "CuART e2e", "GRT e2e", "CuART kernel",
                 "GRT kernel", "avg depth"],
        rows=rows,
        paper_claim=(
            "CuART outperforms GRT by ~20% on BTC; absolute performance "
            "lower than synthetic because long duplicate segments "
            "increase the overall tree depth"
        ),
        notes="BTC-2019 replaced by an RDF-IRI-like generator (DESIGN.md)",
    )
    result.check("CuART above GRT on BTC (kernel)",
                 series["btc"][0] > series["btc"][1])
    result.check("BTC slower than synthetic for CuART (kernel)",
                 series["btc"][0] < series["random"][0])
    result.check("BTC slower than synthetic for GRT (kernel)",
                 series["btc"][1] < series["random"][1])
    result.check(
        "BTC(-like) trees are deeper than synthetic",
        rows[1][5] > rows[0][5],
    )
    return result


# ---------------------------------------------------------------------------
# Figure 13 — hybrid CPU/GPU with a share of long keys on the CPU
# ---------------------------------------------------------------------------


def _hybrid_rows(scale: Scale, fractions, contiguous=False):
    n = scale.size(26 * MI)
    batch = DEFAULT_BATCH_SIZE
    stats = get_tree("random", n, 32).stats
    gpu_log = cuart_lookup_log("random", n, 32, batch)
    kernel = _cm(A100, scale).kernel_time(gpu_log)
    cfg = DispatchConfig(batch_size=batch, host_threads=8, key_bytes=32)
    pipe = pipeline_throughput(kernel, cfg, A100, SERVER_CPU)
    rows = []
    for f in fractions:
        hybrid = hybrid_throughput(
            pipe,
            HybridConfig(
                cpu_fraction=f / 100.0,
                cpu_threads=56,
                avg_levels=stats.avg_leaf_level + 1,
                node_bytes=176.0,
                working_set_bytes=stats.art_host_bytes(),
                contiguous_layout=contiguous,
            ),
            SERVER_CPU,
        )
        rows.append((f, hybrid["total_mops"], hybrid["bottleneck"]))
    return rows, pipe


def fig13(scale: Scale = Scale()) -> FigureResult:
    """Hybrid CPU/GPU query approach (8 threads GPU / 56 threads CPU,
    32+byte keys, 32ki items per batch, 26Mi entries, server)."""
    fractions = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0]
    rows, pipe = _hybrid_rows(scale, fractions)
    result = FigureResult(
        figure="Figure 13",
        title="Hybrid CPU/GPU: share of long keys processed on the CPU",
        params={"gpu threads": 8, "cpu threads": 56, "batch": 32 * KI,
                "entries": scale.size(26 * MI), "machine": "server",
                "scale": f"1/{scale.factor}"},
        columns=["% long keys on CPU", "total MOps/s", "bottleneck"],
        rows=rows,
        paper_claim=(
            "overall performance drops quite fast, ~50% impact for only "
            "3% of the keys processed on the CPU"
        ),
    )
    by_f = {r[0]: r[1] for r in rows}
    # below the knee the GPU still binds, so offloading a sliver of the
    # stream cannot hurt (the paper's own 50%-at-3% numbers place the
    # knee near 1.5%); past it the decline must be steep and monotone
    result.check("near-flat below the knee (<= 2% variation)",
                 all(r[1] <= 1.02 * by_f[0.0] for r in rows if r[0] <= 1.0))
    decline = [r[1] for r in rows if r[0] >= 2.0]
    result.check("monotonically decreasing beyond the knee",
                 all(a >= b for a, b in zip(decline, decline[1:])))
    result.check(">=40% drop at 3% CPU share",
                 by_f[3.0] <= 0.6 * by_f[0.0])
    result.check("CPU becomes the bottleneck beyond a small share",
                 rows[-1][2] == "cpu")
    return result


# ---------------------------------------------------------------------------
# Figure 14 — hybrid with 5% *short* keys on the CPU: CPU-bound everywhere
# ---------------------------------------------------------------------------


def fig14(scale: Scale = Scale()) -> FigureResult:
    """Hybrid CPU/GPU query approach (8 threads GPU / 56 threads CPU, 5%
    CPU keys, 32ki items per batch, 26Mi entries, server)."""
    n = scale.size(26 * MI)
    batch = DEFAULT_BATCH_SIZE
    stats = get_tree("random", n, 32).stats
    variants = {
        "CuART": (cuart_lookup_log("random", n, 32, batch), "cuda", False),
        "GRT-CUDA": (grt_lookup_log("random", n, 32, batch), "sync", False),
        "GRT-OpenCL": (grt_lookup_log("random", n, 32, batch), "sync", True),
    }
    rows = []
    for name, (log, api, ocl) in variants.items():
        kernel = _cm(A100, scale).kernel_time(log)
        cfg = DispatchConfig(
            batch_size=batch, host_threads=8, key_bytes=32, api=api,
            host_costs=_OCL_COSTS if ocl else HostCostParameters(),
        )
        pipe = pipeline_throughput(kernel, cfg, A100, SERVER_CPU)
        hybrid = hybrid_throughput(
            pipe,
            HybridConfig(
                cpu_fraction=0.05,
                cpu_threads=56,
                avg_levels=stats.avg_leaf_level + 1,
                working_set_bytes=stats.art_host_bytes(),
            ),
            SERVER_CPU,
        )
        rows.append((name, pipe.throughput_mops, hybrid["total_mops"],
                     hybrid["bottleneck"]))
    result = FigureResult(
        figure="Figure 14",
        title="Hybrid with 5% short keys on the CPU",
        params={"cpu share": "5%", "batch": batch, "entries": n,
                "machine": "server", "scale": f"1/{scale.factor}"},
        columns=["impl", "GPU-only MOps/s", "hybrid MOps/s", "bottleneck"],
        rows=rows,
        paper_claim=(
            "all GPU implementations are in fact limited by the CPU "
            "processing"
        ),
    )
    hybrid_rates = [r[2] for r in rows]
    result.check("all variants converge to the same CPU bound",
                 max(hybrid_rates) / min(hybrid_rates) < 1.15)
    result.check("every variant is CPU-bottlenecked",
                 all(r[3] == "cpu" for r in rows))
    result.check("hybrid rate below each GPU-only rate",
                 all(r[2] < r[1] for r in rows))
    return result


# ---------------------------------------------------------------------------
# Figure 15 — update throughput vs batch size (hash-table collisions)
# ---------------------------------------------------------------------------


def fig15(scale: Scale = Scale()) -> FigureResult:
    """CuART update throughput with increasing batch size for different
    tree sizes (8 threads, 16 byte keys, workstation; 1Mi-entry hash
    table at paper scale)."""
    slots = scale.hash_slots(1 * MI)
    batches = [b for b in (256, 512, 1 * KI, 2 * KI, int(2.5 * KI), 3 * KI)
               if b < slots] or [slots // 4, slots // 2]
    paper_trees = [64 * KI, 1 * MI, 16 * MI]
    cm = _cm(RTX3090, scale)
    rows = []
    series = {ps: [] for ps in paper_trees}
    for b in batches:
        row = [b]
        for ps in paper_trees:
            n = scale.size(ps)
            res = cuart_update_run("random", n, 16, b, slots)
            # sustained rate with full stream overlap: fixed launch and
            # latency overheads amortize across in-flight batches, the
            # shared memory-command budget (where the probe traffic
            # lands) does not
            timing = cm.kernel_time(res.log)
            sustained = timing.command_bound_s + res.log.serial_stall_s
            mops = b / sustained / 1e6
            row.append(mops)
            series[ps].append((b, mops, res.load_factor, res.total_probes))
        rows.append(tuple(row))
    result = FigureResult(
        figure="Figure 15",
        title="Update throughput vs batch size per tree size",
        params={"hash slots": slots, "key": "16B", "threads": 8,
                "machine": "workstation", "scale": f"1/{scale.factor}"},
        columns=["batch"] + [f"tree {ps // KI}Ki" for ps in paper_trees],
        rows=rows,
        paper_claim=(
            "update throughput drops with increasing batch size — hash "
            "table collisions; the drop is not visible for a small tree "
            "because the table is only partially filled"
        ),
    )
    small = series[paper_trees[0]]
    big = series[paper_trees[-1]]
    result.check(
        "large tree: probes/op rise with batch size",
        big[-1][3] / big[-1][0] > big[0][3] / big[0][0],
    )
    result.check(
        "large tree: big batches lose throughput vs best",
        min(m for _, m, _, _ in big) < 0.85 * max(m for _, m, _, _ in big),
    )
    result.check(
        "small tree: flat (within 25%) across batch sizes",
        min(m for _, m, _, _ in small) > 0.75 * max(m for _, m, _, _ in small),
    )
    result.check(
        "small tree's hash-table load stays low",
        small[-1][2] < 0.25,
    )
    return result


# ---------------------------------------------------------------------------
# Figure 16 — update throughput vs key length
# ---------------------------------------------------------------------------


def fig16(scale: Scale = Scale()) -> FigureResult:
    """CuART update throughput with increasing key length for different
    tree sizes (16ki items per batch, 8 threads, workstation)."""
    paper_trees = [64 * KI, 1 * MI, 16 * MI]
    key_lens = [8, 16, 32]
    batch = 2 * KI
    slots = 1 << 16  # collisions are not the variable under study here
    cm = _cm(RTX3090, scale)
    rows = []
    for kl in key_lens:
        row = [kl]
        for ps in paper_trees:
            n = scale.size(ps)
            res = cuart_update_run("random", n, kl, batch, slots)
            row.append(batch / cm.kernel_time(res.log).total_s / 1e6)
        rows.append(tuple(row))
    result = FigureResult(
        figure="Figure 16",
        title="Update throughput vs key length per tree size",
        params={"batch": batch, "threads": 8, "machine": "workstation",
                "scale": f"1/{scale.factor}"},
        columns=["key len"] + [f"tree {ps // KI}Ki" for ps in paper_trees],
        rows=rows,
        paper_claim=(
            "for small trees caching effects are overwhelmingly large; "
            "update performance drops for larger keys"
        ),
    )
    result.check(
        "small tree faster than large tree at every key length",
        all(r[1] > r[3] for r in rows),
    )
    result.check(
        "throughput decreases with key length (largest tree)",
        rows[0][3] >= rows[-1][3],
    )
    return result


# ---------------------------------------------------------------------------
# Figure 17 — update: CuART vs GRT vs CPU
# ---------------------------------------------------------------------------


def fig17(scale: Scale = Scale()) -> FigureResult:
    """Update throughput of CuART, GRT and the CPU (16Mi entries,
    8 threads, 32ki items per batch, workstation)."""
    n = scale.size(16 * MI)
    batch = 2 * KI
    slots = 1 << 16
    cm = _cm(RTX3090, scale)
    stats = get_tree("random", n, 32).stats

    cu_res = cuart_update_run("random", n, 32, batch, slots)
    cu = batch / cm.kernel_time(cu_res.log).total_s / 1e6
    cu_lookup_log = cuart_lookup_log("random", n, 32, batch)
    cu_lookup = batch / cm.kernel_time(cu_lookup_log).total_s / 1e6

    grt_res = grt_update_run("random", n, 32, batch)
    grt = batch / cm.kernel_time(grt_res.log).total_s / 1e6

    cpu_t = cpu_update_time(
        WORKSTATION_CPU,
        avg_levels=stats.avg_leaf_level + 1,
        node_bytes=176.0,
        working_set_bytes=stats.art_host_bytes(),
        contiguous=False,
    )
    cpu = 1.0 / cpu_t / 1e6  # serialized RMW: threads do not help

    rows = [
        ("CuART (GPU)", cu),
        ("GRT (GPU)", grt),
        ("ART (CPU, atomic)", cpu),
        ("CuART lookup (reference)", cu_lookup),
    ]
    result = FigureResult(
        figure="Figure 17",
        title="Atomic update throughput: CuART vs GRT vs CPU",
        params={"entries": n, "batch": batch, "threads": 8,
                "machine": "workstation", "scale": f"1/{scale.factor}"},
        columns=["implementation", "MOps/s"],
        rows=rows,
        paper_claim=(
            "CuART updates ~20% below its lookup throughput (~120 vs "
            "~150 MOps/s); 10x over GRT (~13 MOps/s) and up to 50x over "
            "the CPU (~2.5 MOps/s)"
        ),
    )
    result.check("CuART >= 5x GRT updates", cu >= 5 * grt)
    result.check("CuART >= 20x CPU updates", cu >= 20 * cpu)
    result.check("CuART update within 40-100% of its lookup rate",
                 0.4 * cu_lookup <= cu <= 1.05 * cu_lookup)
    result.check("GRT above the CPU", grt > cpu)
    return result


# ---------------------------------------------------------------------------
# Figure 18 — lookup/update throughput across GPUs
# ---------------------------------------------------------------------------


def fig18(scale: Scale = Scale()) -> FigureResult:
    """Lookup/Update throughput on different GPUs (16Mi entries,
    8 threads, 32ki items per batch, 32 byte keys)."""
    n = scale.size(16 * MI)
    batch_l = DEFAULT_BATCH_SIZE
    batch_u = 2 * KI
    slots = 1 << 16
    devices = [("GTX1070", GTX1070), ("RTX3090", RTX3090), ("A100", A100)]
    cu_log = cuart_lookup_log("random", n, 32, batch_l)
    g_log = grt_lookup_log("random", n, 32, batch_l)
    cu_upd = cuart_update_run("random", n, 32, batch_u, slots)
    g_upd = grt_update_run("random", n, 32, batch_u)
    rows = []
    lookup_by_dev = {}
    for name, dev in devices:
        cm = _cm(dev, scale)
        cu_l = batch_l / cm.kernel_time(cu_log).total_s / 1e6
        g_l = batch_l / cm.kernel_time(g_log).total_s / 1e6
        cu_u = batch_u / cm.kernel_time(cu_upd.log).total_s / 1e6
        g_u = batch_u / cm.kernel_time(g_upd.log).total_s / 1e6
        rows.append((name, cu_l, g_l, cu_u, g_u))
        lookup_by_dev[name] = cu_l
    result = FigureResult(
        figure="Figure 18",
        title="Lookup/Update throughput across GPUs (memory impact)",
        params={"entries": n, "key": "32B", "threads": 8,
                "lookup batch": batch_l, "update batch": batch_u,
                "scale": f"1/{scale.factor}"},
        columns=["GPU", "CuART lookup", "GRT lookup", "CuART update",
                 "GRT update"],
        rows=rows,
        paper_claim=(
            "the RTX3090 (GDDR6X, higher command clock) outperforms the "
            "A100 (HBM2) despite lower bandwidth; CuART outperforms GRT "
            "on all tested GPUs"
        ),
    )
    result.check("RTX3090 beats A100 for CuART lookups",
                 lookup_by_dev["RTX3090"] > lookup_by_dev["A100"])
    result.check("GTX1070 is the slowest",
                 lookup_by_dev["GTX1070"] < min(lookup_by_dev["RTX3090"],
                                                lookup_by_dev["A100"]))
    result.check("CuART above GRT on every GPU (lookup)",
                 all(r[1] > r[2] for r in rows))
    result.check("CuART above GRT on every GPU (update)",
                 all(r[3] > r[4] for r in rows))
    return result


#: every reproduced figure, in paper order.
ALL_FIGURES = {
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
}
