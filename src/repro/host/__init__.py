"""Host-side machinery: query coalescing, the multi-threaded dispatch
pipeline model, the hybrid CPU/GPU long-key split and the end-to-end
engine implementing the paper's three benchmark stages (section 4.1):

1. populating the ART index,
2. mapping the CPU ART into the device buffer structure,
3. running the actual queries, measuring throughput end to end.
"""

from repro.host.batching import coalesce, coalesce_encoded
from repro.host.cache import CacheStats, HotKeyCache
from repro.host.dispatcher import (
    DispatchConfig,
    HostCostParameters,
    pipeline_throughput,
)
from repro.host.hybrid import (
    HybridConfig,
    hybrid_throughput,
    split_queries,
)
from repro.host.config import EngineConfig
from repro.host.engine import CuartEngine, EngineReport, GrtEngine
from repro.host.memtable import Memtable, MemtableConfig
from repro.host.overlay import WriteOverlay
from repro.host.resilience import (
    DeviceHealth,
    ResiliencePolicy,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.host.results import (
    BatchResult,
    OpStatus,
    status_codes,
    values_to_list,
)
from repro.host.mixed import MixedWorkloadExecutor, MixedReport
from repro.host.autotune import autotune_dispatch, TunePoint, TuneResult
from repro.host.sharding import (
    ShardedEngine,
    ShardedMixedExecutor,
    ShardingConfig,
    ShardRouter,
)

__all__ = [
    "coalesce",
    "coalesce_encoded",
    "CacheStats",
    "HotKeyCache",
    "DispatchConfig",
    "HostCostParameters",
    "pipeline_throughput",
    "HybridConfig",
    "hybrid_throughput",
    "split_queries",
    "CuartEngine",
    "GrtEngine",
    "EngineConfig",
    "EngineReport",
    "BatchResult",
    "OpStatus",
    "status_codes",
    "values_to_list",
    "WriteOverlay",
    "Memtable",
    "MemtableConfig",
    "DeviceHealth",
    "ResiliencePolicy",
    "ResilientDispatcher",
    "RetryPolicy",
    "MixedWorkloadExecutor",
    "MixedReport",
    "autotune_dispatch",
    "TunePoint",
    "TuneResult",
    "ShardedEngine",
    "ShardedMixedExecutor",
    "ShardingConfig",
    "ShardRouter",
]
