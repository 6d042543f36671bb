"""Layer spans for the traced run, recorded from the benchmark's own files.

Every wrap target below is a public entry point of one layer, patched
where its callers resolve the name: a function imported into
``repro.host.engine`` is patched there, a method on its class.  Nothing
here is installed during timed runs, and the program's own tracer and
flight recorder stay off.

Each wrapped call pushes a frame on one stack.  On return its duration
is added to its layer and to the parent frame's child time, so a span's
self time is its duration minus its children's.  The root frame is the
benchmark's own code; its self time is ``bench.unattributed_s``, so the
layer self times and it sum to the traced window exactly (integer
nanoseconds).

Calls the benchmark makes directly into the program are top-level
calls (``submit``, ``drain``, ``run``, ``offer``, ``poll``,
``next_deadline_us``, ``flush`` and the set-up calls); each gets a
request id that its child spans inherit.  Per-op boundaries
(``per_op=True``) are aggregated into count, total and self time; every
other call is kept as one span record: layer, start, end, parent span
and request id.
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from time import perf_counter_ns


class TraceError(RuntimeError):
    """A wrap target is missing, or never fired where it must."""


def _rows_arg0(args, kwargs, out):
    return len(args[0])


def _rows_mat(args, kwargs, out):
    # lookup_batch / delete_batch(layout, keys_mat, ...) and
    # UpdateEngine.apply(self, keys_mat, ...): the matrix is argument 1
    return int(args[1].shape[0])


def _lookup_counts(args, kwargs, out):
    return int(args[1].shape[0]), int(out.log.total_transactions)


def _coalesced_rows(args, kwargs, out):
    # OpClassCoalescer.add / drain / flush_due return ((kind, ops), ...)
    # batches that must execute now
    return sum(len(ops) for _, ops in out), len(out)


#: (layer, module, attribute, options).  ``rows`` counts work units per
#: call; ``per_op`` aggregates instead of keeping one span per call;
#: ``capture`` keeps the call's ``self`` or result for end-of-run stats.
TARGETS = (
    ("util.keys", "repro.host.engine", "keys_to_matrix",
     {"rows": _rows_arg0}),
    ("art.bulk_load", "repro.host.engine", "bulk_load", {}),
    ("art.search", "repro.art.tree", "AdaptiveRadixTree.search",
     {"per_op": True}),
    ("cuart.layout.map", "repro.cuart.layout", "CuartLayout.__init__", {}),
    ("cuart.lookup", "repro.host.engine", "lookup_batch",
     {"rows": _lookup_counts}),
    ("cuart.update", "repro.cuart.update", "UpdateEngine.apply",
     {"rows": _rows_mat}),
    ("cuart.delete", "repro.host.engine", "delete_batch",
     {"rows": _rows_mat}),
    ("gpusim.cost", "repro.gpusim.cost_model", "CostModel.kernel_time", {}),
    ("gpusim.streams", "repro.gpusim.streams", "StreamScheduler.submit", {}),
    ("host.engine", "repro.host.engine", "CuartEngine.__init__", {}),
    ("host.engine", "repro.host.engine", "CuartEngine.populate", {}),
    ("host.engine", "repro.host.engine", "CuartEngine.map_to_device", {}),
    ("host.engine", "repro.host.engine", "CuartEngine.submit", {}),
    ("host.engine", "repro.host.engine", "CuartEngine.drain",
     {"capture": "result"}),
    ("host.cache", "repro.host.cache", "HotKeyCache.get", {"per_op": True}),
    ("host.cache", "repro.host.cache", "HotKeyCache.put", {"per_op": True}),
    ("host.cache", "repro.host.cache", "HotKeyCache.record_dedup_hits",
     {"per_op": True}),
    ("host.cache", "repro.host.cache", "HotKeyCache.update_if_cached",
     {"per_op": True}),
    ("host.batching", "repro.host.engine", "coalesce_encoded", {}),
    ("host.batching", "repro.host.batching", "OpClassCoalescer.add",
     {"per_op": True, "rows": _coalesced_rows}),
    ("host.batching", "repro.host.batching", "OpClassCoalescer.drain",
     {"rows": _coalesced_rows}),
    ("host.batching", "repro.host.batching", "OpClassCoalescer.flush_due",
     {"rows": _coalesced_rows}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.__init__",
     {"per_op": True, "capture": "self"}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.note_update",
     {"per_op": True}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.note_delete",
     {"per_op": True}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.note_insert",
     {"per_op": True}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.resolve_read",
     {"per_op": True}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.base_exists",
     {"per_op": True}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.forget",
     {"per_op": True}),
    ("host.overlay", "repro.host.overlay", "WriteOverlay.forget_exists",
     {"per_op": True}),
    ("host.memtable.absorb", "repro.host.memtable", "Memtable.absorb_update",
     {"per_op": True}),
    ("host.memtable.absorb", "repro.host.memtable", "Memtable.absorb_delete",
     {"per_op": True}),
    ("host.memtable.absorb", "repro.host.memtable", "Memtable.absorb_insert",
     {"per_op": True}),
    ("host.memtable.compact", "repro.host.memtable", "Memtable.compact", {}),
    ("host.sharding.route", "repro.host.sharding", "ShardRouter.shard_of",
     {"per_op": True}),
    ("host.sharding.route", "repro.host.sharding", "ShardRouter.route", {}),
    ("host.sharding", "repro.host.sharding", "ShardedEngine.__init__", {}),
    ("host.sharding", "repro.host.sharding", "ShardedEngine.populate", {}),
    ("host.sharding", "repro.host.sharding", "ShardedEngine.map_to_device",
     {}),
    ("host.sharding", "repro.host.sharding",
     "ShardedEngine.publish_shard_stats", {}),
    ("serve.dispatch.run", "repro.host.sharding",
     "ShardedMixedExecutor.__init__", {}),
    ("serve.dispatch.run", "repro.host.sharding", "ShardedMixedExecutor.run",
     {}),
    ("serve.dispatch.run", "repro.host.mixed", "MixedWorkloadExecutor.run",
     {}),
    ("serve.core", "repro.serve.core", "ServerCore.__init__", {}),
    ("serve.core.offer", "repro.serve.core", "ServerCore.offer", {}),
    ("serve.core.poll", "repro.serve.core", "ServerCore.poll", {}),
    ("serve.core.poll", "repro.serve.core", "ServerCore.next_deadline_us",
     {}),
    ("serve.core.flush", "repro.serve.core", "ServerCore.flush", {}),
    ("serve.slo", "repro.serve.slo", "SloController.maybe_retune", {}),
)

#: every layer the targets name, in table order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def _resolve(module: str, attr: str):
    """``(owner, name, original, owned)`` of one target, or raise naming
    it."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise TraceError(f"wrap target {module}.{attr}: {exc}") from exc
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"wrap target {module}.{attr} is missing")
    own = vars(owner)
    if name in own:
        return owner, name, own[name], True
    # inherited method: shadowed on the named class, deleted on exit
    inherited = getattr(owner, name, None)
    if inherited is None:
        raise TraceError(f"wrap target {module}.{attr} is missing")
    return owner, name, inherited, False


class LayerTracer:
    """Span recorder over :data:`TARGETS` (see the module docstring).

    Use as a context manager around the traced window; the wrappers are
    removed on exit even when the window raises.
    """

    def __init__(self) -> None:
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        n = len(LAYERS)
        #: per layer: calls, total ns, self ns, rows, extra (transactions
        #: for cuart.lookup, batches for host.batching)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.rows = [0] * n
        self.extra = [0] * n
        #: per target ``module.attr``: calls (the never-fired check)
        self.fired: dict = {}
        self.captured: dict = {"CuartEngine.drain": [],
                               "WriteOverlay.__init__": []}
        # span records, column-wise: layer, start, end, parent, request
        self.sp_layer = array("H")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("q")
        self.sp_req = array("q")
        self._patches: list = []
        self._stack: list = []
        self._request = 0
        self.t_start = self.t_end = 0

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, layer: str, target: str, fn, opts: dict):
        li = self.layer_index[layer]
        per_op = bool(opts.get("per_op"))
        rows_fn = opts.get("rows")
        capture = opts.get("capture")
        store = self.captured.get(target.split(":", 1)[1])
        fired = self.fired
        stack = self._stack
        calls, total, selfs = self.calls, self.total_ns, self.self_ns
        rows, extra = self.rows, self.extra
        sp_layer, sp_start, sp_end = self.sp_layer, self.sp_start, self.sp_end
        sp_parent, sp_req = self.sp_parent, self.sp_req
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if len(stack) == 1:
                tracer._request += 1
                req = tracer._request
            else:
                req = parent[3]
            t0 = perf_counter_ns()
            if per_op:
                frame = [t0, 0, parent[2], req]
            else:
                sid = len(sp_layer)
                sp_layer.append(li)
                sp_start.append(t0)
                sp_end.append(0)
                sp_parent.append(parent[2])
                sp_req.append(req)
                frame = [t0, 0, sid, req]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                calls[li] += 1
                total[li] += dur
                selfs[li] += dur - frame[1]
                if not per_op:
                    sp_end[frame[2]] = t1
            fired[target] += 1
            if rows_fn is not None:
                got = rows_fn(args, kwargs, out)
                if isinstance(got, tuple):
                    rows[li] += got[0]
                    extra[li] += got[1]
                else:
                    rows[li] += got
            if capture == "result":
                store.append((req, args[0], out))
            elif capture == "self":
                store.append(args[0])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "LayerTracer":
        resolved = [
            (layer, f"{module}:{attr}", _resolve(module, attr), opts)
            for layer, module, attr, opts in TARGETS
        ]
        for layer, target, (owner, name, orig, owned), opts in resolved:
            self.fired[target] = 0
            setattr(owner, name, self._wrap(layer, target, orig, opts))
            self._patches.append((owner, name, orig if owned else None))
        self._stack.append([0, 0, -1, 0])
        self.t_start = perf_counter_ns()
        self._stack[0][0] = self.t_start
        return self

    def __exit__(self, *exc) -> None:
        if not self._patches:
            return
        self.t_end = perf_counter_ns()
        for owner, name, orig in reversed(self._patches):
            if orig is None:
                delattr(owner, name)
            else:
                setattr(owner, name, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    @property
    def wall_ns(self) -> int:
        return self.t_end - self.t_start

    @property
    def unattributed_ns(self) -> int:
        """Self time of the root frame: the benchmark's own code."""
        return self.wall_ns - self._stack[0][1]

    def layer(self, name: str) -> dict:
        i = self.layer_index[name]
        return {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9,
                "rows": self.rows[i], "extra": self.extra[i]}

    def require(self, attrs, workload: str) -> None:
        """Fail, naming the target, when a wrap target the workload must
        exercise (given by its ``TARGETS`` attribute name) never fired."""
        by_attr = {attr: f"{module}:{attr}" for _, module, attr, _ in TARGETS}
        for attr in attrs:
            target = by_attr.get(attr)
            if target is None:
                raise TraceError(f"{workload}: {attr} is not a wrap target")
            if self.fired[target] == 0:
                raise TraceError(
                    f"{workload}: wrap target {target} never fired")

    def write(self, path: str, meta: dict) -> None:
        """Write the spans and per-layer aggregates as one JSON file."""
        t0 = self.t_start
        doc = {
            "meta": meta,
            "clock": "perf_counter_ns, relative to the traced window start",
            "wall_ns": self.wall_ns,
            "unattributed_ns": self.unattributed_ns,
            "layers": {
                name: {"calls": self.calls[i], "total_ns": self.total_ns[i],
                       "self_ns": self.self_ns[i], "rows": self.rows[i]}
                for i, name in enumerate(LAYERS)
            },
            "targets": self.fired,
            "span_columns": ["layer", "start_ns", "end_ns", "parent",
                             "request"],
            "spans": [
                [LAYERS[li], s - t0, e - t0, p, r]
                for li, s, e, p, r in zip(self.sp_layer, self.sp_start,
                                          self.sp_end, self.sp_parent,
                                          self.sp_req)
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
