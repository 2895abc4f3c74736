"""Span recorder for the traced run, installed from outside the program.

The traced run replaces public methods of the live serving objects with
wrappers defined here: the ``Coalescer`` admission calls, the
``ShardedStore`` routing / execution / write calls, the ``ResultCache``,
the ``ServerStats`` recorders and every shard's index instance.  Each
wrapper records one span ``(id, name, start, end, parent, request ids,
extra)`` in memory; :meth:`Tracer.write` dumps them when the run ends.
Nothing under ``src/`` is modified: the wrappers are instance
attributes that shadow the class methods.

Request identity: the coalescer wrappers give every admitted request an
id and remember its enqueue time, keyed by ``id(request)``.  The workload
clients keep each in-flight request object alive and distinct (see
``workloads.py``), so the object id identifies one request until the
client that sent it has its answer back, at which point
:meth:`Tracer.client_done` forgets it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from collections import namedtuple
from pathlib import Path

import numpy as np

#: Index methods that answer point-shaped reads (the lookup kernels).
LOOKUP_KERNELS = ("lookup_batch", "point_query_batch", "lookup", "point_query")
#: Scalar kernels that batch fallbacks call per key; traced only at top level.
_SCALAR_KERNELS = frozenset({"lookup", "point_query"})

SERVER_SUBMITS = ("submit", "submit_many", "submit_window")
STORE_EXECUTES = ("execute", "execute_batch")

#: One traced call: wall-clock (``t0``/``t1``, ``perf_counter``) and
#: calling-thread CPU (``c0``/``c1``, ``thread_time``) bounds.  Under the
#: GIL a call's wall span also covers time other threads held the
#: interpreter, so per-request *costs* are read from the CPU bounds and
#: waits and latencies from the wall bounds.
Span = namedtuple("Span", "id name t0 t1 c0 c1 parent rids extra")


class Tracer:
    """In-memory span store plus the request bookkeeping the wrappers share."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rid_of: dict[int, int] = {}
        self._enqueued: dict[int, float] = {}
        self._kernel_end: dict[int, float] = {}
        self.queue_wait = array("d")
        self.wakeup = array("d")
        self.active = False

    # -- per-thread state -------------------------------------------------
    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sent(self) -> list[tuple[int, int]]:
        sent = getattr(self._local, "sent", None)
        if sent is None:
            sent = self._local.sent = []
        return sent

    # -- wrapping ---------------------------------------------------------
    def wrap(self, obj: object, method: str, name: str, before=None, after=None) -> None:
        """Shadow ``obj.method`` with a span-recording wrapper.

        ``before(args)`` runs before the call and returns
        ``(request ids, state)``; ``after(args, result, state, t0, t1)``
        returns the span's ``extra`` payload.  Both are optional.
        """
        raw = getattr(obj, method)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        scalar = method in _SCALAR_KERNELS and name.startswith("index.")
        perf_counter, thread_time = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            if not self.active:
                return raw(*args, **kwargs)
            stack = stack_of()
            # Batch fallbacks loop the scalar kernel per key; the batch
            # span already covers that work, so inner calls run bare.
            if scalar and stack and stack[-1][1].startswith("index."):
                return raw(*args, **kwargs)
            rids, state = before(args) if before is not None else (None, None)
            parent = stack[-1][0] if stack else 0
            sid = next(ids)
            stack.append((sid, name))
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = raw(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
            extra = after(args, result, state, t0, t1) if after is not None else None
            spans.append(Span(sid, name, t0, t1, c0, c1, parent, rids, extra))
            return result

        setattr(obj, method, wrapper)

    # -- request bookkeeping ----------------------------------------------
    def _admit(self, requests) -> tuple[list[int], None]:
        now = time.perf_counter()
        sent = self._sent()
        rids = []
        for request in requests:
            rid = next(self._ids)
            self._rid_of[id(request)] = rid
            self._enqueued[rid] = now
            sent.append((id(request), rid))
            rids.append(rid)
        return rids, None

    def _execute_rids(self, requests) -> list[int]:
        rid_of = self._rid_of
        return [rid_of.get(id(r), 0) for r in requests]

    def _executed(self, rids: list[int], t0: float, t1: float, top: bool) -> None:
        if not top:
            return
        enqueued = self._enqueued
        for rid in rids:
            start = enqueued.pop(rid, None)
            if start is not None:
                self.queue_wait.append(t0 - start)
                self._kernel_end[rid] = t1

    def client_done(self) -> None:
        """The calling client thread holds the answers to everything it sent.

        Records the wake-up gap (last kernel end of those requests to
        now) and forgets their ids.  Requests answered from the cache
        have no kernel end and add nothing.
        """
        if not self.active:
            return
        now = time.perf_counter()
        sent = self._sent()
        last = 0.0
        for obj_id, rid in sent:
            end = self._kernel_end.pop(rid, 0.0)
            if end > last:
                last = end
            self._enqueued.pop(rid, None)
            if self._rid_of.get(obj_id) == rid:
                del self._rid_of[obj_id]
        sent.clear()
        if last:
            self.wakeup.append(now - last)

    # -- installation -----------------------------------------------------
    def install_server(self, server) -> None:
        """Wrap the coalescer, store, cache and stats of a live server."""
        coalescer = server._coalescer
        store = server.store
        self.wrap(coalescer, "submit", "coalescer.submit",
                  before=lambda a: self._admit([a[0]]))
        for method in ("submit_many", "submit_window"):
            self.wrap(coalescer, method, f"coalescer.{method}",
                      before=lambda a: self._admit(a[0]))

        self.wrap(store, "route", "sharding.route", after=lambda a, r, s, t0, t1: 1)
        self.wrap(store, "route_home_batch", "sharding.route_home_batch",
                  after=lambda a, r, s, t0, t1: len(a[0]))

        def exec_before(requests):
            stack = self._stack()
            top = not (stack and stack[-1][1].startswith("sharding."))
            rids = self._execute_rids(requests)
            return rids, (rids, top, requests[0].op.value)

        def exec_after(args, result, state, t0, t1):
            rids, top, op = state
            self._executed(rids, t0, t1, top)
            return {"top": top, "op": op, "n": len(rids)}

        self.wrap(store, "execute", "sharding.execute",
                  before=lambda a: exec_before([a[0]]), after=exec_after)
        self.wrap(store, "execute_batch", "sharding.execute_batch",
                  before=lambda a: exec_before(a[2]), after=exec_after)
        self.wrap(store, "insert", "sharding.insert")
        self.wrap(store, "knn_query", "sharding.knn_query")

        cache = server._cache
        seen: set = set()

        def cache_after(args, result, state, t0, t1):
            args_key = args[0][0]
            hit = result is not args[1] if len(args) > 1 else result is not None
            repeat = (not hit) and args_key in seen
            seen.add(args_key)
            return {"hit": hit, "repeat": repeat}

        self.wrap(cache, "get", "cache.get", after=cache_after)
        self.wrap(cache, "put", "cache.put")

        stats = server.server_stats
        self.wrap(stats, "record_done", "stats.record_done", after=lambda a, r, s, t0, t1: 1)
        self.wrap(stats, "record_done_many", "stats.record_done_many",
                  after=lambda a, r, s, t0, t1: len(a[0]))

        for shard in store.shards:
            self.install_index(shard)

    def install_index(self, index) -> None:
        """Wrap the kernels of one shard's index instance."""
        for method in LOOKUP_KERNELS:
            if hasattr(index, method):
                batch = method.endswith("_batch")
                self.wrap(index, method, f"index.{method}",
                          after=(lambda a, r, s, t0, t1: len(a[0])) if batch
                          else (lambda a, r, s, t0, t1: 1))
        if hasattr(index, "insert"):
            self.wrap(index, "insert", "index.insert")
        if hasattr(index, "knn_query"):
            self.wrap(index, "knn_query", "index.knn_query")
        if hasattr(index, "range_query"):
            self.wrap(index, "range_query", "index.range_query",
                      before=lambda a: (None, index.stats.keys_scanned),
                      after=lambda a, r, before, t0, t1: (
                          len(r), index.stats.keys_scanned - before))

    # -- output -----------------------------------------------------------
    def write(self, path: Path) -> None:
        """Dump every recorded span, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()))
                fh.write("\n")


def _p50(values) -> float:
    return float(np.median(np.asarray(values))) if len(values) else 0.0


def _ratio(total: float, count: float) -> float:
    return total / count if count else 0.0


def _wall(span: Span) -> float:
    return span.t1 - span.t0


def _cpu(span: Span) -> float:
    return span.c1 - span.c0


def _is_index(span: Span | None) -> bool:
    return span is not None and span.name.startswith("index.")


def layer_metrics(tracer: Tracer, wall_s: float, completed: int,
                  corrections: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase.

    Costs per request, key or call are thread CPU time; waits and
    per-call latencies (``*_wait_us``, ``wakeup_us``, ``execute_self_us``
    and the p50 metrics) are wall time.  A layer that does no work on a
    workload reports 0.  ``corrections`` is the ``IndexStats.corrections``
    delta over the phase.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    child_wall: dict[int, float] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
        if s.parent:
            child_wall[s.parent] = child_wall.get(s.parent, 0.0) + _wall(s)

    def of(*names: str) -> list[Span]:
        return [s for n in names for s in named.get(n, ())]

    def cpu(*names: str) -> float:
        return sum(_cpu(s) for s in of(*names))

    # Coalescer: admission, batch formation, scalar share.
    submit_names = [f"coalescer.{m}" for m in SERVER_SUBMITS]
    admitted = sum(len(s.rids) for s in of(*submit_names))
    executes = [s for s in of(*(f"sharding.{m}" for m in STORE_EXECUTES)) if s.extra["top"]]
    batched = [s for s in executes if s.name == "sharding.execute_batch"]
    scalar = [s for s in executes if s.name == "sharding.execute"]
    batch_reqs = sum(s.extra["n"] for s in batched)
    coalescable_scalar = sum(1 for s in scalar
                             if s.extra["op"] in ("lookup", "contains", "point_query"))

    # Routing and shard execution.
    routes = of("sharding.route", "sharding.route_home_batch")
    exec_self = [_wall(s) - child_wall.get(s.id, 0.0) for s in executes]

    # kNN fan-out: the range probes each shard's knn_query issues.
    index_knn = of("index.knn_query")
    knn_ids = {s.id for s in index_knn}
    ranges = of("index.range_query")
    probes = [s for s in ranges if s.parent in knn_ids]
    candidates = {s.id: 0 for s in of("sharding.knn_query")}
    for s in probes:
        served = by_id[s.parent].parent
        if served in candidates:
            candidates[served] += s.extra[0]

    # Cache.
    gets = of("cache.get")
    hits = sum(1 for s in gets if s.extra["hit"])
    misses = len(gets) - hits
    repeats = sum(1 for s in gets if s.extra["repeat"])

    # Stats recorders.
    recorders = of("stats.record_done", "stats.record_done_many")

    # Index kernels: only outermost index spans are kernel time.
    top_index = [s for s in spans if _is_index(s) and not _is_index(by_id.get(s.parent))]
    kernel_cpu = sum(_cpu(s) for s in top_index)
    lookups = [s for s in top_index if s.name[len("index."):] in LOOKUP_KERNELS]
    lookup_keys = sum(s.extra for s in lookups)

    us = 1e6
    return {
        "coalescer.queue_wait_us": _p50(tracer.queue_wait) * us,
        "coalescer.batch_size": _ratio(batch_reqs + coalescable_scalar,
                                       len(batched) + coalescable_scalar),
        "coalescer.scalar_frac": _ratio(len(scalar), len(scalar) + batch_reqs),
        "coalescer.wakeup_us": _p50(tracer.wakeup) * us,
        "server.admit_us_per_req": _ratio(cpu(*submit_names), admitted) * us,
        "sharding.route_us_per_req": _ratio(sum(_cpu(s) for s in routes), completed) * us,
        "sharding.execute_self_us": _ratio(sum(exec_self), len(exec_self)) * us,
        "sharding.insert_us": _p50([_wall(s) for s in of("sharding.insert")]) * us,
        "sharding.knn_candidates_per_query": _ratio(sum(candidates.values()), len(candidates)),
        "cache.hit_ratio": _ratio(hits, len(gets)),
        "cache.repeat_miss_ratio": _ratio(repeats, misses),
        "cache.get_us": _ratio(cpu("cache.get"), len(gets)) * us,
        "cache.put_us": _ratio(cpu("cache.put"), len(of("cache.put"))) * us,
        "stats.record_us_per_req": _ratio(sum(_cpu(s) for s in recorders),
                                          sum(s.extra for s in recorders)) * us,
        "index.lookup_us_per_key": _ratio(sum(_cpu(s) for s in lookups), lookup_keys) * us,
        "index.corrections_per_lookup": _ratio(corrections, lookup_keys),
        "index.busy_frac": _ratio(kernel_cpu, wall_s),
        "index.insert_us": _p50([_wall(s) for s in of("index.insert")]) * us,
        "index.range_us": _p50([_wall(s) for s in ranges if s.parent not in knn_ids]) * us,
        "index.knn_us": _p50([_wall(s) for s in index_knn]) * us,
        "index.knn_range_rounds": _ratio(len(probes), len(index_knn)),
        "index.keys_scanned_per_result": _ratio(sum(s.extra[1] for s in ranges),
                                                sum(s.extra[0] for s in ranges)),
        "serve_overhead_x": _ratio(_ratio(wall_s, completed), _ratio(kernel_cpu, completed)),
    }
