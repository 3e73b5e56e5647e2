"""Per-layer tracing from outside the program: wrappers, spans, self times.

The traced run wraps the public entry points of each layer (kernel
``choose``/``observe``, ``GroupingStrategy.partition``, ``RandomWalk.run``,
``WalkScheduler.run``, the cache / budget middleware, the backend fetches, the
HTTP client and its record codec, ``SamplingSession.estimate``) with a timer
that records one span per call: name, start, end, parent span and op id.
Spans stay in memory and are written as JSONL when the run ends.  A span's
self time is its duration minus the time its child spans cover, so every
microsecond of an op is charged to exactly one layer.  No code under ``src/``
changes; :meth:`SpanRecorder.uninstall` puts every original back.
"""

from __future__ import annotations

import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Server endpoints whose handler time ``GET /stats`` reports, by client span.
ENDPOINTS = {"remote.node": "/node", "remote.nodes": "/nodes", "remote.walk": "/walk"}


def wrap_targets():
    """(owner, attribute, span name, records batch size) for every wrapped call."""
    from repro.api import remote
    from repro.api.backend import CSRBackend
    from repro.api.middleware import BackendAPI, BudgetLayer, CacheLayer
    from repro.api.remote import HTTPGraphBackend
    from repro.api.session import SamplingSession
    from repro.engine.scheduler import WalkScheduler
    from repro.walks.base import RandomWalk
    from repro.walks.grouping import GroupingStrategy
    from repro.walks.kernels import CNRWKernel, GNRWKernel, SRWKernel

    return [
        (RandomWalk, "run", "walks.driver", False),
        (SRWKernel, "choose", "walks.choose", False),
        (CNRWKernel, "choose", "walks.choose", False),
        (GNRWKernel, "choose", "walks.choose", False),
        (CNRWKernel, "observe", "walks.observe", False),
        (GNRWKernel, "observe", "walks.observe", False),
        (GroupingStrategy, "partition", "walks.partition", False),
        (WalkScheduler, "run", "engine.scheduler", False),
        (CacheLayer, "query", "api.cache", False),
        (CacheLayer, "query_many", "api.cache", True),
        (BudgetLayer, "query", "api.budget", False),
        (BudgetLayer, "query_many", "api.budget", True),
        (BackendAPI, "query", "api.adapter", False),
        (BackendAPI, "query_many", "api.adapter", True),
        (CSRBackend, "fetch", "storage.fetch", False),
        (CSRBackend, "fetch_many", "storage.fetch", True),
        (HTTPGraphBackend, "fetch", "remote.node", False),
        (HTTPGraphBackend, "fetch_many", "remote.nodes", True),
        (HTTPGraphBackend, "remote_walk", "remote.walk", False),
        (remote, "record_from_wire", "remote.codec", False),
        (SamplingSession, "estimate", "estimation", False),
    ]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name_of = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.sizes = array("l")
        self._stack = [-1]
        self._saved: List[tuple] = []
        self.op = -1

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int, size: int) -> int:
        index = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op)
        self.sizes.append(size)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's op roots)."""
        index = self._open(self._name_id(name), -1)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, function, name: str, sized: bool):
        name_id = self._name_id(name)
        open_span, close_span = self._open, self._close

        if sized:
            def wrapper(this, items, *args, **kwargs):
                index = open_span(name_id, len(items))
                try:
                    return function(this, items, *args, **kwargs)
                finally:
                    close_span(index)
        else:
            def wrapper(*args, **kwargs):
                index = open_span(name_id, -1)
                try:
                    return function(*args, **kwargs)
                finally:
                    close_span(index)
        return wrapper

    def install(self) -> None:
        """Wrap every target (idempotent per recorder)."""
        if self._saved:
            return
        for owner, attribute, name, sized in wrap_targets():
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, sized))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def arrays(self):
        names = np.frombuffer(self.name_of, dtype=np.int16) if self.name_of else np.zeros(0, np.int16)
        starts = np.array(self.starts)
        durations = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        return names, durations, durations - child, parents, np.array(self.sizes)

    def write_jsonl(self, path: Path) -> None:
        """One span per line: name, start/end (s, run clock), parent index, op."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self.starts)):
                handle.write(
                    f'{{"id": {index}, "name": "{self.names[self.name_of[index]]}", '
                    f'"start": {self.starts[index] - origin:.9f}, '
                    f'"end": {self.ends[index] - origin:.9f}, '
                    f'"parent": {self.parents[index]}, "op": {self.ops[index]}}}\n'
                )


def _quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, n=100); 0 when empty."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    recorder: SpanRecorder,
    ops: int,
    stack: Dict[str, int],
    server: Optional[Dict[str, Dict[str, float]]],
    walk_unique: int,
    registry: Dict[str, float],
) -> Tuple[Dict[str, float], Optional[Dict[str, Any]]]:
    """Every per-layer figure of one traced phase, plus the remote time split.

    ``stack`` holds the middleware counters summed over the phase's ops
    (cache hits/misses, unique/total queries); ``server`` the ``GET /stats``
    deltas per endpoint (``count``, ``sum`` in ms) plus ``nodes_served``, or
    ``None`` without a server; ``walk_unique`` the unique queries the phase's
    server-side walks billed.  Times are microseconds; a layer the workload
    never calls reports 0.  The split says which layer owns the gap between
    client-observed request time and server handler time per unique query
    (``None`` without remote requests).
    """
    names, durations, self_time, parents, sizes = recorder.arrays()
    ids = recorder.name_ids

    def mask(name):
        return names == ids[name] if name in ids else np.zeros(len(names), bool)

    def calls(name):
        return int(mask(name).sum())

    def self_us(name):
        picked = mask(name)
        count = int(picked.sum())
        return float(self_time[picked].sum()) * 1e6 / count if count else 0.0

    def under(child, parent):
        picked = mask(child) & (parents >= 0)
        return picked & np.isin(parents, np.flatnonzero(mask(parent)))

    per_op = (lambda n: n / ops) if ops else (lambda n: 0.0)
    out: Dict[str, float] = {}
    out["walks.choose.calls"] = per_op(calls("walks.choose"))
    out["walks.choose.us"] = self_us("walks.choose")
    out["walks.observe.us"] = self_us("walks.observe")
    out["walks.partition.calls"] = per_op(calls("walks.partition"))
    out["walks.partition.us"] = self_us("walks.partition")
    steps = int(under("walks.choose", "walks.driver").sum())
    driver_self = float(self_time[mask("walks.driver")].sum())
    out["walks.driver.us"] = driver_self * 1e6 / steps if steps else 0.0

    rounds = under("api.cache", "engine.scheduler")
    scheduler_self = float(self_time[mask("engine.scheduler")].sum())
    out["engine.scheduler.rounds"] = per_op(int(rounds.sum()))
    out["engine.scheduler.us"] = scheduler_self * 1e6 / rounds.sum() if rounds.any() else 0.0
    out["engine.scheduler.frontier"] = float(sizes[rounds].mean()) if rounds.any() else 0.0

    looked_up = stack["hits"] + stack["misses"]
    out["api.cache.us"] = self_us("api.cache")
    out["api.cache.hit_rate"] = stack["hits"] / looked_up if looked_up else 0.0
    out["api.budget.us"] = self_us("api.budget")
    out["api.adapter.us"] = self_us("api.adapter")
    out["api.billed_ratio"] = stack["unique"] / stack["total"] if stack["total"] else 0.0

    out["storage.fetch.calls"] = per_op(calls("storage.fetch"))
    out["storage.fetch.us"] = self_us("storage.fetch")

    request_mask = np.zeros(len(names), bool)
    for name in ENDPOINTS:
        request_mask |= mask(name)
    request_us = durations[request_mask] * 1e6
    out["remote.requests"] = per_op(int(request_mask.sum()))
    out["remote.request_us.p50"] = _quantile(request_us, 50)
    out["remote.request_us.p90"] = _quantile(request_us, 90)
    out["remote.codec.us"] = self_us("remote.codec")
    out["remote.retries"] = registry.get("retries", 0)
    out["remote.failures"] = registry.get("failures", 0)

    endpoints: Dict[str, Any] = {}
    wire_total_us = 0.0
    wire_requests = 0
    for client, endpoint in ENDPOINTS.items():
        key = endpoint.strip("/")
        stats = (server or {}).get(endpoint, {"count": 0, "sum": 0.0})
        handler_us = stats["sum"] * 1000.0
        out[f"server.{key}.us"] = handler_us / stats["count"] if stats["count"] else 0.0
        count = calls(client)
        client_self_us = float(self_time[mask(client)].sum()) * 1e6
        wire_us = client_self_us - handler_us
        out[f"wire.{key}.us"] = wire_us / count if count else 0.0
        wire_total_us += wire_us
        wire_requests += count
        endpoints[key] = {"requests": count, "server_us": handler_us, "wire_us": wire_us}
    out["wire.us"] = wire_total_us / wire_requests if wire_requests else 0.0
    nodes_requests = (server or {}).get("/nodes", {"count": 0})["count"]
    if server and nodes_requests:
        batched = server["nodes_served"] - server["/node"]["count"] - walk_unique
        out["server.nodes.records"] = batched / nodes_requests
    else:
        out["server.nodes.records"] = 0.0
    out["estimation.us"] = self_us("estimation")

    unique = stack["unique"] + walk_unique
    if not (wire_requests and unique):
        return out, None
    parts = {
        "server handler": sum(entry["server_us"] for entry in endpoints.values()),
        "wire (transport, loop wait, body JSON encode/decode, traced registry calls)":
            wire_total_us,
        "codec (record_from_wire)": float(self_time[mask("remote.codec")].sum()) * 1e6,
    }
    return out, {
        "per_unique_query_us": {name: value / unique for name, value in parts.items()},
        "client_observed_us": float(durations[request_mask].sum()) * 1e6 / unique,
        "owner": max(parts, key=parts.get),
        "endpoints": endpoints,
    }
