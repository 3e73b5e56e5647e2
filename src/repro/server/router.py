"""The transport-agnostic request router behind both HTTP frontends.

:class:`GraphRouter` owns everything the ``repro-graph-http`` wire means
once a request has been framed: the endpoints, tenant resolution and
billing, the mapping of typed errors to HTTP statuses, JSON encoding, the
``X-Repro-Span`` trace echo, the access-log line and the stats bookkeeping
behind ``/stats``, ``/metrics`` and ``reset_stats``.  The threaded
(:mod:`repro.server.app`) and asyncio (:mod:`repro.server.aio`) frontends are
transport adapters around it: they parse a request with the shared rules of
:mod:`repro.server.wire`, hand it to :meth:`GraphRouter.begin` /
:meth:`GraphRouter.dispatch`, and write the :class:`Response` it returns.

Endpoints:

* ``GET /info`` — service descriptor (``start`` for replay dumps, and
  ``epoch`` / ``shard`` / ``replicas`` for shard slices);
* ``GET /node/<id>`` — one neighborhood record;
* ``POST /nodes`` — batched ``fetch_many`` (atomic; a miss 404s the batch);
* ``GET /meta/<id>`` — the free profile summary ``peek_metadata`` serves;
* ``GET /node-ids`` — every node id in backend order;
* ``POST /walk`` — a whole random walk run server-side, returned as its path
  plus a CRC fingerprint;
* ``GET /stats`` — endpoint, node and per-tenant usage with latency summaries;
* ``GET /metrics`` — the server's registry as Prometheus text.

Errors travel as typed JSON bodies the client maps back to the exact local
exception: ``bad_request`` (400), ``unauthorized`` (401), ``not_found`` /
``replay_miss`` / ``unknown_endpoint`` (404), ``rate_limited`` /
``budget_exhausted`` (429) and ``server_error`` (500).

Every change to tenant state and to the request counts happens under the
router's one lock, so the figures stay exact under the threaded frontend's
handler threads and while a tenant's ``/walk`` (run off the event loop by the
asyncio frontend) overlaps its other requests.

The record endpoints encode their bodies themselves, inside the error
mapping of :meth:`GraphRouter.dispatch`.  When the backend declares
:attr:`~repro.api.backend.GraphBackend.immutable_records`, each record's
bytes are memoised by node id — exact ``int`` and ``str`` ids only, so
``/node/true`` never answers from node ``1``'s entry — in a memo bounded by
:data:`RECORD_MEMO_BYTES` (oldest out first), and ``/nodes`` joins the
records as ``{"records": [`` + ``", "``-joined records + ``]}``,
byte-identical to ``json.dumps`` of the whole payload.  Without a memo a
batch is encoded in one ``json.dumps``, which costs less than one call per
record.  The memo belongs to the backend being served and is replaced when
``backend`` is reassigned.  The backend's ``fetch`` / ``fetch_many`` still
runs on every request, so billing, ``nodes_served``, misses and injected
faults stay exact; the memo only skips the JSON encoding.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
import urllib.parse
from collections import Counter
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple

from ..api.builder import build_api
from ..api.remote import (
    WIRE_FORMAT,
    WIRE_VERSION,
    decode_node_id,
    record_to_wire,
    walk_fingerprint,
)
from ..exceptions import (
    DeadEndError,
    InvalidConfigurationError,
    InvalidStartNodeError,
    NodeNotFoundError,
    QueryBudgetExceededError,
    RateLimitExceededError,
    ReplayMissError,
    TenantAuthError,
)
from ..memo import ENTRY_BYTES, BoundedMemo
from ..obs import (
    SPAN_ECHO_HEADER,
    TRACE_HEADER,
    MetricsRegistry,
    format_span_echo,
    metrics as global_metrics,
    new_span_id,
    parse_trace_header,
    suppress_metrics,
)
from ..walks.factory import make_walker
from .tenants import API_KEY_HEADER, TenantPolicy, WallClock, build_registry
from .wire import reachable_url

_REASONS = {status.value: status.phrase for status in HTTPStatus}

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoints billed against a tenant's rate limit: the ones that cost the
#: upstream service work per the paper's cost model (neighborhood queries and
#: server-side walks).  ``/info``, ``/meta``, ``/node-ids`` and ``/stats``
#: stay free, like profile peeks in the paper.
_BILLABLE = {"/node", "/nodes", "/walk"}

#: A plain origin-form request target (one leading ``/``, no query or
#: fragment, none of the characters ``urlsplit`` strips), whose
#: ``urlsplit(target).path`` is the target itself.
_ORIGIN_FORM = re.compile(r"/(?!/)[^?#\t\r\n]*")

#: Cap on a server-side walk when the request names neither steps nor budget
#: and the tenant is unlimited; without it one request could walk forever.
_MAX_FREE_WALK_STEPS = 100_000

#: Ceiling of one served backend's record-body memo, in resident bytes.
#: Each entry is charged its key, its body and its slot (``_entry_weight``).
RECORD_MEMO_BYTES = 16 << 20


class _BadRequest(Exception):
    """Internal: a request the router rejects with HTTP 400."""


@dataclass
class Response:
    """One encoded answer, ready for a transport to frame and write."""

    status: int
    body: bytes
    content_type: str = _JSON
    #: Extra header lines, each ending in CRLF (the trace echo).
    headers: str = ""

    def encode(self, close: bool) -> bytes:
        """The full HTTP/1.1 response; ``close`` adds ``Connection: close``."""
        head = (
            f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Status')}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"{self.headers}"
        )
        if close:
            # Tell the client the keep-alive ends here (a refusal, or a client
            # that asked to close), so it reconnects instead of discovering a
            # dead socket on its next request.
            head += "Connection: close\r\n"
        return head.encode("iso-8859-1") + b"\r\n" + self.body


def refusal(status: int, message: str) -> Response:
    """The typed answer to a request the parser refuses before routing."""
    payload = {"error": "bad_request", "message": message}
    return Response(status, json.dumps(payload).encode("utf-8"))


class Exchange:
    """One request between :meth:`GraphRouter.begin` and its response."""

    __slots__ = (
        "method", "path", "endpoint", "headers", "body", "started", "trace",
        "tenant", "served",
    )

    def __init__(self, method: str, path: str, endpoint: str, headers,
                 body: bytes, started: float) -> None:
        self.method = method
        self.path = path
        self.endpoint = endpoint
        self.headers = headers
        self.body = body
        self.started = started
        # Trace context travels as an additive header; malformed or absent
        # values leave tracing off for this request (never a refusal).
        self.trace = parse_trace_header(headers.get(TRACE_HEADER))
        self.tenant: Optional[TenantPolicy] = None
        self.served = 0


def _node_error_payload(error: NodeNotFoundError) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "error": "replay_miss" if isinstance(error, ReplayMissError) else "not_found",
        "message": str(error),
    }
    try:
        json.dumps(error.node)
        payload["node"] = error.node
    except (TypeError, ValueError):
        # A non-JSON-able id can only have been produced server-side (the
        # wire always delivers JSON values); degrade to its repr.
        payload["node"] = repr(error.node)
    source = getattr(error, "source", None)
    if source is not None:
        payload["source"] = str(source)
    return payload


def _decode_node(segment: str):
    try:
        return decode_node_id(segment)
    except ValueError:
        raise _BadRequest(
            f"node id path segment {segment!r} is not JSON "
            f"(ids travel JSON-encoded, percent-escaped)"
        ) from None


def _encode_record(record) -> bytes:
    return json.dumps(record_to_wire(record)).encode("utf-8")


def _entry_weight(node, body: bytes) -> int:
    return sys.getsizeof(node) + sys.getsizeof(body) + ENTRY_BYTES


def _record_body(bodies: Optional[BoundedMemo], node, record) -> bytes:
    """The encoded body of ``record`` (fetched for ``node``), via ``bodies``
    when the backend has a memo and ``node`` is an exact ``int``/``str``."""
    kind = type(node)
    if bodies is None or (kind is not int and kind is not str):
        return _encode_record(record)
    body = bodies.get(node)
    if body is None:
        body = _encode_record(record)
        bodies.put(node, body)
    return body


def _json_body(exchange: Exchange) -> Any:
    try:
        return json.loads(exchange.body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise _BadRequest(f"request body is not JSON: {error}") from None


class GraphRouter:
    """Route framed requests to one :class:`GraphBackend`; keep the books.

    Args:
        backend: The backend every endpoint reads.
        server: The frontend's name, reported as ``"server"`` by ``/info``
            and ``/stats``.
        tenants: Anything :func:`~repro.server.tenants.build_registry`
            accepts; ``None`` serves everyone as the unlimited ``public``
            tenant.
        clock: Clock for rate-limit windows (defaults to the wall clock).
    """

    def __init__(self, backend, server: str, *, tenants=None, clock=None) -> None:
        self.backend = backend
        self.server = server
        self.tenants = build_registry(tenants)
        self._clock = clock if clock is not None else WallClock()
        self.endpoint_counts: Counter = Counter()
        self._nodes_served = 0
        #: Per-server registry: isolated from other servers in the process,
        #: rendered by ``GET /metrics``, reset atomically by `reset_stats`.
        self.metrics = MetricsRegistry()
        #: Open text file receiving one JSON line per request, or ``None``.
        self.access_log = None
        self._lock = threading.Lock()

    @property
    def backend(self):
        """The backend every endpoint reads."""
        return self._serving[0]

    @backend.setter
    def backend(self, backend) -> None:
        # One attribute holds the backend and its memo, so a request that
        # reads it once never pairs one backend with another's bodies.
        bodies = None
        if getattr(backend, "immutable_records", False):
            bodies = BoundedMemo(RECORD_MEMO_BYTES, _entry_weight)
        self._serving = (backend, bodies)

    # ------------------------------------------------------------------
    # The exchange
    # ------------------------------------------------------------------
    def begin(self, method: str, target: str, headers, body: bytes) -> Exchange:
        """Start the server timer and count the request against its endpoint."""
        started = time.perf_counter()
        if _ORIGIN_FORM.fullmatch(target):
            # Every request this wire's client sends: the target is the path.
            path = target
        else:
            path = urllib.parse.urlsplit(target).path
        endpoint = "/" + path.lstrip("/").split("/", 1)[0] if path.strip("/") else "/"
        with self._lock:
            self.endpoint_counts[endpoint] += 1
        return Exchange(method, path, endpoint, headers, body, started)

    @staticmethod
    def offloads(exchange: Exchange) -> bool:
        """Whether :meth:`dispatch` runs long enough to block an event loop."""
        return exchange.method == "POST" and exchange.path == "/walk"

    def dispatch(self, exchange: Exchange) -> Response:
        """Resolve the tenant, route the request and map any typed error."""
        try:
            with self._lock:
                tenant = self.tenants.resolve(exchange.headers.get(API_KEY_HEADER))
                exchange.tenant = tenant
                tenant.charge_request(exchange.endpoint)
                if exchange.endpoint in _BILLABLE:
                    tenant.acquire_slot(self._clock)
            status, payload = self._route(exchange)
        except TenantAuthError as error:
            status, payload = 401, {"error": "unauthorized", "message": str(error)}
        except _BadRequest as error:
            status, payload = 400, {"error": "bad_request", "message": str(error)}
        except RateLimitExceededError as error:
            status, payload = 429, {
                "error": "rate_limited",
                "message": str(error),
                "retry_after": error.retry_after,
            }
        except QueryBudgetExceededError as error:
            status, payload = 429, {
                "error": "budget_exhausted",
                "message": str(error),
                "limit": error.budget,
                "spent": error.spent,
            }
        except NodeNotFoundError as error:
            status, payload = 404, _node_error_payload(error)
        except Exception as error:  # noqa: BLE001 - surface as HTTP 500
            status, payload = 500, {
                "error": "server_error",
                "message": f"{type(error).__name__}: {error}",
            }
        return self.finish(exchange, status, payload)

    def finish(self, exchange: Exchange, status: int, payload) -> Response:
        """Encode ``payload`` and close the books on the exchange.

        The server timer runs from :meth:`begin` to here, so it covers
        routing and body encoding but not the transport's socket write.
        """
        if type(payload) is bytes:
            # An already-encoded JSON body (the record endpoints).
            body, content_type = payload, _JSON
        elif isinstance(payload, str):
            body, content_type = payload.encode("utf-8"), _PROMETHEUS
        else:
            body, content_type = json.dumps(payload).encode("utf-8"), _JSON
        duration_ms = (time.perf_counter() - exchange.started) * 1000.0
        endpoint, tenant = exchange.endpoint, exchange.tenant
        self.metrics.inc("repro_server_requests_total", endpoint=endpoint, status=status)
        self.metrics.observe("repro_server_request_ms", duration_ms, endpoint=endpoint)
        if tenant is not None:
            self.metrics.observe("repro_tenant_request_ms", duration_ms, tenant=tenant.name)
        headers = ""
        trace_id = None
        if exchange.trace is not None:
            trace_id, parent_span = exchange.trace
            echo = format_span_echo(
                trace_id, new_span_id(), parent_span, duration_ms, "server" + endpoint
            )
            headers = f"{SPAN_ECHO_HEADER}: {echo}\r\n"
        if self.access_log is not None:
            self._log_access(exchange, status, duration_ms, trace_id)
        return Response(status, body, content_type, headers)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _route(self, exchange: Exchange) -> Tuple[int, Any]:
        method, path = exchange.method, exchange.path
        if method == "GET":
            if path == "/info":
                return 200, self._info()
            if path == "/node-ids":
                return 200, {"nodes": self.backend.node_ids()}
            if path == "/stats":
                return 200, self.stats_payload()
            if path == "/metrics":
                return 200, self.metrics.render_prometheus()
            if path.startswith("/node/"):
                node = _decode_node(path[len("/node/"):])
                backend, bodies = self._serving
                record = self._fetch(exchange, [node], lambda: [backend.fetch(node)])[0]
                return 200, _record_body(bodies, node, record)
            if path.startswith("/meta/"):
                return 200, self._meta(_decode_node(path[len("/meta/"):]))
        elif method == "POST":
            if path == "/nodes":
                payload = _json_body(exchange)
                nodes = payload.get("nodes") if isinstance(payload, dict) else None
                if not isinstance(nodes, list):
                    raise _BadRequest('request body must be {"nodes": [...]}')
                backend, bodies = self._serving
                records = self._fetch(exchange, nodes, lambda: backend.fetch_many(nodes))
                if bodies is None:
                    # With nothing to reuse, one json.dumps of the batch is
                    # cheaper than one per record (about 60 us per 16).
                    wire = [record_to_wire(record) for record in records]
                    return 200, json.dumps({"records": wire}).encode("utf-8")
                parts = [_record_body(bodies, node, record)
                         for node, record in zip(nodes, records)]
                return 200, b'{"records": [' + b", ".join(parts) + b"]}"
            if path == "/walk":
                return 200, self._walk(exchange)
        else:
            raise _BadRequest(f"unsupported method {method}")
        return 404, {"error": "unknown_endpoint", "message": f"no endpoint at {path}"}

    def _info(self) -> Dict[str, Any]:
        backend = self.backend
        descriptor: Dict[str, Any] = {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "name": backend.name,
            "nodes": len(backend),
            "backend": type(backend).__name__,
            "server": self.server,
        }
        # Replay-backed servers publish the dump's recorded start (so a remote
        # client can restart the recorded crawl without the id table); shard
        # slices publish their membership epoch and replica spec (so cluster
        # clients detect a stale manifest without a new wire version).
        for key in ("recorded_start", "epoch", "shard", "replicas"):
            value = getattr(backend, key, None)
            if value is not None:
                descriptor["start" if key == "recorded_start" else key] = value
        return descriptor

    def _meta(self, node) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"meta": node, "contains": bool(self.backend.contains(node))}
        summary = self.backend.metadata(node)
        if summary is not None:
            payload["degree"] = summary.get("degree")
            payload["attributes"] = summary.get("attributes", {})
        return payload

    def _fetch(self, exchange: Exchange, nodes, fetch):
        """Reserve the tenant's budget for ``nodes``, run ``fetch``, bill it.

        Reservation, fetch and commit are one critical section, so two
        concurrent requests of one tenant can never both bill, or jointly
        overrun, the same allowance.  A refused reservation raises before the
        fetch, so a denied request bills and serves nothing.
        """
        tenant = exchange.tenant
        with self._lock:
            fresh = tenant.reserve_nodes(nodes)
            records = fetch()
            tenant.commit_nodes(fresh, len(records))
            self._nodes_served += len(records)
        exchange.served = len(records)
        self.metrics.inc("repro_server_nodes_served_total", len(records))
        return records

    def _walk(self, exchange: Exchange) -> Dict[str, Any]:
        payload = _json_body(exchange)
        if not isinstance(payload, dict):
            raise _BadRequest('request body must be {"kernel": ..., "start": ...}')
        kernel = payload.get("kernel")
        if not isinstance(kernel, str):
            raise _BadRequest('walk request needs a string "kernel"')
        if "start" not in payload:
            raise _BadRequest('walk request needs a "start" node id')
        start = payload["start"]
        if isinstance(start, (list, dict)):
            raise _BadRequest('walk "start" must be a scalar JSON node id')
        seed = payload.get("seed", 0)
        steps = payload.get("steps")
        budget = payload.get("budget")
        burn_in = payload.get("burn_in", 0)
        thinning = payload.get("thinning", 1)
        for name, value, optional in (
            ("seed", seed, False),
            ("steps", steps, True),
            ("budget", budget, True),
            ("burn_in", burn_in, False),
            ("thinning", thinning, False),
        ):
            if value is None and optional:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise _BadRequest(f'walk "{name}" must be a non-negative integer')
        # Cap the walk's budget by what the tenant has left, so one request
        # cannot crawl past its allowance; billing happens after the walk
        # from its *unique* query count, matching the paper's cost model.
        tenant = exchange.tenant
        with self._lock:
            remaining = tenant.budget.remaining
            if remaining is not None and remaining <= 0:
                raise QueryBudgetExceededError(tenant.budget.limit, spent=tenant.budget.spent)
        if remaining is not None:
            budget = remaining if budget is None else min(budget, remaining)
        if steps is None and budget is None:
            steps = _MAX_FREE_WALK_STEPS
        try:
            result = self._run_walk(kernel, start, seed, steps, budget, burn_in, thinning)
        except (InvalidConfigurationError, InvalidStartNodeError, DeadEndError,
                ValueError) as error:
            raise _BadRequest(str(error)) from error
        with self._lock:
            tenant.bill_walk(result.unique_queries)
            self._nodes_served += result.unique_queries
        exchange.served = result.unique_queries
        self.metrics.inc("repro_server_walks_total")
        self.metrics.inc("repro_server_nodes_served_total", result.unique_queries)
        path = list(result.path)
        return {
            "path": path,
            "fingerprint": walk_fingerprint(path),
            "steps": result.steps,
            "unique_queries": result.unique_queries,
            "total_queries": result.total_queries,
            "stopped_by_budget": result.stopped_by_budget,
            "samples": len(result.samples),
        }

    def _run_walk(self, kernel, start, seed, steps, budget, burn_in, thinning):
        """Run one walk under the default middleware stack a local crawl builds.

        :func:`~repro.api.builder.build_api` with a fresh budget makes a
        server-side walk bit-identical to the client-driven walk with the
        same kernel, seed and budget — the conformance suite pins this.
        """
        api = build_api(self.backend, budget=budget)
        walker = make_walker(kernel, api=api, seed=seed)
        # Per-query registry adds would tax the walk by more than the graph
        # work itself; report the walk's cache traffic in aggregate instead
        # (every repeated query is a hit, every unique one a miss).
        with suppress_metrics():
            result = walker.run(start, max_steps=steps, burn_in=burn_in, thinning=thinning)
        registry = global_metrics()
        if registry is not None:
            registry.inc("repro_cache_hits_total", result.total_queries - result.unique_queries)
            registry.inc("repro_cache_misses_total", result.unique_queries)
        return result

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def nodes_served(self) -> int:
        """Total node records served across ``/node``, ``/nodes`` and ``/walk``."""
        with self._lock:
            return self._nodes_served

    def stats_payload(self) -> Dict[str, Any]:
        """The ``GET /stats`` body."""
        # Tenants are read under the same lock `reset_stats` holds, so a
        # stats read never interleaves with a reset (half-zeroed figures).
        with self._lock:
            endpoints = dict(self.endpoint_counts)
            nodes_served = self._nodes_served
            tenants = {policy.name: policy.stats_payload() for policy in self.tenants.policies()}
        return {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "server": self.server,
            "endpoints": endpoints,
            "nodes_served": nodes_served,
            "tenants": tenants,
            "latency": {
                "endpoints": self.metrics.histogram_family("repro_server_request_ms", "endpoint"),
                "tenants": self.metrics.histogram_family("repro_tenant_request_ms", "tenant"),
            },
        }

    def reset_stats(self) -> None:
        """Zero every reported figure atomically: counts, registry, tenants.

        Holding the lock across all three makes the reset indivisible with
        respect to `stats_payload`; the registry's own lock makes it
        indivisible with respect to a concurrent ``/metrics`` scrape.  Tenant
        *enforcement* state (budget spent, rate windows) survives — only the
        reported usage counters are cleared.
        """
        with self._lock:
            self.endpoint_counts.clear()
            self._nodes_served = 0
            self.metrics.reset()
            for policy in self.tenants.policies():
                policy.reset_usage()

    def _log_access(self, exchange: Exchange, status: int, duration_ms: float,
                    trace_id: Optional[str]) -> None:
        tenant = exchange.tenant
        entry = {
            "ts": round(time.time(), 6),
            "tenant": tenant.name if tenant is not None else None,
            "method": exchange.method,
            "path": exchange.path,
            "status": status,
            "nodes": exchange.served,
            "ms": round(duration_ms, 3),
            "duration_ms": round(duration_ms, 3),
        }
        if trace_id is not None:
            entry["trace_id"] = trace_id
        line = json.dumps(entry) + "\n"
        with self._lock:
            log = self.access_log
            if log is not None:
                log.write(line)
                log.flush()


class RoutedServer:
    """The stats, backend and lifecycle surface both frontends share.

    A frontend sets ``router``, ``server_address``, ``_thread`` and
    ``_closed``, keeps a ``_live`` weak set of its open servers, and
    implements ``start`` / ``close``.
    """

    router: GraphRouter

    @property
    def graph_backend(self):
        return self.router.backend

    @graph_backend.setter
    def graph_backend(self, backend) -> None:
        self.router.backend = backend

    @property
    def tenants(self):
        return self.router.tenants

    @property
    def metrics(self) -> MetricsRegistry:
        return self.router.metrics

    @property
    def endpoint_counts(self) -> Counter:
        return self.router.endpoint_counts

    @property
    def nodes_served(self) -> int:
        """Total node records served across ``/node``, ``/nodes`` and ``/walk``."""
        return self.router.nodes_served

    def reset_stats(self) -> None:
        """Zero every reported figure atomically (see `GraphRouter.reset_stats`)."""
        self.router.reset_stats()

    @property
    def url(self) -> str:
        """A client-connectable URL for the bound address.

        Wildcard binds resolve to the matching loopback and IPv6 hosts are
        bracketed, so the URL always parses and connects.
        """
        host, port = self.server_address[:2]
        return reachable_url(host, port)

    @property
    def closed(self) -> bool:
        return self._closed

    @classmethod
    def live_servers(cls):
        """Every server not yet closed (leak detection in the test suite)."""
        return list(cls._live)

    def __enter__(self):
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
