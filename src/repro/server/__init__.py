"""HTTP server tier: serve any :class:`GraphBackend` as a JSON graph service.

Two transports serve the same ``repro-graph-http`` wire through one request
router (:mod:`repro.server.router`: endpoints, tenants, typed errors, stats):

* :func:`serve_backend` — the thread-per-connection stdlib ``http.server``
  frontend (:class:`GraphHTTPServer`), open to every client as the
  ``public`` tenant;
* :func:`serve_backend_async` — the asyncio frontend
  (:class:`AsyncGraphServer`): one event loop for every connection, plus
  per-tenant API-key policy (:mod:`repro.server.tenants`) and a JSONL access
  log.

Both serve ``/info``, ``/node/<id>``, ``POST /nodes``, ``/meta/<id>``,
``/node-ids``, server-side ``POST /walk``, ``/stats`` and ``/metrics``.
:class:`~repro.api.remote.HTTPGraphBackend` (the client half, in
:mod:`repro.api`) drives either frontend through the unchanged two-method
backend protocol.  ``python -m repro.cli serve --source PATH --port N`` is
the command-line entry point (``--async --tenants tenants.json`` for the
multi-tenant frontend).
"""

from .aio import AsyncGraphServer, serve_backend_async
from .app import GraphHTTPServer, GraphRequestHandler, serve_backend
from .tenants import (
    TENANTS_FORMAT,
    TENANTS_VERSION,
    TenantPolicy,
    TenantRegistry,
    WallClock,
    load_tenants,
    parse_tenants,
)

__all__ = [
    "AsyncGraphServer",
    "GraphHTTPServer",
    "GraphRequestHandler",
    "TENANTS_FORMAT",
    "TENANTS_VERSION",
    "TenantPolicy",
    "TenantRegistry",
    "WallClock",
    "load_tenants",
    "parse_tenants",
    "serve_backend",
    "serve_backend_async",
]
