"""Thread-per-connection transport for the JSON graph service.

:func:`serve_backend` binds a :class:`GraphHTTPServer` (a
``http.server.ThreadingHTTPServer``) over any graph source — an in-memory
:class:`~repro.graphs.graph.Graph`, a CSR backend, a memory-mapped snapshot
directory or a crawl-dump replay.  :class:`GraphRequestHandler` frames each
request with the shared rules of :mod:`repro.server.wire` and hands it to the
server's :class:`~repro.server.router.GraphRouter`, which serves every
endpoint of the ``repro-graph-http`` wire, for one open ``public`` tenant.

The server counts requests per endpoint and the total node records served
(``endpoint_counts`` / ``nodes_served``), which is how the test suite pins
"a cached walk hits the network exactly ``unique_queries`` times".
"""

from __future__ import annotations

import socket
import threading
import weakref
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

from ..api.backend import GraphBackend, as_backend
from ..api.remote import WIRE_FORMAT, WIRE_VERSION
from .router import Exchange, GraphRouter, Response, RoutedServer, refusal
from .wire import MAX_LINE, HeaderLineError, LeanHeaders, body_length, fold_header_line


class GraphRequestHandler(BaseHTTPRequestHandler):
    """Frame requests off one connection and answer them through the router.

    ``protocol_version = "HTTP/1.1"`` enables keep-alive, so a client reuses
    one connection for a whole crawl; every response carries an exact
    ``Content-Length``.  Subclasses may override :meth:`inject_fault` to
    simulate a misbehaving service (the test suite's fault-injection layer).
    """

    protocol_version = "HTTP/1.1"
    server_version = f"{WIRE_FORMAT}/{WIRE_VERSION}"
    #: Idle keep-alive connections are dropped after this many seconds, so a
    #: vanished client can never pin a handler thread forever.
    timeout = 30
    #: TCP_NODELAY: with Nagle on, a response written after the previous one
    #: stalls behind the peer's delayed ACK (~40ms per request), which would
    #: dominate a whole crawl of small responses.
    disable_nagle_algorithm = True
    #: Buffer response writes (stdlib default is unbuffered), flushed once per
    #: request by :meth:`handle_one_request`.
    wbufsize = -1

    def handle_one_request(self) -> None:
        try:
            try:
                exchange = self._read_request()
            except HeaderLineError as error:
                self.send_error(error.status, error.message)
                exchange = None
            if exchange is None:
                self.close_connection = True
            else:
                self._exchange = exchange
                if not self.inject_fault():
                    self._write(self.server.router.dispatch(exchange))
            self.wfile.flush()
        except (TimeoutError, ConnectionError):
            self.close_connection = True

    def _read_request(self) -> Optional[Exchange]:
        """Frame one request; ``None`` when there is nothing to answer.

        A well-formed ``HTTP/1.1`` request (every client of this wire) takes
        the lean path: split the request line, fold raw header lines into a
        :class:`~repro.server.wire.LeanHeaders` map, bypassing the ~0.1 ms of
        ``email.parser`` work the stdlib spends per request.  Other request
        lines fall back to the stdlib parser, which answers its own refusals.
        """
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeaderLineError(431, "Line too long")
        if not line.endswith(b"\n"):
            # EOF between requests, or inside the request line (the client
            # died mid-request): nobody is left to answer.
            return None
        self.raw_requestline = line
        self.requestline = str(line, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) == 3 and words[2] == "HTTP/1.1":
            self.command, self.path, self.request_version = words
            raw: Dict[bytes, bytes] = {}
            while True:
                line = self.rfile.readline(MAX_LINE + 1)
                if len(line) <= MAX_LINE and not line.endswith(b"\n"):
                    # EOF mid-headers: the client died (or shut its write
                    # side) before finishing the request.  This is *not* the
                    # blank line that ends a header block — dispatching the
                    # half-sent request would serve a response nobody can
                    # receive.  Drop the connection without responding.
                    return None
                if fold_header_line(raw, line):
                    break
            self.headers = LeanHeaders(raw)
            self.close_connection = raw.get(b"connection", b"").lower() == b"close"
            length = body_length(self.headers)
            if length and raw.get(b"expect", b"").lower() == b"100-continue":
                self.handle_expect_100()
        elif not self.parse_request():
            return None
        else:
            length = body_length(self.headers)
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            return None
        return self.server.router.begin(self.command, self.path, self.headers, body)

    def handle_expect_100(self) -> bool:
        """Send the interim ``100 Continue`` now, not with the final response.

        Response writes are buffered until the request is answered, and a
        client that waits for the 100 before sending its body would stall
        until it gives up waiting.
        """
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def send_error(self, code, message=None, explain=None) -> None:
        """Refuse with the wire's typed JSON body and ``Connection: close``.

        Every refusal goes through here, the stdlib parser's included, so a
        smuggling probe can never leave ambiguous framing on a kept-alive
        socket.
        """
        self.close_connection = True
        self._write(refusal(code, message or HTTPStatus(code).phrase))

    def _write(self, response: Response) -> None:
        self.wfile.write(response.encode(self.close_connection))

    def _send_json(self, status: int, payload) -> None:
        """Answer the current request with ``payload`` (for fault injection)."""
        self._write(self.server.router.finish(self._exchange, status, payload))

    def inject_fault(self) -> bool:
        """Hook for fault injection; return True to swallow the request."""
        return False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence the default per-request stderr logging."""


class GraphHTTPServer(RoutedServer, ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`GraphBackend`.

    Build one with :func:`serve_backend`.  :meth:`start` serves from a named
    daemon thread; :meth:`close` stops the accept loop, force-closes any
    still-open keep-alive connections (so no handler thread can linger on a
    blocked read) and joins every thread — the test suite asserts that no
    server outlives its fixture.  Use as a context manager for the
    start/close pairing.
    """

    daemon_threads = True
    #: Every not-yet-closed server, so the test suite can assert zero leaks.
    _live: "weakref.WeakSet[GraphHTTPServer]" = weakref.WeakSet()

    def __init__(self, address, handler_class, backend: GraphBackend) -> None:
        super().__init__(address, handler_class)
        self.router = GraphRouter(backend, "threaded")
        self._connections_lock = threading.Lock()
        self._connections: set = set()
        self._handler_threads: List[threading.Thread] = []
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        GraphHTTPServer._live.add(self)

    # ------------------------------------------------------------------
    # Connection tracking (so close() never hangs on a keep-alive socket)
    # ------------------------------------------------------------------
    def get_request(self):
        request, client_address = super().get_request()
        with self._connections_lock:
            self._connections.add(request)
        return request, client_address

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def process_request(self, request, client_address) -> None:
        # ThreadingMixIn only records non-daemon threads before Python 3.11,
        # so close() could not join ours through server_close() everywhere;
        # spawn and track handler threads explicitly (named, so the test
        # suite's leak check can see them).
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-http-handler",
            daemon=True,
        )
        with self._connections_lock:
            self._handler_threads = [t for t in self._handler_threads if t.is_alive()]
            self._handler_threads.append(thread)
        thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "GraphHTTPServer":
        """Serve from a background daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server is already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-http-server", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, unblock every open connection, join all threads."""
        if self._closed:
            return
        self._closed = True
        GraphHTTPServer._live.discard(self)
        if self._thread is not None:
            self.shutdown()
        with self._connections_lock:
            open_connections = list(self._connections)
        for connection in open_connections:
            # Wake handler threads blocked reading the next keep-alive
            # request; their readline returns EOF and the thread exits.
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.server_close()
        with self._connections_lock:
            handler_threads = list(self._handler_threads)
            self._handler_threads = []
        for thread in handler_threads:
            thread.join(timeout=10)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


def serve_backend(
    source,
    host: str = "127.0.0.1",
    port: int = 0,
    handler_class=GraphRequestHandler,
) -> GraphHTTPServer:
    """Bind a :class:`GraphHTTPServer` over ``source`` and return it (not serving yet).

    ``source`` is anything :func:`~repro.api.backend.as_backend` accepts: a
    graph, a backend, or a path to a snapshot directory / crawl dump.
    ``port=0`` binds an ephemeral port (read it back from ``server.url``).
    Call :meth:`~GraphHTTPServer.start` (or enter the context manager) to
    serve from a background thread, or ``serve_forever()`` to serve in the
    foreground as the CLI does.
    """
    backend = as_backend(source)
    return GraphHTTPServer((host, port), handler_class, backend)
