"""Asyncio transport for the JSON graph service.

:class:`AsyncGraphServer` serves the same ``repro-graph-http`` wire as the
thread-per-connection :class:`~repro.server.app.GraphHTTPServer` — one event
loop instead of one thread per connection, so thousands of idle keep-alive
crawler connections cost a protocol object each rather than a stack each.
Both frontends frame requests by the shared rules of :mod:`repro.server.wire`
and answer them through the same :class:`~repro.server.router.GraphRouter`,
so every endpoint, typed error and ``/stats`` figure is identical on both.

Framing runs straight off the transport: each connection is one
:class:`asyncio.Protocol` holding one ``bytearray``.  Incoming bytes are
appended to it, lines are cut with ``find(b"\\n")`` and folded by the shared
wire rules, and a request is dispatched only once its body is complete, so
a partial request is never answered.  Responses are written to the
transport directly, in request order; pipelined requests are answered one
after another from the same buffer.  ``POST /walk`` runs on the loop's
default executor, so a long walk never blocks the other connections; reading
from its connection pauses until the walk's response is written, so the
requests pipelined behind it keep their order.

Back-pressure: when the transport's write buffer passes its high-water mark
(a client that pipelines without reading), the connection stops framing and
stops reading until the buffer drains, so a slow reader cannot grow the
server's memory without bound.

Timeouts: an idle keep-alive connection waits without limit — it costs this
server nothing.  Once a request line has arrived, the rest of the request
must land within ``timeout`` seconds: one ``loop.call_later`` handle is
armed while a request is partial and cancelled when it completes, and on
expiry the connection closes without a response.  EOF mid-request closes the
connection silently too; nothing is dispatched.

What the asyncio frontend adds is configuration: a ``tenants.json`` file
(:mod:`repro.server.tenants`) maps API keys to named tenants, each with its
own unique-node budget and rolling rate limit, and ``access_log`` appends one
JSON line per request.  Budget exhaustion and throttling answer HTTP 429 with
typed bodies (``budget_exhausted`` / ``rate_limited``) that the client maps
back to the exact local exceptions, so a remote crawl against a restricted
tenant fails identically to a local crawl under the same middleware.

The server runs its event loop on one named daemon thread
(``repro-aio-server``); :meth:`start` / :meth:`close` and the stats surface
mirror the threaded server so fixtures, benchmarks and the CLI treat the two
interchangeably.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import weakref
from functools import partial
from pathlib import Path
from typing import Optional

from ..api.backend import as_backend
from .router import Exchange, GraphRouter, Response, RoutedServer, refusal
from .wire import MAX_LINE, HeaderLineError, LeanHeaders, body_length, fold_header_line

#: A request line longer than this, terminator included, is refused with 431.
_MAX_REQUEST_LINE = MAX_LINE + 2
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class AsyncGraphServer(RoutedServer):
    """An asyncio graph service bound to one :class:`GraphBackend`.

    The listening socket is bound eagerly in the constructor (so
    ``server_address`` / ``url`` exist before :meth:`start`), and the event
    loop runs on a named daemon thread once started.  :meth:`close` stops the
    loop, force-closes every open connection and joins the thread; the test
    suite asserts no server outlives its fixture, exactly as for the threaded
    frontend.

    Args:
        source: Anything :func:`~repro.api.backend.as_backend` accepts.
        host / port: Bind address; ``port=0`` picks an ephemeral port.
        tenants: ``None`` (open service), a ``tenants.json`` path, a decoded
            tenants document, or a :class:`~repro.server.tenants.TenantRegistry`.
        clock: Clock for rate-limit windows (defaults to the wall clock;
            tests inject a :class:`~repro.api.ratelimit.SimulatedClock`).
        access_log: Optional path; one JSON line is appended per request.
        timeout: Seconds the rest of a request may take once its request
            line has arrived; an idle keep-alive connection waits without
            limit.
    """

    #: Every not-yet-closed server, so the test suite can assert zero leaks.
    _live: "weakref.WeakSet[AsyncGraphServer]" = weakref.WeakSet()

    def __init__(
        self,
        source,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tenants=None,
        clock=None,
        access_log=None,
        timeout: float = 30.0,
    ) -> None:
        self.router = GraphRouter(as_backend(source), "async", tenants=tenants, clock=clock)
        self.timeout = timeout
        family = socket.AF_INET6 if ":" in str(host) else socket.AF_INET
        self._socket = socket.create_server((host, port), family=family)
        self.server_address = self._socket.getsockname()[:2]
        self._access_log_path = Path(access_log) if access_log is not None else None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._transports: set = set()
        self._closed = False
        AsyncGraphServer._live.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncGraphServer":
        """Run the event loop from a background daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server is already started")
        if self._closed:
            raise RuntimeError("server is closed")
        if self._access_log_path is not None:
            # Line-buffered so every entry lands on disk as soon as its line
            # is complete — ``tail -f`` on the log sees requests live.
            self.router.access_log = self._access_log_path.open(
                "a", encoding="utf-8", buffering=1
            )
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-aio-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._boot_error is not None:
            error, self._boot_error = self._boot_error, None
            self.close()
            raise error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced by start()
            self._boot_error = error
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await self._loop.create_server(
            partial(_Connection, self), sock=self._socket
        )
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            # Force-close open connections first: since 3.12 wait_closed()
            # waits until every connection is gone, and an idle keep-alive
            # crawler (or a peer that stopped reading) would pin the shutdown.
            for transport in list(self._transports):
                transport.abort()
            await server.wait_closed()

    def close(self) -> None:
        """Stop serving, close every open connection, join the loop thread."""
        if self._closed:
            return
        self._closed = True
        AsyncGraphServer._live.discard(self)
        if self._thread is not None:
            self._ready.wait(timeout=10)
            loop, stop = self._loop, self._stop_event
            if loop is not None and stop is not None:
                try:
                    loop.call_soon_threadsafe(stop.set)
                except RuntimeError:  # loop already gone
                    pass
            self._thread.join(timeout=10)
            self._thread = None
        else:
            self._socket.close()
        log, self.router.access_log = self.router.access_log, None
        if log is not None:
            log.close()


class _Connection(asyncio.Protocol):
    """One client connection: frame requests off the transport, answer in order.

    Framing state lives between ``data_received`` calls: ``_words`` is the
    request line once it has arrived, ``_raw`` the header block folded so
    far, and ``_length`` the body length once the header block is complete
    (``-1`` before).  All three reset when a request is dispatched.
    """

    def __init__(self, server: AsyncGraphServer) -> None:
        self._server = server
        self._router = server.router
        self._buffer = bytearray()
        self._transport: Optional[asyncio.Transport] = None
        self._words: Optional[list] = None
        self._raw: Optional[dict] = None
        self._length = -1
        #: Closes a stalled half-request; armed only while a request is partial.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._walking = False
        self._write_paused = False
        self._eof = False

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server._transports.add(transport)

    def connection_lost(self, exc) -> None:
        self._server._transports.discard(self._transport)
        self._cancel_timer()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve()
        # Keep the transport: _serve closes it once every complete request
        # ahead of the EOF has been answered.
        return True

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if not self._walking:
            self._transport.resume_reading()
            self._serve()

    # ------------------------------------------------------------------
    # Framing and answering
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        """Answer every complete request in the buffer, in order."""
        transport = self._transport
        while not (self._walking or self._write_paused or transport.is_closing()):
            try:
                exchange = self._frame()
            except HeaderLineError as error:
                # Answer the refusal with ``Connection: close`` so a smuggling
                # probe can never leave ambiguous framing on a kept-alive
                # socket, then drop the connection.
                transport.write(refusal(error.status, error.message).encode(True))
                transport.close()
                return
            if exchange is None:
                break
            if self._router.offloads(exchange):
                self._walking = True
                transport.pause_reading()
                future = asyncio.get_running_loop().run_in_executor(
                    None, self._router.dispatch, exchange
                )
                future.add_done_callback(partial(self._walked, exchange))
            else:
                self._respond(exchange, self._router.dispatch(exchange))
        if self._walking or self._write_paused or transport.is_closing():
            return
        if self._eof:
            # Whatever is left is a partial request (or nothing): nobody is
            # left to receive a response, so send none.
            transport.close()
        elif self._words is not None and self._timer is None:
            self._timer = asyncio.get_running_loop().call_later(
                self._server.timeout, self._expire
            )

    def _frame(self) -> Optional[Exchange]:
        """Consume one whole request from the buffer, or ``None`` if it is partial."""
        buffer = self._buffer
        if self._words is None:
            end = buffer.find(b"\n")
            if end < 0:
                if len(buffer) >= _MAX_REQUEST_LINE:
                    raise HeaderLineError(431, "Line too long")
                return None
            if end >= _MAX_REQUEST_LINE:
                raise HeaderLineError(431, "Line too long")
            words = buffer[:end].decode("iso-8859-1").split()
            del buffer[:end + 1]
            if len(words) != 3 or words[2] != "HTTP/1.1":
                raise HeaderLineError(
                    400, f"this server speaks HTTP/1.1 only, got {words!r}"
                )
            self._words, self._raw = words, {}
        if self._length < 0:
            raw = self._raw
            while True:
                end = buffer.find(b"\n")
                if end < 0:
                    if len(buffer) > MAX_LINE:
                        raise HeaderLineError(431, "Line too long")
                    return None
                line = bytes(buffer[:end + 1])
                del buffer[:end + 1]
                if fold_header_line(raw, line):
                    break
            self._length = body_length(LeanHeaders(raw))
            if self._length and raw.get(b"expect", b"").lower() == b"100-continue":
                # A client waiting for the interim response must get it
                # before it sends the body.
                self._transport.write(_CONTINUE)
        length = self._length
        if len(buffer) < length:
            return None
        body = bytes(buffer[:length])
        del buffer[:length]
        (method, target, _), headers = self._words, LeanHeaders(self._raw)
        self._words = self._raw = None
        self._length = -1
        self._cancel_timer()
        return self._router.begin(method, target, headers, body)

    def _respond(self, exchange: Exchange, response: Response) -> None:
        close = (exchange.headers.get("Connection") or "").lower() == "close"
        self._transport.write(response.encode(close))
        if close:
            self._transport.close()

    def _walked(self, exchange: Exchange, future: asyncio.Future) -> None:
        """Write an offloaded walk's response, then resume framing."""
        self._walking = False
        if future.cancelled() or self._transport.is_closing():
            self._transport.close()
            return
        self._respond(exchange, future.result())
        if not self._write_paused:
            self._transport.resume_reading()
            self._serve()

    def _expire(self) -> None:
        """A started request missed its deadline: close without a response."""
        self._timer = None
        self._transport.close()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


def serve_backend_async(
    source,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    tenants=None,
    clock=None,
    access_log=None,
) -> AsyncGraphServer:
    """Bind an :class:`AsyncGraphServer` over ``source`` and return it (not serving).

    The asyncio twin of :func:`~repro.server.app.serve_backend`: ``source``
    is anything :func:`~repro.api.backend.as_backend` accepts, ``port=0``
    binds an ephemeral port, and :meth:`~AsyncGraphServer.start` (or the
    context manager) serves from a background thread.
    """
    return AsyncGraphServer(
        source, host, port, tenants=tenants, clock=clock, access_log=access_log
    )
