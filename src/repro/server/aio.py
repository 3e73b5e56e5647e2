"""Asyncio transport for the JSON graph service.

:class:`AsyncGraphServer` serves the same ``repro-graph-http`` wire as the
thread-per-connection :class:`~repro.server.app.GraphHTTPServer` — one event
loop instead of one thread per connection, so thousands of idle keep-alive
crawler connections cost a coroutine each rather than a stack each.  Both
frontends frame requests by the shared rules of :mod:`repro.server.wire` and
answer them through the same :class:`~repro.server.router.GraphRouter`, so
every endpoint, typed error and ``/stats`` figure is identical on both.  This
one runs ``POST /walk`` on the loop's default executor, so a long walk never
blocks the other connections.

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
from pathlib import Path
from typing import Optional

from ..api.backend import as_backend
from .router import Exchange, GraphRouter, RoutedServer, refusal
from .wire import MAX_LINE, HeaderLineError, LeanHeaders, body_length, fold_header_line


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
        timeout: Seconds a started request may dawdle mid-headers/body.
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
        self._writers: set = set()
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
        server = await asyncio.start_server(
            self._handle_connection, sock=self._socket, limit=MAX_LINE + 2
        )
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            # Force-close open keep-alive connections first: since 3.12
            # wait_closed() really waits for every connection handler, and an
            # idle crawler socket would otherwise pin the shutdown.
            for writer in list(self._writers):
                writer.close()
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

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        self._writers.add(writer)
        router = self.router
        try:
            while True:
                try:
                    exchange = await self._read_request(reader)
                except HeaderLineError as error:
                    # Answer the refusal with ``Connection: close`` so a
                    # smuggling probe can never leave ambiguous framing on a
                    # kept-alive socket, then drop the connection.
                    writer.write(refusal(error.status, error.message).encode(True))
                    await writer.drain()
                    break
                if exchange is None:
                    # Clean EOF between requests, or EOF mid-request: nobody
                    # is left to receive a response, so send none.
                    break
                if router.offloads(exchange):
                    response = await asyncio.get_running_loop().run_in_executor(
                        None, router.dispatch, exchange
                    )
                else:
                    response = router.dispatch(exchange)
                close = (exchange.headers.get("Connection") or "").lower() == "close"
                writer.write(response.encode(close))
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown (asyncio.run cancelling leftover tasks)
            # caught us mid-read.  Exit through the close path below so the
            # task finishes normally instead of surfacing the cancellation
            # through the stream protocol's done-callback.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Shutdown cancelled us while draining the transport.  The
                # writer is already closed; finishing normally here keeps
                # the stream protocol's done-callback from logging a
                # spurious "Exception in callback ... CancelledError".
                pass

    async def _read_request(self, reader) -> Optional[Exchange]:
        """Read one request and open its exchange with the router.

        ``None`` on EOF; :class:`~repro.server.wire.HeaderLineError` on a
        refusal.  The wait for the *first* byte is unbounded — an idle
        keep-alive connection costs this server nothing — but once a request
        line has arrived the rest of the request must land within ``timeout``
        seconds, so a stalled half-request cannot pin parser state forever.
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            raise HeaderLineError(431, "Line too long") from None
        if not request_line:
            return None
        try:
            request = await asyncio.wait_for(
                self._read_rest(reader, request_line), self.timeout
            )
        except (TimeoutError, asyncio.IncompleteReadError):
            return None
        # Open the exchange (and start its timer) only once the request is
        # whole, outside the wait_for task's scheduling hop.
        return self.router.begin(*request) if request is not None else None

    async def _read_rest(self, reader, request_line: bytes):
        words = request_line.decode("iso-8859-1").rstrip("\r\n").split()
        if len(words) != 3 or words[2] != "HTTP/1.1":
            raise HeaderLineError(
                400, f"this server speaks HTTP/1.1 only, got {words!r}"
            )
        raw: dict = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise HeaderLineError(431, "Line too long") from None
            if not line:
                # EOF mid-headers: the client died before finishing the
                # request — not the blank line that ends a header block.
                # Dispatching the half-sent request would serve a response
                # nobody can receive; close without responding instead.
                return None
            if fold_header_line(raw, line):
                break
        headers = LeanHeaders(raw)
        length = body_length(headers)
        body = await reader.readexactly(length) if length else b""
        return words[0], words[1], headers, body


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
