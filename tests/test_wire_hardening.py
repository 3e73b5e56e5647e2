"""Socket-level regressions for the wire's framing and refusal rules.

Each test class pins one fix by reproducing the pre-fix failure mode at the
socket level, against *both* server frontends where the bug lived in shared
code:

1. **EOF mid-headers** — a half-sent request (client shut its write side
   before the blank line) used to parse as a complete header block and get
   dispatched; now the server closes without responding and without counting
   an endpoint hit.
2. **Conflicting duplicate headers** — duplicate ``Content-Length`` lines
   used to be last-wins (the request-smuggling shape, and a phantom-body
   hang on a GET); now they answer 400 with ``Connection: close``.
3. **Reachable URLs** — ``server.url`` used to echo wildcard binds
   (``http://0.0.0.0:p``) and unbracketed IPv6 literals; now wildcards
   resolve to loopback and IPv6 hosts are bracketed.
4. **Oversized status line** — the lean client capped header lines but let
   ``readline`` silently truncate a 64 KiB+ *status* line, misparsing the
   remainder as headers; now it refuses with ``oversized status line``.
5. **Transfer-Encoding** — a request carrying both ``Content-Length`` and
   ``Transfer-Encoding`` used to be framed by its Content-Length, so trailing
   bytes a ``Transfer-Encoding``-honouring proxy sees as one body were
   dispatched as a second request; now any ``Transfer-Encoding`` answers 400
   with ``Connection: close``.
6. **Typed refusals** — the threaded frontend used to answer parser refusals
   with the stdlib's ``text/html`` error pages (and 501 for unknown methods);
   now both frontends answer the same status with the wire's typed JSON.
"""

from __future__ import annotations

import json
import socket
from collections import deque

import pytest

from fakes import FAULT_LONG_STATUS, FlakyHTTPHandler
from repro.api import HTTPGraphBackend, InMemoryBackend
from repro.exceptions import RemoteBackendError
from repro.graphs import complete_graph
from repro.server.wire import reachable_url


@pytest.fixture(scope="module")
def backend_graph():
    return complete_graph(6)


@pytest.fixture(scope="module")
def threaded_server(backend_graph, graph_server):
    return graph_server(InMemoryBackend(backend_graph))


@pytest.fixture(scope="module")
def async_server(backend_graph, async_graph_server):
    return async_graph_server(InMemoryBackend(backend_graph))


def _raw_exchange(server, payload: bytes, *, shut_wr: bool = False) -> bytes:
    """Write raw bytes to the server, return everything it answers until EOF."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(payload)
        if shut_wr:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _parse_answer(answer: bytes):
    """Split one raw response into (status, lowercased head, decoded JSON body)."""
    head, _, body = answer.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, head.lower(), json.loads(body)


def _assert_typed_refusal(answer: bytes, status: int) -> dict:
    got, head, body = _parse_answer(answer)
    assert got == status
    assert b"content-type: application/json" in head
    assert b"connection: close" in head
    assert body["error"] == "bad_request"
    return body


# ----------------------------------------------------------------------
# Fix 1: EOF mid-headers is not a blank line
# ----------------------------------------------------------------------
class TestHalfSentRequest:
    HALF_REQUEST = b"GET /info HTTP/1.1\r\nHost: x\r\n"  # no terminating CRLF

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_half_sent_request_gets_no_response_and_no_dispatch(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        server.reset_stats()
        answer = _raw_exchange(server, self.HALF_REQUEST, shut_wr=True)
        # Pre-fix the EOF parsed like the end-of-headers blank line: the
        # request was dispatched and a full /info response came back.
        assert answer == b""
        assert sum(server.endpoint_counts.values()) == 0

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_immediate_disconnect_is_silent_too(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        server.reset_stats()
        answer = _raw_exchange(server, b"", shut_wr=True)
        assert answer == b""
        assert sum(server.endpoint_counts.values()) == 0


# ----------------------------------------------------------------------
# Fix 2: conflicting duplicate headers answer 400 + Connection: close
# ----------------------------------------------------------------------
class TestDuplicateHeaders:
    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_conflicting_content_length_is_refused(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        # Pre-fix: last-wins kept Content-Length 5 and the server hung
        # reading a phantom body off a GET (the smuggling shape).  Post-fix
        # the refusal is immediate — the 5-second socket timeout in
        # _raw_exchange is the hang detector.
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 0\r\nContent-Length: 5\r\n\r\n"
        )
        answer = _raw_exchange(server, probe)
        body = _assert_typed_refusal(answer, 400)
        assert "content-length" in body["message"]

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_conflicting_duplicates_of_any_header_are_refused(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\n"
            b"X-Api-Key: alice\r\nX-Api-Key: bob\r\n\r\n"
        )
        answer = _raw_exchange(server, probe)
        _assert_typed_refusal(answer, 400)

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_repeated_identical_headers_stay_accepted(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 0\r\nContent-Length: 0\r\n"
            b"Connection: close\r\n\r\n"
        )
        answer = _raw_exchange(server, probe)
        assert b"200" in answer.split(b"\r\n", 1)[0]
        assert b"repro-graph-http" in answer


# ----------------------------------------------------------------------
# Fix 5: Transfer-Encoding is refused, never framed by Content-Length
# ----------------------------------------------------------------------
class TestTransferEncoding:
    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_transfer_encoding_with_content_length_is_refused(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        server.reset_stats()
        # Pre-fix: the 14-byte Content-Length framed the body, and the
        # trailing GET was dispatched as a second request (endpoint counts
        # {"/nodes": 1, "/node": 1}) where a proxy honouring
        # Transfer-Encoding saw only one.
        body = b'{"nodes":[0]}\n'
        probe = (
            b"POST /nodes HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + body
            + b"GET /node/5 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        answer = _raw_exchange(server, probe)
        message = _assert_typed_refusal(answer, 400)["message"]
        assert "Transfer-Encoding" in message
        assert answer.count(b"HTTP/1.1 ") == 1
        assert sum(server.endpoint_counts.values()) == 0

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_transfer_encoding_alone_is_refused(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        probe = (
            b"POST /nodes HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"d\r\n{\"nodes\":[0]}\r\n0\r\n\r\n"
        )
        _assert_typed_refusal(_raw_exchange(server, probe), 400)


# ----------------------------------------------------------------------
# Fix 6: every refusal is the same typed JSON on both frontends
# ----------------------------------------------------------------------
class TestTypedRefusals:
    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    @pytest.mark.parametrize("probe, status", [
        (b"GET /info HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"GET /info HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 431),
        (b"GET /info HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n", 431),
        (b"POST /nodes HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    ], ids=["malformed-line", "long-header", "long-request-line",
            "too-many-headers", "negative-length"])
    def test_parser_refusals_are_typed_json(
        self, frontend, probe, status, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        _assert_typed_refusal(_raw_exchange(server, probe), status)

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_unsupported_method_is_a_typed_400(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        # Pre-fix the threaded frontend answered a text/html 501.
        probe = b"PUT /info HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        status, head, body = _parse_answer(_raw_exchange(server, probe))
        assert status == 400
        assert b"content-type: application/json" in head
        assert body == {"error": "bad_request", "message": "unsupported method PUT"}


# ----------------------------------------------------------------------
# Fix 3: server.url is always client-connectable
# ----------------------------------------------------------------------
class TestReachableUrl:
    def test_wildcard_ipv4_resolves_to_loopback(self):
        assert reachable_url("0.0.0.0", 8000) == "http://127.0.0.1:8000"

    def test_wildcard_ipv6_resolves_to_bracketed_loopback(self):
        assert reachable_url("::", 8000) == "http://[::1]:8000"

    def test_ipv6_literal_is_bracketed(self):
        assert reachable_url("::1", 8000) == "http://[::1]:8000"
        assert reachable_url("fe80::2", 80) == "http://[fe80::2]:80"

    def test_plain_hosts_pass_through(self):
        assert reachable_url("127.0.0.1", 1234) == "http://127.0.0.1:1234"
        assert reachable_url("example.org", 80) == "http://example.org:80"

    @pytest.mark.parametrize("serve_fixture", ["graph_server", "async_graph_server"])
    def test_wildcard_bound_server_publishes_connectable_url(
        self, serve_fixture, backend_graph, request
    ):
        serve = request.getfixturevalue(serve_fixture)
        server = serve(InMemoryBackend(backend_graph), host="0.0.0.0")
        assert server.url.startswith("http://127.0.0.1:")
        # The published URL must actually answer: pre-fix it embedded the
        # literal wildcard, which is not connectable on every platform.
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            assert client.info()["nodes"] == len(backend_graph.nodes())

    @pytest.mark.skipif(not socket.has_ipv6, reason="IPv6 unavailable")
    @pytest.mark.parametrize("serve_fixture", ["graph_server", "async_graph_server"])
    def test_ipv6_bound_server_publishes_bracketed_url(
        self, serve_fixture, backend_graph, request
    ):
        serve = request.getfixturevalue(serve_fixture)
        try:
            server = serve(InMemoryBackend(backend_graph), host="::1")
        except OSError:
            pytest.skip("IPv6 loopback not bindable here")
        assert server.url.startswith("http://[::1]:")
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            assert client.info()["nodes"] == len(backend_graph.nodes())


# ----------------------------------------------------------------------
# Fix 4: oversized status lines are refused, not truncated
# ----------------------------------------------------------------------
class TestOversizedStatusLine:
    @pytest.fixture()
    def flaky_server(self, backend_graph, graph_server):
        server = graph_server(
            InMemoryBackend(backend_graph), handler_class=FlakyHTTPHandler
        )
        server.fault_plan = deque()
        return server

    def test_oversized_status_line_raises_typed_wire_error(self, flaky_server):
        flaky_server.fault_plan.clear()
        flaky_server.fault_plan.append(FAULT_LONG_STATUS)
        client = HTTPGraphBackend(flaky_server.url, timeout=5.0, retries=0)
        try:
            with pytest.raises(RemoteBackendError) as excinfo:
                client.fetch(0)
            # Pre-fix the 64 KiB readline truncation surfaced as a confusing
            # "malformed header line" on the *next* read; the refusal must
            # name the actual problem.
            assert "oversized status line" in str(excinfo.value)
        finally:
            client.close()

    def test_client_recovers_on_retry_after_oversized_status(self, flaky_server):
        flaky_server.fault_plan.clear()
        flaky_server.fault_plan.append(FAULT_LONG_STATUS)
        client = HTTPGraphBackend(
            flaky_server.url, timeout=5.0, retries=2, sleep=lambda _s: None
        )
        try:
            record = client.fetch(0)
            assert record.node == 0
        finally:
            client.close()
