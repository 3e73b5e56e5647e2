"""Socket-level regressions for the wire's framing and refusal rules.

Each test class pins one fix by reproducing the pre-fix failure mode at the
socket level, against *both* server frontends where the bug lived in shared
code:

1. **EOF mid-request** — a half-sent request (client shut its write side
   before the blank line) used to parse as a complete header block and get
   dispatched, and a line cut short by the EOF was judged as if whole; now
   the server closes without responding and without counting an endpoint
   hit.
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
7. **Expect: 100-continue** — the asyncio frontend never sent the interim
   ``100 Continue`` and the threaded one held it in its write buffer until
   the final response, so a client that waits for it before sending the
   body stalled; now both send it before reading the body.

The framing tests at the end pin the request framer's contract on both
frontends: split delivery answers byte-identically to whole delivery,
pipelined requests (a ``POST /walk`` among them) are answered in order, a
stalled half-request times out without a response, and a client that
pipelines hundreds of requests without reading gets every answer.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakes import FAULT_LONG_STATUS, FlakyHTTPHandler
from repro.api import HTTPGraphBackend, InMemoryBackend
from repro.exceptions import RemoteBackendError
from repro.graphs import complete_graph, path_graph
from repro.server import AsyncGraphServer
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


def _read_responses(sock, count: int):
    """Read exactly ``count`` responses off ``sock``: (status, head, body) each."""
    buffer = b""
    responses = []
    while len(responses) < count:
        head_end = buffer.find(b"\r\n\r\n")
        if head_end >= 0:
            head = buffer[:head_end]
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            end = head_end + 4 + length
            if len(buffer) >= end:
                status = int(head.split(b" ", 2)[1])
                responses.append((status, head.lower(), buffer[head_end + 4:end]))
                buffer = buffer[end:]
                continue
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {len(responses)} of {count} responses"
        buffer += chunk
    return responses


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
    @pytest.mark.parametrize("probe", [b"GET /", b"GET /info HTTP/1.1\r\nHo"],
                             ids=["inside-request-line", "inside-header-line"])
    def test_eof_inside_a_line_is_silent_too(
        self, frontend, probe, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        server.reset_stats()
        # Pre-fix the cut-off line was judged as if whole: "GET /" was
        # dispatched as an HTTP/0.9 request by the threaded frontend, and a
        # cut-off header line answered 400 on both.
        assert _raw_exchange(server, probe, shut_wr=True) == b""
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


# ----------------------------------------------------------------------
# Fix 7: Expect: 100-continue is answered before the body is read
# ----------------------------------------------------------------------
class TestExpectContinue:
    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_interim_100_arrives_before_the_body_is_sent(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        body = json.dumps({"nodes": [0, 1]}).encode()
        head = (
            b"POST /nodes HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        )
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(head)
            # Pre-fix the asyncio frontend never sent the 100 and the
            # threaded one buffered it behind the final response: either way
            # this read timed out.
            sock.settimeout(2)
            interim = b""
            while len(interim) < len(b"HTTP/1.1 100 Continue\r\n\r\n"):
                chunk = sock.recv(64)
                assert chunk, "connection closed before the interim response"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            ((status, _, payload),) = _read_responses(sock, 1)
        assert status == 200
        assert [r["node"] for r in json.loads(payload)["records"]] == [0, 1]

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_no_interim_response_without_a_body(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Connection: close\r\n\r\n"
        )
        answer = _raw_exchange(server, probe)
        assert answer.startswith(b"HTTP/1.1 200 ")


# ----------------------------------------------------------------------
# The request framer: split delivery, pipelining, timeouts, back-pressure
# ----------------------------------------------------------------------
#: Requests whose answers are deterministic (no latency figures), so two
#: deliveries of one stream must be answered byte-identically.
_VALID_REQUESTS = [
    b"GET /node/1 HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /info HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /meta/2 HTTP/1.1\r\nHost: x\r\nX-Extra: a b\r\n\r\n",
    b"GET /node/99 HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n",
    b'POST /nodes HTTP/1.1\r\nHost: x\r\nContent-Length: 16\r\n\r\n{"nodes":[3, 4]}',
]
#: Refusals decided only once the whole refused request has arrived, so no
#: byte of the stream is left unread when the server closes.
_REFUSED_REQUESTS = [
    b"POST /nodes HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"POST /nodes HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
]


@st.composite
def _pipelined_streams(draw):
    """A pipelined stream cut into chunks; (chunks, dispatched, answered)."""
    requests = draw(st.lists(st.sampled_from(_VALID_REQUESTS), max_size=5))
    tail = draw(st.sampled_from(["none", "refused", "partial"]))
    stream = b"".join(requests)
    answered = len(requests) + (tail == "refused")
    if tail == "refused":
        stream += draw(st.sampled_from(_REFUSED_REQUESTS))
    elif tail == "partial":
        # Cut at a line end or inside the body: EOF inside a line has its
        # own regression tests in TestHalfSentRequest.
        request = draw(st.sampled_from(_VALID_REQUESTS))
        head_end = request.index(b"\r\n\r\n") + 2
        cuts = [i + 1 for i in range(head_end) if request[i:i + 1] == b"\n"]
        cuts += range(head_end + 2, len(request))
        stream += request[: draw(st.sampled_from(cuts))]
    cuts = draw(st.lists(st.integers(1, max(1, len(stream) - 1)), max_size=8))
    cuts = sorted({cut for cut in cuts if 0 < cut < len(stream)})
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    return chunks, len(requests), answered


def _deliver(server, chunks) -> bytes:
    """Send ``chunks`` as separate segments, half-close, read until EOF."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            sock.sendall(chunk)
            time.sleep(0.002)
        sock.shutdown(socket.SHUT_WR)
        answer = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(answer)
            answer.append(data)


class TestFraming:
    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    @given(stream=_pipelined_streams())
    @settings(max_examples=25, deadline=None)
    def test_split_delivery_answers_like_whole_delivery(
        self, frontend, threaded_server, async_server, stream
    ):
        server = threaded_server if frontend == "threaded" else async_server
        chunks, dispatched, answered = stream
        server.reset_stats()
        whole = _deliver(server, [b"".join(chunks)])
        assert whole.count(b"HTTP/1.1 ") == answered
        assert sum(server.endpoint_counts.values()) == dispatched
        server.reset_stats()
        split = _deliver(server, chunks)
        assert split == whole
        # A partial request is never dispatched, however its bytes arrive.
        assert sum(server.endpoint_counts.values()) == dispatched

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_pipelined_requests_are_answered_in_order(
        self, frontend, threaded_server, async_server
    ):
        server = threaded_server if frontend == "threaded" else async_server
        walk = json.dumps({"kernel": "cnrw", "start": 0, "seed": 3, "steps": 50}).encode()
        nodes = [0, 1, 2, 3, 4, 5, 0, 1]
        requests = [b"GET /node/%d HTTP/1.1\r\nHost: x\r\n\r\n" % n for n in nodes]
        requests.insert(4, (
            b"POST /walk HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(walk)
        ) + walk)
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"".join(requests))
            responses = _read_responses(sock, len(requests))
        assert [status for status, _, _ in responses] == [200] * len(requests)
        bodies = [json.loads(body) for _, _, body in responses]
        assert len(bodies[4]["path"]) == 51
        del bodies[4]
        assert [body["node"] for body in bodies] == nodes

    @pytest.mark.parametrize("frontend", ["threaded", "async"])
    def test_unread_pipeline_is_answered_in_full_once_read(
        self, frontend, graph_server, async_graph_server
    ):
        # ~100 KiB per /node-ids answer: hundreds of them overflow the socket
        # buffers, so the server must hold off (not drop, not reorder) until
        # the client reads.
        serve = graph_server if frontend == "threaded" else async_graph_server
        server = serve(InMemoryBackend(path_graph(15_000)))
        requests = []
        for index in range(300):
            if index % 3:
                requests.append(b"GET /node/%d HTTP/1.1\r\nHost: x\r\n\r\n" % index)
            else:
                requests.append(b"GET /node-ids HTTP/1.1\r\nHost: x\r\n\r\n")
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"".join(requests))
            time.sleep(0.5)
            responses = _read_responses(sock, len(requests))
        for index, (status, _, body) in enumerate(responses):
            assert status == 200
            payload = json.loads(body)
            if index % 3:
                assert payload["node"] == index
            else:
                assert len(payload["nodes"]) == 15_000


class TestAsyncRequestTimeout:
    @pytest.fixture()
    def quick_server(self, backend_graph):
        server = AsyncGraphServer(InMemoryBackend(backend_graph), timeout=0.2).start()
        try:
            yield server
        finally:
            server.close()

    def test_stalled_half_request_is_closed_without_response(self, quick_server):
        host, port = quick_server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /info HTTP/1.1\r\n")
            started = time.perf_counter()
            assert sock.recv(65536) == b""
            assert time.perf_counter() - started < 4
        assert sum(quick_server.endpoint_counts.values()) == 0

    def test_idle_keepalive_connection_outlives_the_timeout(self, quick_server):
        host, port = quick_server.server_address[:2]
        request = b"GET /node/1 HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection((host, port), timeout=5) as sock:
            time.sleep(0.5)  # idle before the first request
            sock.sendall(request)
            ((status, _, _),) = _read_responses(sock, 1)
            assert status == 200
            time.sleep(0.5)  # idle between requests
            sock.sendall(request)
            ((status, _, body),) = _read_responses(sock, 1)
        assert status == 200
        assert json.loads(body)["node"] == 1
