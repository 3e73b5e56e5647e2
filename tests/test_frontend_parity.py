"""Both HTTP frontends answer through one router: prove it on the wire.

* **Parity** — one table of requests (a success on every endpoint, and every
  typed client error the router maps) runs against a threaded and an asyncio
  server over the same backend.  Each must answer the same status and the
  same JSON body; only the ``server`` field names the frontend, and the
  latency figures in ``/stats`` are timings, so only their counts compare.
* **Concurrency** — handler threads share the router's books: after many
  client threads fetch against the threaded frontend, ``/stats`` must show
  exact endpoint, node and ``public`` tenant counts.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading

import pytest

from repro.api import HTTPGraphBackend, InMemoryBackend
from repro.api.remote import encode_node_id
from repro.exceptions import RemoteBackendError
from repro.graphs import load_dataset

#: Walk requests the router must refuse as typed 400s before walking.
BAD_WALKS = [
    {"kernel": "srw", "start": 0, "seed": "abc", "budget": 5},
    {"kernel": "srw", "start": 0, "seed": 1.5, "budget": 5},
    {"kernel": "srw", "start": 0, "seed": True, "budget": 5},
    {"kernel": "srw", "start": 0, "seed": None, "budget": 5},
    {"kernel": "srw", "start": 0, "seed": -1, "budget": 5},
    {"kernel": "srw", "start": [1], "budget": 5},
    {"kernel": "srw", "start": {"id": 1}, "budget": 5},
]

#: (method, target, body) — replayed in this order against both frontends.
TABLE = [
    ("GET", "/info", None),
    ("GET", "/node-ids", None),
    ("GET", "/node/" + encode_node_id(0), None),
    ("GET", "/meta/" + encode_node_id(0), None),
    ("POST", "/nodes", {"nodes": [0, 1, 0]}),
    ("POST", "/walk", {"kernel": "cnrw", "start": 0, "seed": 3, "budget": 20}),
    ("GET", "/node/not%20json", None),
    ("GET", "/node/" + encode_node_id(10**9), None),
    ("POST", "/nodes", {"nodes": [0, 10**9]}),
    ("GET", "/meta/" + encode_node_id("no-such-node"), None),
    ("POST", "/nodes", b"this is not JSON"),
    ("POST", "/nodes", {"wrong": "shape"}),
    ("POST", "/nodes", [0, 1]),
    ("GET", "/no-such-endpoint", None),
    ("POST", "/no-such-endpoint", {}),
    ("PUT", "/info", None),
    ("POST", "/walk", {"start": 0}),
    ("POST", "/walk", {"kernel": "srw"}),
    ("POST", "/walk", {"kernel": "srw", "start": 0, "steps": -3}),
    ("POST", "/walk", {"kernel": "srw", "start": 0, "burn_in": True}),
    ("POST", "/walk", {"kernel": "no-such-kernel", "start": 0, "budget": 5}),
    ("POST", "/walk", {"kernel": "srw", "start": "missing", "budget": 5}),
    ("POST", "/walk", b"[1, 2"),
    *[("POST", "/walk", walk) for walk in BAD_WALKS],
    ("GET", "/stats", None),
]


@pytest.fixture(scope="module")
def parity_backend():
    return InMemoryBackend(load_dataset("facebook_like", seed=7, scale=0.12))


def _exchange(connection, method, target, body):
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    connection.request(method, target, body=body)
    response = connection.getresponse()
    return response.status, response.getheader("Content-Type"), response.read()


def _comparable(target, payload):
    payload = dict(payload)
    payload.pop("server", None)
    if target == "/stats":
        payload["latency"] = {
            family: {key: summary["count"] for key, summary in histograms.items()}
            for family, histograms in payload["latency"].items()
        }
    return payload


def _answers(server):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    server.reset_stats()
    try:
        return [_exchange(connection, *request) for request in TABLE]
    finally:
        connection.close()


def test_both_frontends_answer_the_table_identically(
    parity_backend, graph_server, async_graph_server
):
    threaded = _answers(graph_server(parity_backend))
    aio = _answers(async_graph_server(parity_backend))
    statuses = set()
    for (method, target, _), one, other in zip(TABLE, threaded, aio):
        case = f"{method} {target}"
        assert one[0] == other[0], case
        assert one[1] == other[1] == "application/json", case
        one_body, other_body = json.loads(one[2]), json.loads(other[2])
        assert _comparable(target, one_body) == _comparable(target, other_body), case
        statuses.add(one[0])
    # The table exercises every status the router maps for an open service.
    assert statuses == {200, 400, 404}
    info = json.loads(threaded[0][2]), json.loads(aio[0][2])
    assert (info[0]["server"], info[1]["server"]) == ("threaded", "async")


def test_both_frontends_count_the_table_identically(
    parity_backend, graph_server, async_graph_server
):
    counters = []
    for server in (graph_server(parity_backend), async_graph_server(parity_backend)):
        _answers(server)
        counters.append(sorted(
            line for line in server.metrics.render_prometheus().splitlines()
            if line.startswith(("repro_server_requests_total",
                                "repro_server_nodes_served_total",
                                "repro_server_walks_total"))
        ))
    assert counters[0] == counters[1]
    assert any('status="404"' in line for line in counters[0])


def test_threaded_stats_stay_exact_under_concurrent_clients(
    parity_backend, graph_server
):
    server = graph_server(parity_backend)
    server.reset_stats()
    nodes = parity_backend.node_ids()
    threads_count, rounds = 8, 25
    errors = []

    def client(index):
        try:
            with HTTPGraphBackend(server.url, timeout=10.0, retries=0) as remote:
                for step in range(rounds):
                    remote.fetch(nodes[(index * rounds + step) % len(nodes)])
                    remote.fetch_many(nodes[step:step + 3])
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    with HTTPGraphBackend(server.url, timeout=10.0) as remote:
        stats = remote._request("GET", "/stats")
    requests = threads_count * rounds
    served = requests * (1 + 3)
    assert stats["endpoints"] == {"/node": requests, "/nodes": requests, "/stats": 1}
    assert stats["nodes_served"] == served
    public = stats["tenants"]["public"]
    assert public["endpoints"] == {"/node": requests, "/nodes": requests, "/stats": 1}
    assert public["nodes_served"] == served
    assert stats["latency"]["tenants"]["public"]["count"] == 2 * requests


@pytest.mark.parametrize("frontend", ["graph_server", "async_graph_server"])
@pytest.mark.parametrize("walk", BAD_WALKS, ids=repr)
def test_bad_walk_is_one_typed_400_without_retries(
    parity_backend, frontend, walk, request
):
    server = request.getfixturevalue(frontend)(parity_backend)
    server.reset_stats()
    with HTTPGraphBackend(server.url, timeout=10.0) as client:
        with pytest.raises(RemoteBackendError) as excinfo:
            client._request("POST", "/walk", json.dumps(walk).encode("utf-8"))
    assert excinfo.value.status == 400
    assert "walk" in str(excinfo.value)
    # A 500 would be retried three times; a 400 crosses the wire once.
    assert server.endpoint_counts["/walk"] == 1
