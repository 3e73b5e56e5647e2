"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import gc
import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import GraphAPI, InMemoryBackend, LRUCache, QueryBudget, QueryCache
from repro.api.backend import RawRecord
from repro.api.remote import encode_node_id, record_to_wire
from repro.estimation import AggregateQuery, reweighted_mean
from repro.graphs import Graph, undirected_from_edges
from repro.graphs.loaders import load_edge_list, save_edge_list
from repro.memo import BoundedMemo
from repro.server import router as router_module
from repro.server.router import GraphRouter
from repro.storage import ReplayBackend, dump_crawl, load_crawl, load_snapshot, save_snapshot
from repro.metrics import (
    Distribution,
    empirical_distribution,
    l2_distance,
    symmetric_kl_divergence,
    total_variation_distance,
)
from repro.types import Sample
from repro.walks import CirculatedNeighborsRandomWalk, EdgeHistory, SimpleRandomWalk
from repro.walks.grouping import HashGrouping

from fakes import FlakyBackend

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=30)

#: Neighbor ids for the grouping memo: memoisable ``int``/``str`` ids mixed
#: with ids that compare equal to them but have a different ``repr``.
grouping_ids = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.sampled_from(["", "1", "α"]),
    st.sampled_from([True, False, 1.0, 0.0, -0.0, np.int64(1), np.int64(0)]),
)

#: Warehouse ids stress the canonical-JSON key encoding: negative ints,
#: unicode strings, the empty string, and the ``5`` vs ``"5"`` collision.
warehouse_ids = st.one_of(
    st.integers(min_value=-5, max_value=12),
    st.sampled_from(["", "5", "α", "node/δ", "naïve", "☃"]),
)


@st.composite
def edge_lists(draw, min_edges=1, max_edges=60):
    """Random simple-graph edge lists (self-loops filtered out)."""
    pairs = draw(
        st.lists(st.tuples(node_ids, node_ids), min_size=min_edges, max_size=max_edges)
    )
    return [(u, v) for u, v in pairs if u != v]


@st.composite
def connected_graphs(draw, max_extra_edges=40):
    """Connected simple graphs built from a random spanning path plus extras."""
    size = draw(st.integers(min_value=2, max_value=15))
    nodes = list(range(size))
    permutation = draw(st.permutations(nodes))
    edges = list(zip(permutation, permutation[1:]))
    extra = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=max_extra_edges,
        )
    )
    edges.extend((u, v) for u, v in extra if u != v)
    return undirected_from_edges(edges, name="hypothesis")


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_handshake_lemma(self, edges):
        graph = undirected_from_edges(edges)
        assert sum(graph.degrees().values()) == 2 * graph.number_of_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_neighbor_symmetry(self, edges):
        graph = undirected_from_edges(edges)
        for node in graph.nodes():
            for neighbor in graph.neighbors(node):
                assert node in graph.neighbors(neighbor)

    @given(edge_lists(min_edges=1))
    @settings(max_examples=60, deadline=None)
    def test_stationary_distribution_sums_to_one(self, edges):
        graph = undirected_from_edges(edges)
        if graph.number_of_edges == 0:
            return
        pi = graph.stationary_distribution()
        assert abs(sum(pi.values()) - 1.0) < 1e-9
        assert all(value >= 0 for value in pi.values())

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, graph):
        components = graph.connected_components()
        all_nodes = [node for component in components for node in component]
        assert sorted(all_nodes, key=repr) == sorted(graph.nodes(), key=repr)
        assert len(components) == 1  # the strategy builds connected graphs

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_copy_equals_original(self, edges):
        graph = undirected_from_edges(edges)
        clone = graph.copy()
        assert set(map(frozenset, clone.edges())) == set(map(frozenset, graph.edges()))
        assert clone.degrees() == graph.degrees()


# ---------------------------------------------------------------------------
# Walk invariants
# ---------------------------------------------------------------------------


class TestWalkProperties:
    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_walk_path_follows_edges(self, graph, seed):
        api = GraphAPI(graph)
        walk = SimpleRandomWalk(api, seed=seed)
        start = graph.nodes()[0]
        result = walk.run(start, max_steps=40)
        for u, v in zip(result.path, result.path[1:]):
            assert graph.has_edge(u, v)

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cnrw_unique_queries_equal_distinct_visits(self, graph, seed):
        api = GraphAPI(graph)
        walk = CirculatedNeighborsRandomWalk(api, seed=seed)
        start = graph.nodes()[0]
        result = walk.run(start, max_steps=60)
        assert result.unique_queries == len(set(result.path))

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cnrw_circulation_invariant(self, graph, seed):
        """No outgoing neighbor repeats within one circulation round of an edge."""
        walk = CirculatedNeighborsRandomWalk(GraphAPI(graph), seed=seed)
        result = walk.run(graph.nodes()[0], max_steps=120)
        path = result.path
        buckets = {}
        for i in range(1, len(path) - 1):
            key = (path[i - 1], path[i])
            bucket = buckets.setdefault(key, [])
            if len(bucket) == graph.degree(path[i]):
                bucket.clear()
            assert path[i + 1] not in bucket
            bucket.append(path[i + 1])

    @given(
        connected_graphs(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_budget_never_exceeded(self, graph, seed, budget):
        api = GraphAPI(graph, budget=QueryBudget(budget))
        walk = SimpleRandomWalk(api, seed=seed)
        result = walk.run(graph.nodes()[0], max_steps=500)
        assert result.unique_queries <= budget


# ---------------------------------------------------------------------------
# History bookkeeping invariants
# ---------------------------------------------------------------------------


class TestHistoryProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_edge_history_never_exceeds_neighbor_set(self, choices):
        neighbors = [0, 1, 2, 3, 4, 5]
        history = EdgeHistory()
        for choice in choices:
            remaining = history.remaining("u", "v", neighbors)
            assert set(remaining).issubset(set(neighbors))
            assert remaining  # never empty: the reset rule guarantees progress
            chosen = remaining[choice % len(remaining)]
            history.record("u", "v", chosen, neighbors)
            assert history.visited("u", "v").issubset(set(neighbors))

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_edge_history_covers_all_before_repeat(self, choices):
        """Within each consecutive block of k draws, all k neighbors appear."""
        neighbors = ["a", "b", "c"]
        history = EdgeHistory()
        drawn = []
        for choice in choices:
            remaining = history.remaining("u", "v", neighbors)
            chosen = remaining[choice % len(remaining)]
            history.record("u", "v", chosen, neighbors)
            drawn.append(chosen)
        for start in range(0, len(drawn) - len(neighbors) + 1, len(neighbors)):
            block = drawn[start: start + len(neighbors)]
            if len(block) == len(neighbors):
                assert set(block) == set(neighbors)


# ---------------------------------------------------------------------------
# Grouping invariants
# ---------------------------------------------------------------------------


class TestGroupingProperties:
    @given(
        st.lists(node_ids, min_size=1, max_size=40, unique=True),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_hash_partition_is_disjoint_cover(self, neighbors, num_groups):
        graph = Graph()
        graph.add_nodes(neighbors)
        api = GraphAPI(graph) if neighbors else None
        grouping = HashGrouping(num_groups=num_groups)
        partition = grouping.partition(neighbors, api)
        flattened = [node for members in partition.values() for node in members]
        assert sorted(flattened) == sorted(neighbors)
        assert len(flattened) == len(set(flattened))
        assert set(partition).issubset(set(range(num_groups)))

    @given(
        st.lists(grouping_ids, max_size=30),
        st.lists(grouping_ids, max_size=30),
        st.integers(min_value=1, max_value=6),
    )
    @example([1, 2], [True, 2], 3)
    @example([True, 2], [1, 2], 3)
    @example([1.0, 2], [1, 2], 3)
    @example([np.int64(1), 2], [1, 2], 3)
    @example([1, 2], [np.int64(1), 2], 3)
    @settings(max_examples=150, deadline=None)
    def test_memoised_hash_grouping_matches_reference_loop(self, first, second, num_groups):
        """The memo never changes a group, the dict order or the member order.

        Ids that compare equal but print differently (``1``, ``True``,
        ``1.0``, ``np.int64(1)``) must keep their own groups and identities
        whichever of them was memoised first.
        """

        def md5(node):
            return int(hashlib.md5(repr(node).encode("utf-8")).hexdigest(), 16) % num_groups

        def exact(partition):
            return [
                (group, [(type(node), repr(node)) for node in members])
                for group, members in partition.items()
            ]

        for neighbors in (first, second, first, second):
            grouping = HashGrouping(num_groups=num_groups)
            reference = {}
            for node in neighbors:
                reference.setdefault(md5(node), []).append(node)
            assert exact(grouping.partition(neighbors, None)) == exact(reference)
            assert exact(grouping.partition(tuple(neighbors), None)) == exact(reference)
            for node in neighbors:
                assert grouping.group_of(node, None) == md5(node)


# ---------------------------------------------------------------------------
# Estimator and metric invariants
# ---------------------------------------------------------------------------


class TestEstimatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=50),
                st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_reweighted_mean_within_value_range(self, rows):
        samples = [
            Sample(node=index, degree=degree, attributes={"v": value})
            for index, (degree, value) in enumerate(rows)
        ]
        result = reweighted_mean(samples, AggregateQuery.average_attribute("v"))
        values = [value for _, value in rows]
        assert min(values) - 1e-6 <= result.value <= max(values) + 1e-6

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_empirical_distribution_normalised(self, visits):
        dist = empirical_distribution(visits)
        assert abs(sum(dist.as_dict().values()) - 1.0) < 1e-9

    @given(
        st.dictionaries(node_ids, st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
        st.dictionaries(node_ids, st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_divergences_non_negative_and_symmetric(self, p_weights, q_weights):
        p = Distribution(p_weights)
        q = Distribution(q_weights)
        assert symmetric_kl_divergence(p, q) >= -1e-9
        assert l2_distance(p, q) >= 0
        assert total_variation_distance(p, q) >= 0
        assert total_variation_distance(p, q) <= 1.0 + 1e-9
        assert l2_distance(p, q) == l2_distance(q, p)
        assert total_variation_distance(p, p) < 1e-9


# ---------------------------------------------------------------------------
# On-disk round trips (storage subsystem + edge-list I/O)
# ---------------------------------------------------------------------------
# hypothesis forbids reusing pytest's function-scoped tmp_path across
# examples, so each example makes (and cleans) its own temporary directory.


class TestStorageRoundTripProperties:
    @given(edge_lists(min_edges=1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_snapshot_roundtrip_reproduces_exact_adjacency(self, edges, mmap):
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_nodes == 0:
            return
        with tempfile.TemporaryDirectory() as tmp:
            backend = load_snapshot(save_snapshot(graph, Path(tmp) / "snap"), mmap=mmap)
            assert backend.node_ids() == graph.nodes()
            for node in graph.nodes():
                # from_graph preserves neighbor order, so the round trip is
                # exact — not merely set-equal.
                assert backend.fetch(node).neighbors == tuple(graph.neighbors(node))

    @given(edge_lists(min_edges=1))
    @settings(max_examples=25, deadline=None)
    def test_crawl_dump_roundtrip_reproduces_exact_records(self, edges):
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_nodes == 0:
            return
        source = InMemoryBackend(graph)
        with tempfile.TemporaryDirectory() as tmp:
            path = dump_crawl(source, Path(tmp) / "crawl.jsonl", nodes=source.node_ids())
            replay = load_crawl(path)
            assert replay.node_ids() == source.node_ids()
            for node in source.node_ids():
                assert replay.fetch(node) == source.fetch(node)

    @given(
        st.lists(
            st.tuples(warehouse_ids, warehouse_ids), min_size=1, max_size=40
        ),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_warehouse_ingest_export_roundtrip(self, pairs, partial):
        """dump -> ingest -> export -> dump is the identity, meta included.

        Ids mix negative ints with unicode (and colliding ``5`` vs ``"5"``)
        strings; the partial case crawls only half the nodes, so boundary
        ``meta`` lines must survive the warehouse round trip too.
        """
        import json

        from repro.warehouse import CrawlWarehouse

        edges = [(u, v) for u, v in pairs if u != v]
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_nodes == 0:
            return
        graph.set_attributes(graph.nodes()[0], label="α✓", rank=1)
        source = InMemoryBackend(graph)
        nodes = source.node_ids()
        crawled = nodes[: max(1, len(nodes) // 2)] if partial else nodes
        with tempfile.TemporaryDirectory() as tmp:
            first = dump_crawl(source, Path(tmp) / "first.jsonl", nodes=crawled)
            with CrawlWarehouse.create(Path(tmp) / "wh.sqlite") as warehouse:
                warehouse.ingest(first)
                second = warehouse.export_dump(
                    Path(tmp) / "second.jsonl", name="prop"
                )
            original = first.read_text(encoding="utf-8").splitlines()
            exported = second.read_text(encoding="utf-8").splitlines()
            # Body lines (records + boundary meta) are byte-for-byte JSON
            # equal; only the header's crawl name may differ.
            assert list(map(json.loads, exported[1:])) == list(
                map(json.loads, original[1:])
            )
            replay = load_crawl(second)
            assert replay.node_ids() == crawled
            for node in crawled:
                assert replay.fetch(node) == source.fetch(node)

    @given(edge_lists(min_edges=1), st.booleans(), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_edge_list_roundtrip_reproduces_exact_adjacency(self, edges, compress, header):
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_edges == 0:
            return  # isolated nodes are not representable in an edge list
        suffix = "edges.txt.gz" if compress else "edges.txt"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / suffix
            save_edge_list(graph, path, header=header)
            loaded = load_edge_list(path)
            assert set(map(frozenset, loaded.edges())) == set(map(frozenset, graph.edges()))
            assert loaded.degrees() == graph.degrees()


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------


class TestRemoteWireProperties:
    """Serving any graph over HTTP round-trips it losslessly (satellite).

    Random graphs with non-identity ids (negative ints, unicode strings, the
    empty string) and unicode attribute values travel through
    ``serve -> HTTPGraphBackend`` with neighbors (order included) and
    attributes intact — no id type gets coerced, no string gets mangled.
    """

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_served_graph_round_trips_losslessly(self, data):
        from repro.api import HTTPGraphBackend
        from repro.server import serve_backend

        wire_ids = st.one_of(
            st.integers(min_value=-5, max_value=99),
            st.text(max_size=6),  # unicode included, "" included
        )
        size = data.draw(st.integers(min_value=2, max_value=7), label="size")
        ids = data.draw(
            st.lists(wire_ids, min_size=size, max_size=size, unique=True),
            label="ids",
        )
        edges = list(zip(ids, ids[1:]))
        extra = data.draw(
            st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8),
            label="extra",
        )
        edges.extend((u, v) for u, v in extra if u != v)
        graph = Graph(name="wire")
        graph.add_edges(edges)
        attributes = data.draw(
            st.dictionaries(
                st.sampled_from(ids),
                st.dictionaries(
                    st.text(min_size=1, max_size=5),
                    st.one_of(st.integers(), st.text(max_size=8)),
                    min_size=1,
                    max_size=3,
                ),
                max_size=3,
            ),
            label="attributes",
        )
        for node, node_attributes in attributes.items():
            graph.set_attributes(node, **node_attributes)

        backend = InMemoryBackend(graph)
        with serve_backend(backend) as server:
            with HTTPGraphBackend(server.url, timeout=5) as client:
                assert client.node_ids() == backend.node_ids()
                assert len(client) == len(backend)
                for node in backend.node_ids():
                    remote = client.fetch(node)
                    local = backend.fetch(node)
                    assert remote == local
                    assert [type(n) for n in remote.neighbors] == [
                        type(n) for n in local.neighbors
                    ]
                    assert client.metadata(node) == backend.metadata(node)
                    assert client.contains(node)
                assert client.fetch_many(backend.node_ids()) == backend.fetch_many(
                    backend.node_ids()
                )


#: Record ids the server memo must keep apart: wide ints (past 64 bits) and
#: unicode strings, including ``"1"`` beside ``1``.
body_ids = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.text(max_size=6),
    st.sampled_from([0, 1, "1", "α"]),
)

#: Attribute values JSON encodes with care: ``None``, NaN and the infinities.
body_values = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)


def _route(router, method, target, payload=None):
    """One request through a router (no transport): ``(status, body)``."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    response = router.dispatch(router.begin(method, target, {}, body))
    return response.status, response.body


def _wire(backend, node) -> bytes:
    return json.dumps(record_to_wire(backend.fetch(node))).encode("utf-8")


def _wire_batch(backend, nodes) -> bytes:
    records = [record_to_wire(backend.fetch(node)) for node in nodes]
    return json.dumps({"records": records}).encode("utf-8")


def _small_snapshot(directory, nodes=12):
    graph = Graph(name="bodies")
    graph.add_edges((i, (i * 5 + 1) % nodes) for i in range(nodes) if (i * 5 + 1) % nodes != i)
    graph.add_edges((i, i + 1) for i in range(nodes - 1))
    for node in range(0, nodes, 3):
        graph.set_attributes(node, score=node / 7, label=f"n{node}")
    return load_snapshot(save_snapshot(graph, Path(directory) / "snap"))


class TestServedBodyProperties:
    """Memoised ``/node`` and ``/nodes`` bodies equal plain ``json.dumps``."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_memoised_bodies_match_json_dumps_cold_and_warm(self, data):
        ids = data.draw(st.lists(body_ids, min_size=1, max_size=8, unique=True), label="ids")
        records = [
            RawRecord(
                node,
                tuple(data.draw(st.lists(st.sampled_from(ids), max_size=6), label="nbrs")),
                data.draw(
                    st.dictionaries(st.text(min_size=1, max_size=4), body_values, max_size=3),
                    label="attributes",
                ),
            )
            for node in ids
        ]
        backend = ReplayBackend(records)
        batch = data.draw(st.lists(st.sampled_from(ids), max_size=10), label="batch")
        memoised = GraphRouter(backend, "test")
        assert memoised._serving[1] is not None
        # A backend without the immutable flag: the same records, no memo.
        plain = GraphRouter(FlakyBackend(backend), "test")
        assert plain._serving[1] is None
        for router in (memoised, plain):
            # Cold: the batch fills the memo (a repeated id hits within it).
            assert _route(router, "POST", "/nodes", {"nodes": batch}) == (
                200, _wire_batch(backend, batch)
            )
            for _ in range(2):
                for node in ids:
                    target = "/node/" + encode_node_id(node)
                    assert _route(router, "GET", target) == (200, _wire(backend, node))
                assert _route(router, "POST", "/nodes", {"nodes": batch}) == (
                    200, _wire_batch(backend, batch)
                )

    def test_true_and_one_never_alias(self, tmp_path):
        backend = _small_snapshot(tmp_path)
        router = GraphRouter(backend, "test")
        for order in (["1", "true"], ["true", "1"], ["1", "true"]):
            for segment in order:
                node = json.loads(segment)
                status, body = _route(router, "GET", "/node/" + segment)
                assert (status, body) == (200, _wire(backend, node))
                assert json.loads(body)["node"] is node
            status, body = _route(router, "POST", "/nodes", {"nodes": [True, 1, True]})
            assert body == _wire_batch(backend, [True, 1, True])
        # The string "1" is a different id: absent from an identity table.
        assert _route(router, "GET", "/node/" + encode_node_id("1"))[0] == 404

    def test_memo_stays_within_its_bound(self, tmp_path, monkeypatch):
        backend = _small_snapshot(tmp_path, nodes=40)
        limit = 3 * max(router_module._entry_weight(n, _wire(backend, n)) for n in range(40))
        monkeypatch.setattr(router_module, "RECORD_MEMO_BYTES", limit)
        router = GraphRouter(backend, "test")
        bodies = router._serving[1]
        for node in range(40):
            assert _route(router, "GET", f"/node/{node}") == (200, _wire(backend, node))
            assert bodies.size <= limit
        assert 0 < len(bodies) < 40
        # Node 0 was evicted long ago and is still served exactly.
        assert bodies.get(0) is None
        assert _route(router, "GET", "/node/0") == (200, _wire(backend, 0))
        assert _route(router, "POST", "/nodes", {"nodes": list(range(40))}) == (
            200, _wire_batch(backend, range(40))
        )
        assert bodies.size <= limit
        # A body heavier than the whole memo is served but never stored.
        monkeypatch.setattr(router_module, "RECORD_MEMO_BYTES", 10)
        router = GraphRouter(backend, "test")
        assert _route(router, "GET", "/node/5") == (200, _wire(backend, 5))
        assert len(router._serving[1]) == 0

    @pytest.mark.parametrize("make_id", [
        lambda i: f"u{i}",
        lambda i: f"\u00e9{i}",
        lambda i: f"\U0001f600{i}",
        lambda i: 257 + i,
        lambda i: 10**20 + i,
    ], ids=["ascii", "latin1", "astral", "int", "bigint"])
    def test_charge_covers_the_real_footprint(self, make_id):
        records = [RawRecord(make_id(i), (make_id(i + 1),), {"x": i / 7}) for i in range(400)]
        bodies = BoundedMemo(router_module.RECORD_MEMO_BYTES, router_module._entry_weight)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for record in records:
                # A fresh key object, as a request decodes it from the path.
                node = json.loads(json.dumps(record.node))
                router_module._record_body(bodies, node, record)
            del node
            resident = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(bodies) == 400
        assert 0 < resident <= bodies.size

    def test_reassigned_backend_serves_its_own_records_and_faults(self, tmp_path):
        first = _small_snapshot(tmp_path / "a", nodes=12)
        second = _small_snapshot(tmp_path / "b", nodes=9)
        router = GraphRouter(first, "test")
        assert _route(router, "GET", "/node/2") == (200, _wire(first, 2))
        router.backend = second
        assert router.backend is second
        assert _wire(first, 2) != _wire(second, 2)
        assert _route(router, "GET", "/node/2") == (200, _wire(second, 2))
        router.backend = FlakyBackend(first, plan=[RuntimeError("disk on fire"), None])
        status, body = _route(router, "GET", "/node/2")
        assert status == 500 and b"disk on fire" in body
        assert _route(router, "GET", "/node/2") == (200, _wire(first, 2))
        # A mutable backend gets no memo at all.
        router.backend = InMemoryBackend(Graph())
        assert router._serving[1] is None


class TestRequestTrimProperties:
    """The per-request fast paths agree with the general paths they skip."""

    @given(st.one_of(
        st.text(),
        st.text().map(lambda tail: "/" + tail),
        st.text(alphabet="/?#:%[]@ \t\r\nab1").map(lambda tail: "/" + tail),
    ))
    @example("/")
    @example("//host/path")
    @example("/node/1?x=2")
    @example("/a\tb")
    @settings(max_examples=300, deadline=None)
    def test_router_path_is_urlsplit_path(self, target):
        import urllib.parse

        from repro.server.router import GraphRouter
        from repro.server.wire import LeanHeaders

        router = GraphRouter(InMemoryBackend(Graph(name="empty")), "test")
        try:
            expected = urllib.parse.urlsplit(target).path
        except ValueError:
            with pytest.raises(ValueError):
                router.begin("GET", target, LeanHeaders({}), b"")
            return
        assert router.begin("GET", target, LeanHeaders({}), b"").path == expected

    @given(st.one_of(
        st.integers(),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.integers(0, 255).map(np.uint8),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(),
        st.none(),
    ))
    @settings(max_examples=300, deadline=None)
    def test_encode_node_id_matches_json_and_quote(self, node):
        import json
        import urllib.parse

        from repro.api.remote import _coerce_id, decode_node_id, encode_node_id

        general = urllib.parse.quote(json.dumps(node, default=_coerce_id), safe="")
        encoded = encode_node_id(node)
        assert encoded == general
        decoded = decode_node_id(encoded)
        assert decoded == node
        if type(node) in (int, bool):
            assert type(decoded) is type(node)


class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_cache_is_a_dict(self, operations):
        cache = QueryCache()
        model = {}
        for key, value in operations:
            cache.put(key, value)
            model[key] = value
        for key, value in model.items():
            assert cache.peek(key) == value
        assert len(cache) == len(model)

    @given(
        st.integers(min_value=1, max_value=10),
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_lru_cache_never_exceeds_capacity(self, capacity, operations):
        cache = LRUCache(capacity)
        for key, value in operations:
            cache.put(key, value)
            assert len(cache) <= capacity
