"""Property tests for the CSR fetch paths, in RAM and memory-mapped.

``CSRBackend.fetch`` / ``fetch_many`` (and ``MmapCSRBackend``, which inherits
them) are checked against a reference read straight off the source graph,
over identity (``0..n-1``) and non-identity id tables, with and without
attributes.  Every call must hand out a fresh attributes dict, and ids that
are not in the table — out of range, negative, float, str — must raise
``NodeNotFoundError``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CSRBackend
from repro.exceptions import NodeNotFoundError
from repro.graphs import Graph
from repro.storage import MmapCSRBackend, load_snapshot, save_snapshot

ID_TABLES = ("identity", "shuffled-int", "str")


@st.composite
def source_graphs(draw):
    """A small graph (isolated nodes allowed) plus its id-table kind."""
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(ID_TABLES))
    if kind == "identity":
        ids = list(range(n))
    elif kind == "shuffled-int":
        # Ints, but not 0..n-1 in order: the id table is kept.
        ids = draw(st.permutations([3 * i + 1 for i in range(n)]))
    else:
        ids = [f"user-{i}" for i in range(n)]
    graph = Graph(name="prop")
    for node in ids:
        graph.add_node(node)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
        )
    )
    for u, v in pairs:
        if u != v:
            graph.add_edge(ids[u], ids[v])
    if draw(st.booleans()):
        for node in ids:
            if draw(st.booleans()):
                graph.set_attributes(node, age=draw(st.integers(0, 99)), city="austin")
    return graph, kind


def _backends(graph, directory):
    csr = CSRBackend.from_graph(graph)
    mmap = load_snapshot(save_snapshot(graph, Path(directory) / "snap"))
    assert isinstance(mmap, MmapCSRBackend)
    return csr, mmap


def _absent_ids(graph, kind):
    """Ids that are not in the table and must raise NodeNotFoundError."""
    n = graph.number_of_nodes
    absent = [-1, -n, n + 100, "user-x", "0", 0.5, n - 0.5]
    if kind == "identity":
        # The identity table takes ints only: even an integral float misses.
        absent += [0.0, float(n - 1), n, np.int64(n)]
    elif kind == "shuffled-int":
        absent += [0, 2, "1"]
    else:
        absent += [0, n - 1]
    return absent


@settings(max_examples=60, deadline=None)
@given(source=source_graphs(), order_seed=st.integers(0, 2**16))
def test_fetch_and_fetch_many_match_the_source_graph(source, order_seed):
    graph, kind = source
    nodes = graph.nodes()
    rng = np.random.default_rng(order_seed)
    # A batch in random order with repeats, as a walker frontier would be.
    batch = [nodes[int(i)] for i in rng.integers(0, len(nodes), size=2 * len(nodes))]
    with tempfile.TemporaryDirectory() as directory:
        for backend in _backends(graph, directory):
            assert backend.identity_ids == (kind == "identity")
            for node in nodes:
                record = backend.fetch(node)
                assert record.node == node
                assert record.neighbors == tuple(graph.neighbors(node))
                assert all(type(n) is type(node) for n in record.neighbors)
                assert record.attributes == graph.attributes(node)
            records = backend.fetch_many(batch)
            assert [r.node for r in records] == batch
            for node, record in zip(batch, records):
                assert record.neighbors == tuple(graph.neighbors(node))
                assert record.attributes == graph.attributes(node)


@settings(max_examples=40, deadline=None)
@given(source=source_graphs())
def test_every_fetch_returns_a_fresh_attributes_dict(source):
    graph, _ = source
    node = graph.nodes()[0]
    expected = graph.attributes(node)
    with tempfile.TemporaryDirectory() as directory:
        for backend in _backends(graph, directory):
            first = backend.fetch(node)
            first.attributes["mutated"] = True
            batched = backend.fetch_many([node, node])
            assert batched[0].attributes is not batched[1].attributes
            batched[0].attributes["mutated"] = True
            assert backend.fetch(node).attributes == expected
            assert backend.fetch_many([node])[0].attributes == expected


@settings(max_examples=40, deadline=None)
@given(source=source_graphs())
def test_absent_ids_raise_node_not_found(source):
    graph, kind = source
    present = graph.nodes()[0]
    with tempfile.TemporaryDirectory() as directory:
        for backend in _backends(graph, directory):
            for node in _absent_ids(graph, kind):
                with pytest.raises(NodeNotFoundError) as single:
                    backend.fetch(node)
                assert single.value.node == node
                with pytest.raises(NodeNotFoundError) as batched:
                    backend.fetch_many([present, node, present])
                assert batched.value.node == node
