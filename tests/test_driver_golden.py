"""Golden for the classic driver's full accounting.

``SamplingSession.run`` under a unique-query budget (no step cap) is the way
users and the repository benchmark drive a crawl.  These goldens pin
everything such a run produces — not just the path, but every sample's
fields, the transition count, the query counters, the budget flag and the
cache's hit/miss split — for SRW, CNRW and GNRW on the in-memory, CSR and
memory-mapped snapshot backends.  Any speed work on the step loop, the
middleware or the CSR fetch must leave all of it bit-identical.
"""

from __future__ import annotations

import zlib

import pytest

from repro import SamplingSession
from repro.api import CSRBackend
from repro.graphs import load_dataset
from repro.storage import load_snapshot, save_snapshot

BUDGET = 100
WALKER_SEEDS = {"srw": 11, "cnrw": 12, "gnrw": 13}

#: Recorded before the step-loop optimisation; identical on every backend.
GOLDEN = {
    "srw": dict(
        path_crc=1761443406, sample_crc=1914151604, transitions=177, unique=100, total=355,
        stopped_by_budget=True, hits=255, misses=100,
    ),
    "cnrw": dict(
        path_crc=3015793548, sample_crc=750624815, transitions=187, unique=100, total=375,
        stopped_by_budget=True, hits=275, misses=100,
    ),
    "gnrw": dict(
        path_crc=1632627284, sample_crc=1216808691, transitions=158, unique=100, total=317,
        stopped_by_budget=True, hits=217, misses=100,
    ),
}


@pytest.fixture(scope="module")
def golden_graph():
    return load_dataset("facebook_like", seed=7, scale=0.3)


@pytest.fixture(scope="module")
def backends(golden_graph, tmp_path_factory):
    snapshot = save_snapshot(golden_graph, tmp_path_factory.mktemp("golden") / "snap")
    return {
        "memory": golden_graph,
        "csr": CSRBackend.from_graph(golden_graph),
        "mmap": load_snapshot(snapshot),
    }


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def accounting(source, walker: str, start) -> dict:
    session = SamplingSession(source).budget(BUDGET).walker(walker, seed=WALKER_SEEDS[walker])
    result = session.run(start=start)
    samples = [
        (s.node, s.degree, s.step_index, s.query_cost, sorted(s.attributes.items()))
        for s in result.samples
    ]
    cache = session.api.cache.stats
    return dict(
        path_crc=_crc(",".join(map(str, result.path))),
        sample_crc=_crc(repr(samples)),
        transitions=len(result.transitions),
        unique=result.unique_queries,
        total=result.total_queries,
        stopped_by_budget=result.stopped_by_budget,
        hits=cache.hits,
        misses=cache.misses,
    )


@pytest.mark.parametrize("kind", ["memory", "csr", "mmap"])
@pytest.mark.parametrize("walker", sorted(GOLDEN))
def test_budget_driven_run_matches_golden(backends, golden_graph, kind, walker):
    start = golden_graph.nodes()[0]
    assert accounting(backends[kind], walker, start) == GOLDEN[walker]
