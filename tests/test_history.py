"""Unit tests for the CNRW/GNRW history bookkeeping structures."""

from __future__ import annotations

import pytest

from repro.api import GraphAPI
from repro.graphs import load_dataset
from repro.walks import EdgeHistory, GroupedEdgeHistory, make_walker
from repro.walks.grouping import DegreeGrouping
from repro.walks.history import filter_candidates


class TestEdgeHistory:
    def test_initially_everything_remains(self):
        history = EdgeHistory()
        assert history.remaining("u", "v", ["a", "b", "c"]) == ["a", "b", "c"]
        assert history.visited("u", "v") == set()
        assert history.tracked_edges == 0

    def test_record_excludes_chosen(self):
        history = EdgeHistory()
        reset = history.record("u", "v", "a", ["a", "b", "c"])
        assert not reset
        assert history.remaining("u", "v", ["a", "b", "c"]) == ["b", "c"]
        assert history.visited("u", "v") == {"a"}

    def test_reset_after_full_circulation(self):
        history = EdgeHistory()
        history.record("u", "v", "a", ["a", "b"])
        reset = history.record("u", "v", "b", ["a", "b"])
        assert reset
        assert history.remaining("u", "v", ["a", "b"]) == ["a", "b"]
        assert history.visited("u", "v") == set()

    def test_per_edge_isolation(self):
        history = EdgeHistory()
        history.record("u", "v", "a", ["a", "b"])
        assert history.remaining("x", "v", ["a", "b"]) == ["a", "b"]
        assert history.remaining("u", "w", ["a", "b"]) == ["a", "b"]

    def test_order_preserved(self):
        history = EdgeHistory()
        history.record("u", "v", "b", ["c", "b", "a"])
        assert history.remaining("u", "v", ["c", "b", "a"]) == ["c", "a"]

    def test_explicit_reset_edge(self):
        history = EdgeHistory()
        history.record("u", "v", "a", ["a", "b"])
        history.reset_edge("u", "v")
        assert history.visited("u", "v") == set()

    def test_clear(self):
        history = EdgeHistory()
        history.record("u", "v", "a", ["a", "b"])
        history.clear()
        assert history.tracked_edges == 0

    def test_state_snapshot_is_immutable_copy(self):
        history = EdgeHistory()
        history.record("u", "v", "a", ["a", "b"])
        snapshot = history.state()
        assert snapshot[("u", "v")] == frozenset({"a"})

    def test_single_neighbor_resets_every_time(self):
        history = EdgeHistory()
        reset = history.record("u", "v", "only", ["only"])
        assert reset
        assert history.remaining("u", "v", ["only"]) == ["only"]


class TestGroupedEdgeHistory:
    #: Two unequal groups over a 3-neighbor node: the case where the GNRW
    #: bookkeeping must still attempt every neighbor exactly once per round.
    PARTITION = {"g1": ["a", "b"], "g2": ["c"]}

    def test_initially_all_groups_eligible(self):
        history = GroupedEdgeHistory()
        groups, members = history.candidate_groups("u", "v", self.PARTITION)
        assert set(groups) == {"g1", "g2"}
        assert members["g1"] == ["a", "b"]
        assert members["g2"] == ["c"]

    def test_group_round_excludes_attempted_group(self):
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        groups, members = history.candidate_groups("u", "v", self.PARTITION)
        assert groups == ["g2"]
        assert members["g2"] == ["c"]
        assert history.attempted_groups("u", "v") == {"g1"}
        assert history.attempted_nodes("u", "v") == {"a"}

    def test_group_round_resets_after_all_groups(self):
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        history.record("u", "v", "g2", "c", self.PARTITION)
        # Both groups attempted -> S(u, v) reset; but node memory persists, so
        # only g1 (with the unattempted "b") offers candidates.
        assert history.attempted_groups("u", "v") == set()
        groups, members = history.candidate_groups("u", "v", self.PARTITION)
        assert groups == ["g1"]
        assert members["g1"] == ["b"]

    def test_node_memory_resets_after_full_neighborhood(self):
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        history.record("u", "v", "g2", "c", self.PARTITION)
        history.record("u", "v", "g1", "b", self.PARTITION)
        # Every neighbor attempted once -> both memories reset.
        assert history.attempted_nodes("u", "v") == set()
        assert history.attempted_groups("u", "v") == set()
        groups, members = history.candidate_groups("u", "v", self.PARTITION)
        assert set(groups) == {"g1", "g2"}
        assert members["g1"] == ["a", "b"]

    def test_every_neighbor_once_per_circulation(self):
        """Simulating three departures always covers all three neighbors."""
        history = GroupedEdgeHistory()
        chosen = []
        for _ in range(3):
            groups, members = history.candidate_groups("u", "v", self.PARTITION)
            group = groups[0]
            node = members[group][0]
            chosen.append(node)
            history.record("u", "v", group, node, self.PARTITION)
        assert set(chosen) == {"a", "b", "c"}

    def test_early_group_round_reset_when_remaining_groups_exhausted(self):
        # Attempt both members of g1 (across two rounds); with only "c" left,
        # g2 must stay eligible even though it was attempted in this round.
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        history.record("u", "v", "g2", "c", self.PARTITION)  # round over, S resets
        history.record("u", "v", "g1", "b", self.PARTITION)  # neighborhood covered, all resets
        history.record("u", "v", "g1", "a", self.PARTITION)
        history.record("u", "v", "g1", "b", self.PARTITION)
        groups, members = history.candidate_groups("u", "v", self.PARTITION)
        assert groups == ["g2"]
        assert members["g2"] == ["c"]

    def test_remaining_in_group_helper(self):
        history = GroupedEdgeHistory()
        assert history.remaining_in_group("u", "v", ["a", "b"]) == ["a", "b"]
        history.record("u", "v", "g1", "a", self.PARTITION)
        assert history.remaining_in_group("u", "v", ["a", "b"]) == ["b"]

    def test_attempted_sets_are_copies(self):
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        nodes = history.attempted_nodes("u", "v")
        nodes.add("zzz")
        assert history.attempted_nodes("u", "v") == {"a"}

    def test_edges_are_independent(self):
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        groups, members = history.candidate_groups("w", "v", self.PARTITION)
        assert set(groups) == {"g1", "g2"}
        assert members["g1"] == ["a", "b"]

    def test_clear(self):
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        history.clear()
        assert history.tracked_edges == 0
        nodes, groups = history.state()
        assert nodes == {}
        assert groups == {}

    def test_state_snapshot(self):
        history = GroupedEdgeHistory()
        history.record("u", "v", "g1", "a", self.PARTITION)
        nodes, groups = history.state()
        assert nodes[("u", "v")] == frozenset({"a"})
        assert groups[("u", "v")] == frozenset({"g1"})

    def test_all_neighbors_exhausted_offers_full_partition(self):
        history = GroupedEdgeHistory()
        single = {"only": ["x"]}
        history.record("u", "v", "only", "x", single)
        # Neighborhood covered -> memory reset -> full partition on offer.
        groups, members = history.candidate_groups("u", "v", single)
        assert groups == ["only"]
        assert members["only"] == ["x"]


class TestCandidateGroupsFastPath:
    """``candidate_groups`` skips filtering while ``b(u, v)`` is empty.

    Differential check: at every history state seeded GNRW walks reach, the
    answer (groups, members, and both orders, which feed the rng) must equal
    the general filtering path's.
    """

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("facebook_like", seed=3, scale=0.2)

    @pytest.mark.parametrize("grouping", [None, DegreeGrouping()], ids=["md5", "degree"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fast_path_matches_general_path(self, graph, grouping, seed):
        api = GraphAPI(graph)
        walker = make_walker("gnrw", api=api, seed=seed, grouping=grouping)
        history = walker.history
        answer = history.candidate_groups
        states = {"fast": 0, "general": 0}

        def checked(source, current, partition):
            nodes = history.attempted_nodes(source, current)
            groups = history.attempted_groups(source, current)
            got_groups, got_members = answer(source, current, partition)
            want_groups, want_members = filter_candidates(nodes, groups, partition)
            assert got_groups == want_groups
            assert list(got_members) == list(want_members)
            assert {g: list(m) for g, m in got_members.items()} == want_members
            states["fast" if not nodes and not groups else "general"] += 1
            return got_groups, got_members

        history.candidate_groups = checked
        walker.run(graph.nodes()[0], max_steps=1500)
        assert states["fast"] > 100 and states["general"] > 100
