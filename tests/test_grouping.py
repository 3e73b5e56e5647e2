"""Unit tests for GNRW grouping strategies."""

from __future__ import annotations

import copy
import sys
import threading

import pytest

from repro.api import GraphAPI
from repro.exceptions import InvalidConfigurationError
from repro.walks import grouping as grouping_module
from repro.walks import make_grouping
from repro.walks.grouping import (
    AttributeValueGrouping,
    CallableGrouping,
    DegreeGrouping,
    ExplicitGrouping,
    GroupingStrategy,
    HashGrouping,
    NumericBinGrouping,
)


class TestHashGrouping:
    def test_deterministic(self, api):
        grouping = HashGrouping(num_groups=3)
        assert grouping.group_of(1, api) == grouping.group_of(1, api)

    def test_group_range(self, api):
        grouping = HashGrouping(num_groups=3)
        for node in range(20):
            assert 0 <= grouping.group_of(node, api) < 3

    def test_invalid_num_groups(self):
        with pytest.raises(InvalidConfigurationError):
            HashGrouping(num_groups=0)

    def test_partition_is_disjoint_cover(self, api, attributed_graph):
        grouping = HashGrouping(num_groups=2)
        neighbors = attributed_graph.neighbors(0)
        partition = grouping.partition(neighbors, api)
        flattened = [node for members in partition.values() for node in members]
        assert sorted(flattened, key=repr) == sorted(neighbors, key=repr)

    @pytest.mark.parametrize("num_groups", [2.5, 3.0, "3", True, None])
    def test_num_groups_must_be_an_int(self, num_groups):
        with pytest.raises(InvalidConfigurationError, match="num_groups must be an int"):
            HashGrouping(num_groups=num_groups)


class TestGroupingMemo:
    def test_equal_parameters_share_partitions(self):
        neighbors = (3, 1, 4, 15, 9, "two", 6)
        first = HashGrouping(num_groups=3).partition(neighbors, None)
        again = HashGrouping(num_groups=3).partition(list(neighbors), None)
        assert again is first
        assert HashGrouping(3) == HashGrouping(3)
        assert hash(HashGrouping(3)) == hash(HashGrouping(3))
        assert HashGrouping(3) != HashGrouping(4)
        assert HashGrouping(4).partition(neighbors, None) is not first
        with pytest.raises(TypeError):
            first[0] = ()

    def test_partition_members_are_tuples(self, api):
        for grouping in (HashGrouping(3), DegreeGrouping(), AttributeValueGrouping("city")):
            partition = grouping.partition([0, 1, 2, 3, 4], api)
            assert all(type(members) is tuple and members for members in partition.values())

    def test_inexact_ids_are_not_memoised(self):
        grouping = HashGrouping(num_groups=3)
        for neighbors in ((1, 2.0), (True, 2), (1, (2, 3))):
            assert grouping.partition(neighbors, None) is not grouping.partition(neighbors, None)

    def test_exact_id_scan_runs_once_per_tuple_object(self, monkeypatch):
        scans = []

        class CountingTypes(frozenset):
            def issuperset(self, types):
                scans.append(1)
                return super().issuperset(types)

        monkeypatch.setattr(grouping_module, "_EXACT_ID_TYPES", CountingTypes((int, str)))
        grouping = HashGrouping(num_groups=5)
        first = (10_001, 10_002, "x", 10_003)
        partition = grouping.partition(first, None)
        assert grouping.partition(first, None) is partition
        assert len(scans) == 1  # a revisit hands back the very same tuple
        equal = tuple(list(first))
        assert equal is not first
        assert grouping.partition(equal, None) is partition
        assert grouping.partition(equal, None) is partition
        assert len(scans) == 2  # an equal new tuple is scanned once, then re-used
        assert grouping.partition(first, None) is partition
        assert len(scans) == 3  # the memo now answers for `equal`, not `first`

    def test_memo_stays_bounded_and_exact_under_threads(self):
        """Concurrent walks share the memo: eviction never races an insert."""
        grouping = HashGrouping(num_groups=4)
        per_thread = grouping_module.PARTITION_MEMO_SIZE
        errors = []

        def reference(neighbors):
            groups = {}
            for node in neighbors:
                groups.setdefault(grouping.group_of(node, None), []).append(node)
            return {group: tuple(members) for group, members in groups.items()}

        def crawl(offset):
            try:
                for i in range(per_thread):
                    neighbors = tuple(range(offset + i, offset + i + 5))
                    if dict(grouping.partition(neighbors, None)) != reference(neighbors):
                        errors.append(neighbors)
            except Exception as error:  # noqa: BLE001 - reported by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=crawl, args=(offset,))
                for offset in range(0, 8000, 1000)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(grouping_module._PARTITIONS) <= grouping_module.PARTITION_MEMO_SIZE

    def test_partition_is_the_single_entry_point(self):
        # The per-layer trace wraps GroupingStrategy.partition; an override
        # would hide the memoised strategy's calls from it.
        for strategy in (HashGrouping, DegreeGrouping, AttributeValueGrouping, NumericBinGrouping):
            assert strategy.partition is GroupingStrategy.partition

    def test_cache_reading_strategies_keep_billing(self, attributed_graph):
        class CountingAPI:
            """No metadata and no cache: every prefetch is a billed query."""

            def __init__(self, inner):
                self.inner = inner
                self.queries = 0

            def query(self, node):
                self.queries += 1
                return self.inner.query(node)

        api = CountingAPI(GraphAPI(attributed_graph))
        neighbors = (0, 1, 2)
        for grouping in (DegreeGrouping(), AttributeValueGrouping("city"), NumericBinGrouping("age")):
            assert grouping.memo_key is None
            assert grouping != copy.copy(grouping)
            before = api.queries
            grouping.partition(neighbors, api)
            grouping.partition(neighbors, api)
            assert api.queries - before == 2 * len(neighbors)


class TestAttributeValueGrouping:
    def test_groups_by_value(self, api):
        grouping = AttributeValueGrouping("city")
        assert grouping.group_of(0, api) == "austin"
        assert grouping.group_of(2, api) == "dallas"

    def test_missing_attribute_default(self, api):
        grouping = AttributeValueGrouping("nonexistent", default="none")
        assert grouping.group_of(0, api) == "none"

    def test_does_not_consume_budget(self, attributed_graph):
        api = GraphAPI(attributed_graph)
        grouping = AttributeValueGrouping("city")
        grouping.partition(attributed_graph.nodes(), api)
        assert api.unique_queries == 0


class TestNumericBinGrouping:
    def test_binning(self, api):
        grouping = NumericBinGrouping("age", bin_width=10.0)
        assert grouping.group_of(0, api) == 2   # age 20
        assert grouping.group_of(2, api) == 3   # age 30
        assert grouping.group_of(4, api) == 4   # age 40

    def test_minimum_offset(self, api):
        grouping = NumericBinGrouping("age", bin_width=10.0, minimum=20.0)
        assert grouping.group_of(0, api) == 0
        assert grouping.group_of(4, api) == 2

    def test_missing_attribute_goes_to_default_bin(self, api):
        grouping = NumericBinGrouping("reviews_count", default_bin=-1)
        assert grouping.group_of(0, api) == -1

    def test_non_numeric_attribute_goes_to_default_bin(self, api):
        grouping = NumericBinGrouping("city", default_bin=-5)
        assert grouping.group_of(0, api) == -5

    def test_invalid_bin_width(self):
        with pytest.raises(InvalidConfigurationError):
            NumericBinGrouping("age", bin_width=0.0)


class TestDegreeGrouping:
    def test_logarithmic_bins(self, api, attributed_graph):
        grouping = DegreeGrouping(logarithmic=True)
        for node in attributed_graph.nodes():
            expected = int(attributed_graph.degree(node)).bit_length()
            assert grouping.group_of(node, api) == expected

    def test_linear_bins(self, api, attributed_graph):
        grouping = DegreeGrouping(logarithmic=False, bin_width=2)
        for node in attributed_graph.nodes():
            assert grouping.group_of(node, api) == attributed_graph.degree(node) // 2

    def test_invalid_bin_width(self):
        with pytest.raises(InvalidConfigurationError):
            DegreeGrouping(logarithmic=False, bin_width=0)

    @pytest.mark.parametrize("bin_width", [2.5, 2.0, "2", True])
    def test_bin_width_must_be_an_int(self, bin_width):
        with pytest.raises(InvalidConfigurationError, match="bin_width must be an int"):
            DegreeGrouping(logarithmic=False, bin_width=bin_width)

    def test_does_not_consume_budget(self, attributed_graph):
        api = GraphAPI(attributed_graph)
        DegreeGrouping().partition(attributed_graph.nodes(), api)
        assert api.unique_queries == 0


class TestOtherStrategies:
    def test_callable_grouping(self, api):
        grouping = CallableGrouping(lambda node: node % 2, name="parity")
        assert grouping.group_of(4, api) == 0
        assert grouping.group_of(5, api) == 1
        assert grouping.name == "parity"

    def test_explicit_grouping(self, api):
        grouping = ExplicitGrouping({1: "x"}, default="other")
        assert grouping.group_of(1, api) == "x"
        assert grouping.group_of(99, api) == "other"


class TestFactory:
    def test_make_grouping_names(self):
        assert make_grouping("md5", num_groups=4).name == "md5-4"
        assert make_grouping("degree").name == "degree-log"
        assert make_grouping("attribute", attribute="city").name == "attr-city"
        assert make_grouping("numeric", attribute="age").name == "bin-age"

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfigurationError):
            make_grouping("nope")


class TestPartitionWithoutMetadata:
    def test_falls_back_to_cache_then_default(self, attributed_graph):
        class NoPeekAPI:
            """An API without peek_metadata and without a cache."""

            def __init__(self, inner):
                self._inner = inner

            def query(self, node):
                return self._inner.query(node)

            @property
            def unique_queries(self):
                return self._inner.unique_queries

            @property
            def total_queries(self):
                return self._inner.total_queries

            def reset_counters(self):
                self._inner.reset_counters()

        api = NoPeekAPI(GraphAPI(attributed_graph))
        grouping = AttributeValueGrouping("city", default="unknown", prefetch=False)
        # Without metadata, cache or prefetch the strategy degrades gracefully.
        assert grouping.group_of(0, api) == "unknown"
        grouping_prefetch = AttributeValueGrouping("city", prefetch=True)
        assert grouping_prefetch.group_of(0, api) == "austin"
