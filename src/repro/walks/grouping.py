"""Group-by strategies for GNRW.

GNRW stratifies the neighbors of the current node into disjoint groups and
circulates among the groups (Section 4.1 of the paper).  The grouping function
``g(N(v))`` is a free design parameter; the paper evaluates three concrete
strategies on the Yelp graph (Figure 9):

* grouping by a hash of the node id (``GNRW_By_MD5``) — effectively random
  groups, which reduces GNRW to CNRW-like behaviour;
* grouping by degree (``GNRW_By_Degree``);
* grouping by the measure attribute of the target aggregate
  (``GNRW_By_ReviewsCount``).

Each strategy here maps a neighbor (as seen through the restricted API — the
walker passes the neighbor's *attributes only if it already queried them*, so
by default strategies must work with the node id and any locally known data).
To stay faithful to the access model, attribute- and degree-based strategies
look the values up through the API **of already-queried nodes only when
available** and otherwise fall back to a hash group; the ``prefetch`` option
lets users trade extra queries for exact grouping, and is what the paper's
setting corresponds to (profile attributes of listed neighbors are typically
returned inline by real OSN APIs).

Memoisation: a GNRW step partitions the current node's neighbors, so a
strategy's cost is paid once per neighbor per step.  A *pure* strategy — one
whose ``group_of`` depends on the node id and its own parameters alone, which
today is only ``HashGrouping`` — declares a ``memo_key``, and
:meth:`GroupingStrategy.partition` then serves it from a bounded, process-wide
memo keyed by the strategy's class and ``memo_key`` and the exact neighbor
tuple (``HashGrouping`` also memoises its per-node MD5).  The entries are
plain functions of their keys, so walks on the same graph (sweeps,
ensembles, server-side walks) share them with bit-identical results.  Keys
are exact: only neighbor tuples whose ids are all exactly ``int`` or ``str``
are memoised, because ids that compare equal with different ``repr`` (``1``,
``True``, ``1.0``, ``np.int64(1)``) must never share an entry; anything else
takes the unmemoised loop.  That exact-id scan costs a pass over the tuple,
so each entry remembers the last tuple object that passed it: a walk
revisiting a node gets the cached view's tuple back and skips the scan.
Degree-, attribute- and bin-based strategies are not memoised: they read the
API's metadata or query cache (whose contents change during a crawl) and may
bill a query with ``prefetch``, and a memo would skip that billing.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..api.interface import SocialNetworkAPI
from ..exceptions import InvalidConfigurationError
from ..memo import BoundedMemo
from ..types import NodeId

GroupKey = Hashable
#: A partition: group key -> members in neighbor order (groups are non-empty).
Partition = Mapping[GroupKey, Tuple[NodeId, ...]]

#: Entries of the process-wide memos of pure groupings (fixed sizes, not a
#: knob): node -> group, and neighbor tuple -> partition.
GROUP_MEMO_SIZE = 1 << 16
PARTITION_MEMO_SIZE = 1 << 12
#: Id types whose equal values always have equal ``repr`` (unlike ``float``
#: ``0.0``/``-0.0``, or ``bool``/``np.int64`` next to ``int``), so an id of
#: one of these exact types is its own exact memo key.
_EXACT_ID_TYPES = frozenset((int, str))


class GroupingStrategy:
    """Maps each neighbor of the current node to a group key."""

    #: Short name used by reports and the walker factory.
    name = "grouping"

    #: ``None``, or — for a pure strategy, whose ``group_of`` reads neither
    #: the API nor any mutable state — a hashable value that fixes the
    #: grouping together with the class.  Strategies with equal class and
    #: ``memo_key`` compare equal and share the partition memo.
    memo_key: Optional[Hashable] = None

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        """Return the group key of ``node``."""
        raise NotImplementedError

    def partition(self, neighbors: Sequence[NodeId], api: SocialNetworkAPI) -> Partition:
        """Partition ``neighbors`` into groups (order inside groups preserved).

        Treat the result as read-only: a pure strategy's partitions are
        read-only mappings shared through the memo (see the module docstring).
        """
        if self.memo_key is not None:
            key = tuple(neighbors)
            memo_id = (type(self), self.memo_key, key)
            entry = _PARTITIONS.get(memo_id)
            if entry is not None and entry[0] is key:
                # The exact-id scan already passed for this very tuple (a
                # walk revisiting a node gets the cached view's tuple back).
                return entry[1]
            if _EXACT_ID_TYPES.issuperset(map(type, key)):
                if entry is None:
                    # Pure strategies never touch the API, so none is passed.
                    entry = [key, MappingProxyType(_partition_loop(self, key, None))]
                    _PARTITIONS.put(memo_id, entry)
                else:
                    entry[0] = key
                return entry[1]
        return _partition_loop(self, neighbors, api)

    def __eq__(self, other: Any) -> bool:
        if self.memo_key is None:
            return self is other
        return type(other) is type(self) and other.memo_key == self.memo_key

    def __hash__(self) -> int:
        if self.memo_key is None:
            return object.__hash__(self)
        return hash(self.memo_key)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


def _partition_loop(
    strategy: GroupingStrategy, neighbors: Sequence[NodeId], api: Optional[SocialNetworkAPI]
) -> Partition:
    """The unmemoised loop behind :meth:`GroupingStrategy.partition`."""
    groups: Dict[GroupKey, List[NodeId]] = {}
    for node in neighbors:
        groups.setdefault(strategy.group_of(node, api), []).append(node)
    return {group: tuple(members) for group, members in groups.items()}


#: The partition memo of pure strategies: (class, memo_key, neighbor tuple)
#: -> [tuple, read-only partition].  The first slot is the last tuple object
#: that passed the exact-id scan (an equal tuple, so the partition holds for
#: it), so ``partition`` skips the scan whenever it is handed that same
#: object again.  Bounded by entry count, oldest out first.
_PARTITIONS = BoundedMemo(PARTITION_MEMO_SIZE, lambda memo_id, entry: 1)


def _md5_group(node: NodeId, num_groups: int) -> int:
    """The paper's GNRW_By_MD5 group: MD5 of ``repr(node)`` modulo ``num_groups``."""
    digest = hashlib.md5(repr(node).encode("utf-8")).hexdigest()
    return int(digest, 16) % num_groups


_memo_md5_group = lru_cache(maxsize=GROUP_MEMO_SIZE)(_md5_group)


def _require_int(name: str, value: Any, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigurationError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise InvalidConfigurationError(f"{name} must be at least {minimum}")
    return int(value)


class HashGrouping(GroupingStrategy):
    """Group by MD5 hash of the node id modulo ``num_groups``.

    This is the paper's GNRW-By-MD5 baseline: group membership carries no
    information about the node, so GNRW degenerates to (approximately) CNRW.
    The grouping is pure, so it is memoised (see the module docstring).
    """

    def __init__(self, num_groups: int = 3) -> None:
        self.num_groups = _require_int("num_groups", num_groups, 1)
        self.memo_key = self.num_groups
        self.name = f"md5-{self.num_groups}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:  # noqa: ARG002
        if type(node) in _EXACT_ID_TYPES:
            return _memo_md5_group(node, self.num_groups)
        return _md5_group(node, self.num_groups)


class AttributeValueGrouping(GroupingStrategy):
    """Group by the exact value of a (categorical) node attribute."""

    def __init__(self, attribute: str, default: GroupKey = "unknown", prefetch: bool = True) -> None:
        self.attribute = attribute
        self.default = default
        self.prefetch = prefetch
        self.name = f"attr-{attribute}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        attrs = _known_attributes(node, api, prefetch=self.prefetch)
        if attrs is None:
            return self.default
        return attrs.get(self.attribute, self.default)


class NumericBinGrouping(GroupingStrategy):
    """Group a numeric attribute into fixed-width bins.

    The paper groups Yelp users by ``reviews_count``; since the attribute is
    numeric, neighbors are binned.  ``bin_width`` controls the stratum width;
    values below ``minimum`` all land in bin 0.
    """

    def __init__(
        self,
        attribute: str,
        bin_width: float = 10.0,
        minimum: float = 0.0,
        default_bin: int = -1,
        prefetch: bool = True,
    ) -> None:
        if bin_width <= 0:
            raise InvalidConfigurationError("bin_width must be positive")
        self.attribute = attribute
        self.bin_width = bin_width
        self.minimum = minimum
        self.default_bin = default_bin
        self.prefetch = prefetch
        self.name = f"bin-{attribute}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        attrs = _known_attributes(node, api, prefetch=self.prefetch)
        if attrs is None or self.attribute not in attrs:
            return self.default_bin
        try:
            value = float(attrs[self.attribute])
        except (TypeError, ValueError):
            return self.default_bin
        return max(0, int((value - self.minimum) // self.bin_width))


class DegreeGrouping(GroupingStrategy):
    """Group neighbors by (binned) degree — the paper's GNRW-By-Degree.

    Degrees grow over orders of magnitude in social graphs, so the bins are
    logarithmic by default (bin = floor(log2(degree))).
    """

    def __init__(self, logarithmic: bool = True, bin_width: int = 10, prefetch: bool = True) -> None:
        self.logarithmic = logarithmic
        self.bin_width = _require_int("bin_width", bin_width, 1)
        self.prefetch = prefetch
        self.name = "degree-log" if logarithmic else f"degree-{bin_width}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        degree = _known_degree(node, api, prefetch=self.prefetch)
        if degree is None:
            return -1
        if self.logarithmic:
            return int(degree).bit_length()
        return degree // self.bin_width


class CallableGrouping(GroupingStrategy):
    """Adapt an arbitrary ``node -> group`` function into a strategy."""

    def __init__(self, function: Callable[[NodeId], GroupKey], name: str = "callable") -> None:
        self.function = function
        self.name = name

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:  # noqa: ARG002
        return self.function(node)


class ExplicitGrouping(GroupingStrategy):
    """Group by an explicit node -> group mapping (missing nodes share a bucket)."""

    def __init__(self, mapping: Dict[NodeId, GroupKey], default: GroupKey = "other") -> None:
        self.mapping = dict(mapping)
        self.default = default
        self.name = "explicit"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:  # noqa: ARG002
        return self.mapping.get(node, self.default)


def _known_attributes(node: NodeId, api: SocialNetworkAPI, prefetch: bool) -> Optional[dict]:
    """Return the node's attributes without spending billable queries.

    Resolution order: the API's free inline profile metadata (how real OSN
    responses expose neighbor profiles), then the local query cache, then — if
    ``prefetch`` is true — a full billed query as a last resort.
    """
    peek = getattr(api, "peek_metadata", None)
    if callable(peek):
        metadata = peek(node)
        if metadata is not None:
            return dict(metadata.get("attributes", {}))
    cache = getattr(api, "cache", None)
    if cache is not None:
        view = cache.peek(node)
        if view is not None:
            return dict(view.attributes)
    if prefetch:
        return dict(api.query(node).attributes)
    return None


def _known_degree(node: NodeId, api: SocialNetworkAPI, prefetch: bool) -> Optional[int]:
    peek = getattr(api, "peek_metadata", None)
    if callable(peek):
        metadata = peek(node)
        if metadata is not None:
            return int(metadata.get("degree", 0))
    cache = getattr(api, "cache", None)
    if cache is not None:
        view = cache.peek(node)
        if view is not None:
            return view.degree
    if prefetch:
        return api.query(node).degree
    return None


_STRATEGY_BUILDERS: Dict[str, Callable[..., GroupingStrategy]] = {
    "md5": HashGrouping,
    "hash": HashGrouping,
    "degree": DegreeGrouping,
    "attribute": AttributeValueGrouping,
    "numeric": NumericBinGrouping,
}


def make_grouping(kind: str, **kwargs) -> GroupingStrategy:
    """Build a grouping strategy by short name.

    Examples:
        >>> make_grouping("md5", num_groups=4).name
        'md5-4'
        >>> make_grouping("numeric", attribute="reviews_count").name
        'bin-reviews_count'
    """
    if kind not in _STRATEGY_BUILDERS:
        raise InvalidConfigurationError(
            f"unknown grouping {kind!r}; available: {', '.join(sorted(_STRATEGY_BUILDERS))}"
        )
    return _STRATEGY_BUILDERS[kind](**kwargs)
