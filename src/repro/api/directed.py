"""Casting directed social networks into the undirected access model.

Twitter-style networks expose *directed* neighbor lists (followers and
followees).  Section 2.1 and 6.1 of the paper describe how a random walk over
the undirected "mutual" graph can still be executed against such an API: take
the union (or intersection) of the two lists and, for the mutual-edge rule,
verify the inverse direction before committing to an edge.  This module
implements that adapter, including the extra query cost the verification step
incurs, so experiments can account for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..exceptions import NodeNotFoundError
from ..types import NodeId
from .budget import QueryBudget
from .interface import NodeView, SocialNetworkAPI


class DirectedGraphStore:
    """Minimal in-memory directed graph used as the backend of the adapter."""

    def __init__(self) -> None:
        self._successors: Dict[NodeId, Set[NodeId]] = {}
        self._predecessors: Dict[NodeId, Set[NodeId]] = {}
        self._attributes: Dict[NodeId, Dict[str, Any]] = {}

    def add_node(self, node: NodeId, /, **attributes: Any) -> None:
        self._successors.setdefault(node, set())
        self._predecessors.setdefault(node, set())
        self._attributes.setdefault(node, {})
        if attributes:
            self._attributes[node].update(attributes)

    def add_edge(self, source: NodeId, target: NodeId) -> None:
        if source == target:
            raise ValueError("self-loops are not allowed")
        self.add_node(source)
        self.add_node(target)
        self._successors[source].add(target)
        self._predecessors[target].add(source)

    def has_node(self, node: NodeId) -> bool:
        return node in self._successors

    def successors(self, node: NodeId) -> List[NodeId]:
        if node not in self._successors:
            raise NodeNotFoundError(node)
        return list(self._successors[node])

    def predecessors(self, node: NodeId) -> List[NodeId]:
        if node not in self._predecessors:
            raise NodeNotFoundError(node)
        return list(self._predecessors[node])

    def attributes(self, node: NodeId) -> Dict[str, Any]:
        if node not in self._attributes:
            raise NodeNotFoundError(node)
        return dict(self._attributes[node])

    def nodes(self) -> List[NodeId]:
        return list(self._successors)

    def number_of_edges(self) -> int:
        return sum(len(targets) for targets in self._successors.values())


class DirectedToUndirectedAPI(SocialNetworkAPI):
    """Expose a directed store through the undirected access model.

    Args:
        store: The directed graph backend.
        mutual_only: ``True`` keeps only mutual edges (both directions exist),
            the rule used for the paper's experiment datasets; ``False`` keeps
            an edge when either direction exists.
        queries_per_node: Billable API calls needed to fetch one node's full
            neighborhood.  Real directed APIs require separate calls for the
            follower and followee lists, so the default is 2.
        budget: Optional unique-query budget (measured in billable calls).
    """

    def __init__(
        self,
        store: DirectedGraphStore,
        mutual_only: bool = True,
        queries_per_node: int = 2,
        budget: Optional[QueryBudget] = None,
    ) -> None:
        if queries_per_node < 1:
            raise ValueError("queries_per_node must be at least 1")
        self._store = store
        self._mutual_only = mutual_only
        self._queries_per_node = queries_per_node
        self.budget = budget if budget is not None else QueryBudget(None)
        self._cache: Dict[NodeId, NodeView] = {}
        self._unique_queries = 0
        self._total_queries = 0

    def query(self, node: NodeId) -> NodeView:
        self._total_queries += 1
        if node in self._cache:
            return self._cache[node]
        if not self._store.has_node(node):
            raise NodeNotFoundError(node)
        self.budget.spend(self._queries_per_node)
        successors = set(self._store.successors(node))
        predecessors = set(self._store.predecessors(node))
        if self._mutual_only:
            undirected = successors & predecessors
        else:
            undirected = successors | predecessors
        view = NodeView(
            node=node,
            neighbors=tuple(sorted(undirected, key=repr)),
            attributes=self._store.attributes(node),
        )
        self._cache[node] = view
        self._unique_queries += self._queries_per_node
        return view

    @property
    def unique_queries(self) -> int:
        return self._unique_queries

    @property
    def total_queries(self) -> int:
        return self._total_queries

    def reset_counters(self) -> None:
        self._unique_queries = 0
        self._total_queries = 0
        self._cache.clear()
        self.budget.reset()

    def undirected_edge_exists(self, u: NodeId, v: NodeId) -> bool:
        """Check whether the undirected edge {u, v} exists under the cast rule."""
        return v in self.query(u).neighbors


def store_from_edges(
    edges,
    attributes: Optional[Dict[NodeId, Dict[str, Any]]] = None,
) -> DirectedGraphStore:
    """Build a :class:`DirectedGraphStore` from an iterable of directed edges."""
    store = DirectedGraphStore()
    for source, target in edges:
        if source == target:
            continue
        store.add_edge(source, target)
    if attributes:
        for node, attrs in attributes.items():
            store.add_node(node, **attrs)
    return store


def mutual_undirected_edges(store: DirectedGraphStore) -> List[Tuple[NodeId, NodeId]]:
    """Return the undirected mutual-edge set of a directed store."""
    edges: List[Tuple[NodeId, NodeId]] = []
    seen: Set[frozenset] = set()
    for node in store.nodes():
        successors = set(store.successors(node))
        predecessors = set(store.predecessors(node))
        for other in successors & predecessors:
            key = frozenset((node, other))
            if key not in seen:
                seen.add(key)
                edges.append((node, other))
    return edges
