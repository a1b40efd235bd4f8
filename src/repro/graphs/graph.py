"""Port-numbered graph substrate for the LOCAL model.

The LOCAL model operates on simple undirected graphs in which every node
numbers its incident edges with *ports* ``0 .. deg(v)-1``.  A message sent
through port ``i`` of node ``v`` arrives at the node at the other end of
``v``'s ``i``-th incident edge; the receiver learns through which of *its*
ports the message arrived.  This module provides :class:`Graph`, a compact
adjacency structure with explicit port numbering, plus the distance /
subgraph / structural queries that the rest of the library builds on.

Nodes are integers ``0 .. n-1``.  The structure is append-only while being
built and effectively immutable afterwards; :meth:`Graph.freeze` makes the
immutability explicit.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Graph", "Edge", "edge_key"]

#: Canonical undirected edge key: endpoints in sorted order.
Edge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Return the canonical (sorted) key for the undirected edge ``{u, v}``."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """A simple undirected graph with port numbering.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are the integers ``0 .. n-1``.
    edges:
        Optional iterable of ``(u, v)`` pairs to add at construction time.
        Ports are assigned in insertion order: the ``i``-th edge added at a
        node occupies port ``i``.

    Notes
    -----
    The class deliberately does not depend on :mod:`networkx` on the hot
    path; conversion helpers (:meth:`to_networkx`, :meth:`from_networkx`)
    bridge to it for generators and verification utilities.

    The adjacency rows are the only edge store: :meth:`has_edge` and the
    duplicate check of :meth:`add_edge` scan the shorter of the two rows,
    which is cheap at the bounded degrees the LOCAL model works with.
    """

    __slots__ = ("_n", "_adj", "_frozen", "_m")

    def __init__(self, n: int, edges: Optional[Iterable[Tuple[int, int]]] = None):
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        self._n = n
        self._adj: List[List[int]] = [[] for _ in range(n)]
        self._m = 0
        self._frozen = False
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}``.

        Raises
        ------
        ValueError
            On self-loops, duplicate edges, out-of-range endpoints, or if
            the graph has been frozen.
        """
        if self._frozen:
            raise ValueError("graph is frozen; no further edges may be added")
        if u == v:
            raise ValueError(f"self-loop at node {u} is not allowed (simple graphs only)")
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self._n}")
        if self._adjacent(u, v):
            raise ValueError(f"duplicate edge ({u}, {v})")
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._m += 1

    def freeze(self) -> "Graph":
        """Mark the graph immutable.  Returns ``self`` for chaining.

        Once frozen, :meth:`add_edge` raises (regression-tested).
        Idempotent.
        """
        self._frozen = True
        return self

    @property
    def is_frozen(self) -> bool:
        """Whether :meth:`freeze` has been called (mutation now raises)."""
        return self._frozen

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[int]]) -> "Graph":
        """Build a graph with *explicit port numbering*.

        ``adjacency[v]`` lists ``v``'s neighbors in port order.  Unlike
        :meth:`add_edge` (which assigns ports by insertion order, and
        therefore cannot express every port numbering — e.g. a fully
        rotation-symmetric cycle), this constructor takes the port
        assignment as given.  The lists must describe a simple
        undirected graph: no self-loops, no duplicates, and ``u`` in
        ``adjacency[v]`` iff ``v`` in ``adjacency[u]``.
        """
        n = len(adjacency)
        g = cls(n)
        for v, neighbors in enumerate(adjacency):
            seen = set()
            for u in neighbors:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at node {v}")
                if u in seen:
                    raise ValueError(f"duplicate neighbor {u} at node {v}")
                seen.add(u)
        for v, neighbors in enumerate(adjacency):
            for u in neighbors:
                if v not in adjacency[u]:
                    raise ValueError(f"asymmetric adjacency: {u} in adj[{v}] only")
        g._adj = [list(neighbors) for neighbors in adjacency]
        g._m = sum(len(neighbors) for neighbors in adjacency) // 2
        return g

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def nodes(self) -> range:
        """All nodes, as a range."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical edge keys in sorted order (deterministic)."""
        return iter([(v, u) for v, row in enumerate(self._adj) for u in sorted(row) if u > v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        return 0 <= u < self._n and 0 <= v < self._n and self._adjacent(u, v)

    def _adjacent(self, u: int, v: int) -> bool:
        """Whether ``v`` is in ``u``'s row, scanning the shorter of the two rows."""
        a, b = self._adj[u], self._adj[v]
        return v in a if len(a) <= len(b) else u in b

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return max(len(a) for a in self._adj)

    def min_degree(self) -> int:
        """Minimum degree over all nodes (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return min(len(a) for a in self._adj)

    def is_regular(self, d: Optional[int] = None) -> bool:
        """Whether every node has the same degree (equal to ``d`` if given)."""
        if self._n == 0:
            return True
        degrees = {len(a) for a in self._adj}
        if len(degrees) != 1:
            return False
        return d is None or degrees == {d}

    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbors of ``v`` in port order (port ``i`` leads to entry ``i``)."""
        return tuple(self._adj[v])

    def adjacency_rows(self) -> Sequence[Sequence[int]]:
        """The adjacency lists themselves, indexed by node, in port order.

        Unlike :meth:`neighbors` this does not copy — it hands out the
        internal lists for hot paths that walk many rows per call (the
        view engines).  Callers must treat the rows as read-only.
        """
        return self._adj

    # ------------------------------------------------------------------
    # Port numbering
    # ------------------------------------------------------------------
    def port_to(self, v: int, u: int) -> int:
        """The port of ``v`` whose edge leads to ``u``.

        Raises
        ------
        ValueError
            If ``u`` is not a neighbor of ``v``.
        """
        try:
            return self._adj[v].index(u)
        except ValueError:
            raise ValueError(f"{u} is not a neighbor of {v}") from None

    def endpoint(self, v: int, port: int) -> int:
        """The node at the other end of port ``port`` of node ``v``."""
        return self._adj[v][port]

    # ------------------------------------------------------------------
    # Distances and balls
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int, cutoff: Optional[int] = None) -> Dict[int, int]:
        """Shortest-path (hop) distances from ``source``.

        The dict lists nodes in BFS order, each node's neighbors in port
        order: the order in which :func:`~repro.local_model.views.gather_view`
        numbers a view's nodes.

        Parameters
        ----------
        source:
            Start node.
        cutoff:
            If given, only nodes at distance at most ``cutoff`` are returned.
        """
        adj = self._adj
        dist = {source: 0}
        # Layer-synchronous BFS: the frontier IS the distance bookkeeping.
        layer = [source]
        d = 0
        while layer and (cutoff is None or d < cutoff):
            d += 1
            next_layer = []
            for v in layer:
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = d
                        next_layer.append(u)
            layer = next_layer
        return dist

    def distance(self, u: int, v: int) -> int:
        """Hop distance between ``u`` and ``v``.

        Raises
        ------
        ValueError
            If ``v`` is unreachable from ``u``.
        """
        dist = self.bfs_distances(u)
        if v not in dist:
            raise ValueError(f"node {v} is unreachable from {u}")
        return dist[v]

    def ball(self, v: int, radius: int) -> List[int]:
        """Nodes at distance at most ``radius`` from ``v``, sorted."""
        return sorted(self.bfs_distances(v, cutoff=radius))

    def sphere(self, v: int, radius: int) -> List[int]:
        """Nodes at distance exactly ``radius`` from ``v``, sorted."""
        dist = self.bfs_distances(v, cutoff=radius)
        return sorted(u for u, d in dist.items() if d == radius)

    def eccentricity(self, v: int) -> int:
        """Maximum distance from ``v`` to any reachable node."""
        return max(self.bfs_distances(v).values())

    def diameter(self) -> int:
        """Maximum eccentricity over all nodes (graph must be connected).

        One BFS from node 0 checks connectivity.  A connected graph with
        ``m == n`` and maximum degree 2 is a cycle, whose diameter is
        ``n // 2``.  Trees use the exact double-BFS sweep (farthest node
        from an arbitrary root is an endpoint of a diameter); general
        graphs fall back to all-pairs BFS.
        """
        if self._n <= 1:
            return 0
        far = self.bfs_distances(0)
        if len(far) != self._n:
            raise ValueError("diameter is undefined for disconnected graphs")
        if self._m == self._n and self.max_degree() == 2:
            return self._n // 2
        if self._m == self._n - 1:
            u = max(far, key=far.__getitem__)
            return max(self.bfs_distances(u).values())
        return max(self.eccentricity(v) for v in self.nodes())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        if self._n == 0:
            return True
        return len(self.bfs_distances(0)) == self._n

    def is_tree(self) -> bool:
        """Whether the graph is a tree (connected and acyclic)."""
        return self.is_connected() and self.m == self._n - 1

    def connected_components(self) -> List[List[int]]:
        """All connected components, each sorted, ordered by smallest node."""
        seen: Set[int] = set()
        components = []
        for v in self.nodes():
            if v in seen:
                continue
            comp = sorted(self.bfs_distances(v))
            seen.update(comp)
            components.append(comp)
        return components

    def girth(self, cutoff: Optional[int] = None) -> Optional[int]:
        """Length of the shortest cycle, or ``None`` if acyclic.

        Parameters
        ----------
        cutoff:
            If given, stop searching once it is established that the girth
            exceeds ``cutoff``, returning ``None``.

        Notes
        -----
        Runs a BFS from every node; a cycle through the BFS root of length
        ``g`` is detected when two BFS branches meet.  O(n * m) worst case,
        which is fine at the bounded-degree scales this library targets.
        """
        best: Optional[int] = None
        for root in self.nodes():
            dist = {root: 0}
            parent = {root: -1}
            frontier = deque([root])
            while frontier:
                v = frontier.popleft()
                dv = dist[v]
                if best is not None and dv >= best // 2 + 1:
                    break
                if cutoff is not None and dv > cutoff // 2 + 1:
                    break
                for u in self._adj[v]:
                    if u == parent[v]:
                        continue
                    if u in dist:
                        cycle_len = dv + dist[u] + 1
                        if best is None or cycle_len < best:
                            best = cycle_len
                    else:
                        dist[u] = dv + 1
                        parent[u] = v
                        frontier.append(u)
        if best is not None and cutoff is not None and best > cutoff:
            return None
        return best

    def induced_subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Subgraph induced by ``nodes``.

        Returns
        -------
        (subgraph, mapping):
            ``subgraph`` has its nodes relabeled ``0 .. k-1`` in sorted order
            of the originals; ``mapping`` sends original node ids to new ids.
            Port order within the subgraph follows the original port order
            restricted to surviving neighbors, so local structure used by
            LOCAL algorithms is preserved.
        """
        node_list = sorted(set(nodes))
        mapping = {v: i for i, v in enumerate(node_list)}
        sub = Graph(len(node_list))
        sub._adj = [[mapping[u] for u in self._adj[v] if u in mapping] for v in node_list]
        sub._m = sum(len(row) for row in sub._adj) // 2
        return sub, mapping

    def is_bipartite(self) -> bool:
        """Whether the graph is 2-colorable."""
        return self.bipartition() is not None

    def bipartition(self) -> Optional[Dict[int, int]]:
        """A proper 2-coloring ``{node: 0|1}``, or ``None`` if not bipartite."""
        color: Dict[int, int] = {}
        for root in self.nodes():
            if root in color:
                continue
            color[root] = 0
            frontier = deque([root])
            while frontier:
                v = frontier.popleft()
                for u in self._adj[v]:
                    if u not in color:
                        color[u] = 1 - color[v]
                        frontier.append(u)
                    elif color[u] == color[v]:
                        return None
        return color

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (nodes and edges only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes())
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a :class:`networkx.Graph` with integer nodes ``0..n-1``."""
        nodes = sorted(g.nodes())
        if nodes and (nodes[0] != 0 or nodes[-1] != len(nodes) - 1):
            raise ValueError("networkx graph must have nodes 0..n-1; relabel first")
        out = cls(len(nodes))
        for u, v in sorted(tuple(edge_key(a, b)) for a, b in g.edges()):
            out.add_edge(u, v)
        return out

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self.edge_set() == other.edge_set()

    def __hash__(self) -> int:
        return hash((self._n, self.edge_set()))

    def edge_set(self) -> FrozenSet[Edge]:
        """The set of canonical edge keys, as a frozenset."""
        return frozenset(self.edges())
