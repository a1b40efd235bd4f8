"""Radius-t neighborhood views.

Section 2 of the paper defines the t-radius neighborhood ``B_t(v)`` of a
node as the subgraph *induced* by all nodes at distance at most ``t``,
together with the restriction of any labelings, and the t-radius
neighborhood of an edge ``{u, v}`` as ``B_{t-1}(u) ∪ B_{t-1}(v)``.

:func:`gather_view` materializes exactly that object.  The view's nodes
are relabeled ``0, 1, 2, ...`` in a *canonical exploration order* (BFS
from the center, expanding neighbors in port order), which is precisely
the coordinate system an anonymous node can construct for itself.  Two
nodes whose neighborhoods are indistinguishable in the model produce
views with identical :meth:`View.key`, so a 0-round-equivalent mapping
``key -> output`` faithfully represents a view algorithm.

One exploration, :func:`_explore`, numbers the nodes of every view
and every signature (:func:`view_signature`, the view's cheap key), of
nodes and of edges alike.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation

__all__ = [
    "View",
    "gather_view",
    "gather_edge_view",
    "view_signature",
    "edge_view_signature",
]


class View:
    """An immutable snapshot of a radius-t ball around a center.

    Attributes
    ----------
    radius:
        The radius this view was gathered at.
    center:
        Local index of the center node (always 0 for node views; for edge
        views the two endpoints are locals 0 and 1).
    distances:
        ``distances[i]`` is the hop distance of local node ``i`` from the
        center (for edge views: from the nearer endpoint).
    degrees:
        True degrees *in the full graph* (a node knows its degree from
        round 0, so degrees of all ball members are part of the view).
    identifiers:
        Identifiers of the ball members, or ``None`` if anonymous.
    inputs:
        Input labels, or ``None`` if the problem has no inputs.
    randomness:
        Random labels (e.g. bit strings) per ball member, or ``None``.
    edges:
        The induced edges as tuples ``(i, j, port_i, port_j, direction)``
        with ``i < j`` in local indices; ``direction`` is the ``(dim,
        sign)`` of the edge as seen from ``i``, or ``None`` if unoriented.
    originals:
        The original graph indices, for debugging and verification only —
        algorithms must not consult this (it would break anonymity).
    """

    __slots__ = (
        "radius",
        "center",
        "distances",
        "degrees",
        "identifiers",
        "inputs",
        "randomness",
        "edges",
        "originals",
    )

    def __init__(
        self,
        radius: int,
        center: int,
        distances: Sequence[int],
        degrees: Sequence[int],
        identifiers: Optional[Sequence[int]],
        inputs: Optional[Sequence[Any]],
        randomness: Optional[Sequence[Any]],
        edges: Sequence[Tuple[int, int, int, int, Optional[Tuple[int, int]]]],
        originals: Sequence[int],
    ):
        self.radius = radius
        self.center = center
        self.distances = tuple(distances)
        self.degrees = tuple(degrees)
        self.identifiers = tuple(identifiers) if identifiers is not None else None
        self.inputs = tuple(inputs) if inputs is not None else None
        self.randomness = tuple(randomness) if randomness is not None else None
        self.edges = tuple(sorted(edges))
        self.originals = tuple(originals)

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes in the ball."""
        return len(self.distances)

    def nodes_at_distance(self, d: int) -> List[int]:
        """Local indices at distance exactly ``d`` from the center."""
        return [i for i, dist in enumerate(self.distances) if dist == d]

    def key(self) -> Tuple:
        """Canonical hashable encoding of everything the node can see."""
        return (
            self.radius,
            self.center,
            self.distances,
            self.degrees,
            self.identifiers,
            self.inputs,
            self.randomness,
            self.edges,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"View(radius={self.radius}, nodes={self.node_count})"


def _explore(
    graph: Graph, seeds: Sequence[int], radius: int
) -> Tuple[List[int], Dict[int, int], List[int]]:
    """Layered port-order BFS from ``seeds`` out to ``radius``.

    Returns the ball's nodes in exploration order, each node's local
    index (its position in that order), and the distances in that
    order.  From one seed the order is :meth:`Graph.bfs_distances`'s.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = graph.n
    adj = graph.adjacency_rows()
    order: List[int] = []
    local: Dict[int, int] = {}
    for s in seeds:
        if not 0 <= s < n:
            raise ValueError(f"{s} is not a node of the {n}-node graph")
        if s not in local:
            local[s] = len(order)
            order.append(s)
    dist = [0] * len(order)
    # Layer-synchronous BFS: the frontier IS the distance bookkeeping.
    layer = order[:]
    for d in range(1, radius + 1):
        next_layer: List[int] = []
        for v in layer:
            for u in adj[v]:
                if u not in local:
                    local[u] = len(order)
                    order.append(u)
                    next_layer.append(u)
        if not next_layer:
            break
        dist += [d] * len(next_layer)
        layer = next_layer
    return order, local, dist


def _edge_seeds(
    graph: Graph, edge: Tuple[int, int], orientation: Optional[Orientation]
) -> Tuple[int, int]:
    """The edge's endpoints in seed order.

    If the edge is oriented, the endpoint that sees it in a *negative*
    direction comes first (both endpoints then get the same canonical
    picture); otherwise the order of ``edge`` stands.
    """
    u, v = edge
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if orientation is not None and orientation.is_labeled(u, v):
        if orientation.sign_at(u, v) > 0:
            return v, u
    return u, v


def _view(
    graph: Graph,
    seeds: Sequence[int],
    radius: int,
    ids: Optional[Sequence[int]],
    inputs: Optional[Sequence[Any]],
    randomness: Optional[Sequence[Any]],
    orientation: Optional[Orientation],
) -> View:
    """The :class:`View` of the ball :func:`_explore` finds around ``seeds``.

    Each ball node's row is walked with its port numbers, and an induced
    edge is recorded once, from the endpoint with the smaller local index.
    """
    order, local, dist = _explore(graph, seeds, radius)
    adj = graph.adjacency_rows()
    get = local.get
    edges = []
    for i, v in enumerate(order):
        for port, u in enumerate(adj[v]):
            j = get(u, -1)
            if j > i:
                direction = None
                if orientation is not None and orientation.is_labeled(v, u):
                    direction = orientation.direction_at(v, u)
                edges.append((i, j, port, adj[u].index(v), direction))
    return View(
        radius=radius,
        center=0,
        distances=dist,
        degrees=[len(adj[v]) for v in order],
        identifiers=None if ids is None else [ids[v] for v in order],
        inputs=None if inputs is None else [inputs[v] for v in order],
        randomness=None if randomness is None else [randomness[v] for v in order],
        edges=edges,
        originals=order,
    )


def _signature(
    graph: Graph,
    seeds: Sequence[int],
    radius: int,
    ids: Optional[Sequence[int]],
    inputs: Optional[Sequence[Any]],
    randomness: Optional[Sequence[Any]],
    orientation: Optional[Orientation],
    tag: str,
) -> Tuple:
    """Canonical ball signature without materializing a :class:`View`.

    The signature encodes, per ball node in exploration order, the full
    port row ``(local neighbor index or -1 if outside the ball)`` plus
    any labels.  Port rows determine the induced edges *with* both port
    numbers, the degrees (row length), and the distances (BFS from the
    seeds is a function of the rows), so two balls have equal signatures
    iff their :meth:`View.key` encodings are equal — the property the
    memoized differential run relies on, proven by the property suite
    (``tests/test_view_signature_properties.py``).

    It avoids the per-neighbor tuple allocations, edge sorting, and
    far-end port lookups that :func:`gather_view` pays for.
    """
    order, local, _ = _explore(graph, seeds, radius)
    adj = graph.adjacency_rows()
    get = local.get
    if orientation is None:
        rows = tuple([tuple([get(u, -1) for u in adj[v]]) for v in order])
    else:
        labeled_rows: List[Tuple] = []
        for v in order:
            row: List[Any] = []
            for u in adj[v]:
                j = get(u, -1)
                if j >= 0 and orientation.is_labeled(v, u):
                    dim, sign = orientation.direction_at(v, u)
                    row.append((j, dim, sign))
                else:
                    row.append(j)
            labeled_rows.append(tuple(row))
        rows = tuple(labeled_rows)
    return (
        tag,
        radius,
        rows,
        None if ids is None else tuple(ids[v] for v in order),
        None if inputs is None else tuple(inputs[v] for v in order),
        None if randomness is None else tuple(randomness[v] for v in order),
    )


def view_signature(
    graph: Graph,
    v: int,
    radius: int,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Orientation] = None,
) -> Tuple:
    """Hashable canonical key of ``B_radius(v)``.

    Two nodes get equal signatures iff their :func:`gather_view` views
    have equal :meth:`View.key` — i.e. iff they are indistinguishable
    in the model.  Cheaper to compute than the view itself.
    """
    return _signature(graph, (v,), radius, ids, inputs, randomness, orientation, "node")


def edge_view_signature(
    graph: Graph,
    edge: Tuple[int, int],
    radius: int,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Orientation] = None,
) -> Tuple:
    """Hashable canonical key of ``B_radius(u) ∪ B_radius(v)``.

    Mirrors :func:`gather_edge_view` exactly, including the canonical
    endpoint swap on oriented edges.
    """
    seeds = _edge_seeds(graph, edge, orientation)
    return _signature(graph, seeds, radius, ids, inputs, randomness, orientation, "edge")


def gather_view(
    graph: Graph,
    v: int,
    radius: int,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Orientation] = None,
) -> View:
    """Materialize ``B_radius(v)`` as a :class:`View` with center ``v``."""
    return _view(graph, (v,), radius, ids, inputs, randomness, orientation)


def gather_edge_view(
    graph: Graph,
    edge: Tuple[int, int],
    radius: int,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Orientation] = None,
) -> View:
    """Materialize ``B_radius(u) ∪ B_radius(v)`` for the edge ``{u, v}``.

    The paper's ``B_t(e)`` equals this with ``radius = t - 1``.  If the
    edge is oriented, the endpoint that sees the edge in a *negative*
    direction becomes local 0 (this gives both endpoints the same
    canonical picture); otherwise endpoint order follows the ``edge``
    argument as given.
    """
    seeds = _edge_seeds(graph, edge, orientation)
    return _view(graph, seeds, radius, ids, inputs, randomness, orientation)
