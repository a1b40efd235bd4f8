"""Consistent edge orientations for 2k-regular graphs.

Section 5 of the paper assumes 4-regular trees whose edges carry labels in
``{U, D, L, R}`` such that an edge labeled ``R`` at one endpoint is labeled
``L`` at the other, and ``U`` pairs with ``D``.  Section 7 generalizes to
2k-regular trees with ``k`` *dimensions*: every full-degree node has, for
each dimension ``d``, exactly one incident edge in the positive direction
of ``d`` and one in the negative direction.

We model a consistent orientation as an assignment ``edge -> (dim, low)``
where ``low`` is the endpoint that sees the edge in the *positive*
direction of dimension ``dim`` (think "moving right/up from ``low``").

For 4-regular graphs the classical names map as::

    dim 0, sign +1  ->  R        dim 1, sign +1  ->  U
    dim 0, sign -1  ->  L        dim 1, sign -1  ->  D
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .graph import Graph, Edge, edge_key

__all__ = [
    "Orientation",
    "orient_tree",
    "orient_torus",
    "orient_torus_nd",
    "DIRECTION_NAMES_4",
    "direction_name",
]

#: Human-readable direction names in the 4-regular (k=2) case.
DIRECTION_NAMES_4 = {(0, 1): "R", (0, -1): "L", (1, 1): "U", (1, -1): "D"}


def direction_name(dim: int, sign: int, k: int = 2) -> str:
    """Readable name for a direction; U/D/L/R when ``k == 2``."""
    if k == 2 and (dim, sign) in DIRECTION_NAMES_4:
        return DIRECTION_NAMES_4[(dim, sign)]
    return f"{'+' if sign > 0 else '-'}{dim}"


def _direction(slot: int) -> Tuple[int, int]:
    """The ``(dim, sign)`` that a row slot stands for."""
    return (slot >> 1, -1 if slot & 1 else 1)


class Orientation:
    """A consistent k-dimensional orientation of (a subgraph of) ``graph``.

    Parameters
    ----------
    graph:
        The underlying graph.
    k:
        Number of dimensions; oriented nodes can have degree at most ``2k``.
    labels:
        Mapping from edges ``(a, b)`` to ``(dim, low)`` pairs, where
        ``0 <= dim < k`` and ``low`` is an endpoint of the edge.

    Notes
    -----
    The orientation is one flat list of ``n * 2k`` neighbor ids.  Node
    ``v``'s row is ``[2k*v, 2k*(v+1))``; slot ``2*dim + (sign < 0)`` of it
    holds the neighbor in direction ``(dim, sign)``, or ``-1``.  A
    labeled edge fills mirror slots ``s`` at its low endpoint and
    ``s ^ 1`` at the other, so every query reads the same store and no two
    can disagree.  :meth:`labeled_neighbors` lists a row in slot order:
    ``(0, +1), (0, -1), (1, +1), ...``.
    """

    __slots__ = ("graph", "k", "_rows")

    def __init__(self, graph: Graph, k: int, labels: Dict[Edge, Tuple[int, int]]):
        if k < 1:
            raise ValueError("need at least one dimension")
        width = 2 * k
        rows = [-1] * (graph.n * width)
        for (a, b), (dim, low) in labels.items():
            if not graph.has_edge(a, b):
                raise ValueError(f"labeled edge ({a}, {b}) not in graph")
            if low not in (a, b):
                raise ValueError(f"low endpoint {low} not on edge ({a}, {b})")
            if not 0 <= dim < k:
                raise ValueError(f"dimension {dim} out of range for k={k}")
            high = b if low == a else a
            for node, slot, other in ((low, 2 * dim, high), (high, 2 * dim + 1, low)):
                i = node * width + slot
                if rows[i] >= 0:
                    raise ValueError(
                        f"node {node} has two edges in direction "
                        f"{direction_name(*_direction(slot), k)}"
                    )
                rows[i] = other
        self.graph = graph
        self.k = k
        self._rows = rows

    @classmethod
    def _from_rows(cls, graph: Graph, k: int, rows: List[int]) -> "Orientation":
        """Wrap already-filled rows (layout in the class notes).

        Every filled slot is checked: its neighbor is adjacent in
        ``graph``, and the neighbor's mirror slot names the node back.
        """
        if k < 1:
            raise ValueError("need at least one dimension")
        width = 2 * k
        for v, adjacent in enumerate(graph.adjacency_rows()):
            base = v * width
            for slot in range(width):
                u = rows[base + slot]
                if u >= 0 and (u not in adjacent or rows[u * width + (slot ^ 1)] != v):
                    raise ValueError(
                        f"slot {slot} of node {v} names {u}, which does not name it back"
                    )
        self = cls.__new__(cls)
        self.graph = graph
        self.k = k
        self._rows = rows
        return self

    def _find(self, v: int, u: int) -> int:
        """The slot of ``v``'s row that holds ``u``, or -1."""
        if u < 0 or v < 0:  # -1 marks an empty slot; a negative start would wrap
            return -1
        width = 2 * self.k
        start = v * width
        try:
            return self._rows.index(u, start, start + width) - start
        except ValueError:
            return -1

    def _slot(self, v: int, u: int) -> int:
        """Like :meth:`_find`, but an unlabeled pair raises ``KeyError``."""
        slot = self._find(v, u)
        if slot < 0:
            raise KeyError(edge_key(u, v))
        return slot

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def dim_of(self, u: int, v: int) -> int:
        """Dimension of the edge ``{u, v}``."""
        return self._slot(u, v) >> 1

    def sign_at(self, v: int, u: int) -> int:
        """+1 if the edge ``{v, u}`` leaves ``v`` in the positive direction."""
        return -1 if self._slot(v, u) & 1 else 1

    def direction_at(self, v: int, u: int) -> Tuple[int, int]:
        """``(dim, sign)`` of the edge ``{v, u}`` as seen from ``v``."""
        return _direction(self._slot(v, u))

    def _check_node(self, v: int) -> None:
        """Raise unless ``v`` is a node: its row index must not wrap or overrun."""
        if not 0 <= v < self.graph.n:
            raise ValueError(f"{v} is not a node of the {self.graph.n}-node graph")

    def neighbor(self, v: int, dim: int, sign: int) -> Optional[int]:
        """The neighbor of ``v`` in direction ``(dim, sign)``, or ``None``.

        Raises ``ValueError`` if ``v`` is not a node of the graph.
        """
        self._check_node(v)
        if 0 <= dim < self.k and (sign == 1 or sign == -1):
            u = self._rows[2 * (self.k * v + dim) + (sign < 0)]
            if u >= 0:
                return u
        return None

    def labeled_neighbors(self, v: int) -> Dict[Tuple[int, int], int]:
        """All of ``v``'s neighbors keyed by ``(dim, sign)``, in slot order.

        Raises ``ValueError`` if ``v`` is not a node of the graph.
        """
        self._check_node(v)
        width = 2 * self.k
        row = self._rows[v * width : (v + 1) * width]
        return {_direction(slot): u for slot, u in enumerate(row) if u >= 0}

    def is_labeled(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` carries an orientation label."""
        return self._find(u, v) >= 0

    def edges_of_dimension(self, dim: int) -> List[Edge]:
        """All labeled edges of a given dimension, sorted."""
        if not 0 <= dim < self.k:
            return []
        column = self._rows[2 * dim :: 2 * self.k]  # each node's +dim slot
        return sorted(edge_key(v, u) for v, u in enumerate(column) if u >= 0)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, require_full: bool = True) -> None:
        """Check structural consistency.

        Parameters
        ----------
        require_full:
            If true, every node of degree exactly ``2k`` must have all
            ``2k`` directional slots filled, and every edge must be
            labeled.  Slot-uniqueness is enforced at construction already.

        Raises
        ------
        ValueError
            On the first violation found.
        """
        if not require_full:
            return
        for e in self.graph.edges():
            if self._find(*e) < 0:
                raise ValueError(f"edge {e} is unlabeled")
        width = 2 * self.k
        for v in self.graph.nodes():
            if self.graph.degree(v) == width:
                filled = width - self._rows[v * width : (v + 1) * width].count(-1)
                if filled != width:
                    raise ValueError(f"full-degree node {v} has only {filled} directions")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labeled = (len(self._rows) - self._rows.count(-1)) // 2
        return f"Orientation(k={self.k}, labeled={labeled}/{self.graph.m})"


def orient_tree(graph: Graph, k: int, root: int = 0) -> Orientation:
    """Consistently orient a tree of maximum degree at most ``2k``.

    BFS from ``root``; each node hands its children, in port order, the
    directional slots it has not used yet, in slot order (the edge to its
    parent occupies one slot).  Any tree with maximum degree <= 2k admits
    such an orientation.  The BFS walks each row once, skips the parent
    and takes the next free slot from an iterator, so it builds no list
    per node.

    The same BFS checks the input.  With ``m == n - 1``, the graph is a
    tree iff the BFS from ``root`` reaches exactly ``n`` nodes: on a cycle
    it comes back round and passes ``n``, where it stops.  Every row it
    walks must fit in ``2k`` slots.  Only when the BFS fails do
    :meth:`Graph.is_tree` and :meth:`Graph.max_degree` run, to name the
    cause.

    Raises
    ------
    ValueError
        If the graph is not a tree, its maximum degree exceeds ``2k``, or
        ``root`` is not one of its nodes.
    """
    n = graph.n
    width = 2 * k
    if graph.m != n - 1:
        raise ValueError("orient_tree requires a tree")
    if not 0 <= root < n:
        raise ValueError(f"root {root} is not a node of the {n}-node graph")
    # free[taken + 1]: the slots left once slot ``taken`` (-1: none) is used.
    free = [[s for s in range(width) if s != taken] for taken in range(-1, width)]
    adj = graph.adjacency_rows()
    rows = [-1] * (n * width)
    order, toward = [root], [-1]  # BFS order; each node's slot toward its parent
    for v, taken in zip(order, toward):  # both lists grow as the BFS runs
        row = adj[v]
        if len(row) > width or len(order) > n:
            break
        base = v * width
        up = rows[base + taken] if taken >= 0 else -1
        # Every filled slot names a neighbor, so ``up`` is in ``row`` when
        # ``taken >= 0`` and ``next`` never runs out: a node below the
        # root has at most 2k - 1 children for its 2k - 1 free slots.
        slots = iter(free[taken + 1])
        for u in row:
            if u != up:
                s = next(slots)
                rows[base + s] = u
                rows[u * width + (s ^ 1)] = v
                order.append(u)
                toward.append(s ^ 1)
    else:  # the BFS ran out: a tree iff it reached all n nodes
        if len(order) == n:
            return Orientation._from_rows(graph, k, rows)
    if not graph.is_tree():
        raise ValueError("orient_tree requires a tree")
    raise ValueError(f"maximum degree {graph.max_degree()} exceeds 2k = {width}")


def orient_torus_nd(graph: Graph, dims: "tuple[int, ...]") -> Orientation:
    """The natural orientation of :func:`~repro.graphs.generators.toroidal_grid_nd`.

    Dimension ``axis`` points from each node to its +1 neighbor along
    that axis (row-major coordinates).
    """
    import itertools as _it

    n = 1
    for d in dims:
        n *= d
    if graph.n != n:
        raise ValueError("graph size does not match the dimension product")
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()

    def index(coords):
        return sum(c * s for c, s in zip(coords, strides))

    labels: Dict[Edge, Tuple[int, int]] = {}
    for coords in _it.product(*(range(d) for d in dims)):
        v = index(coords)
        for axis in range(len(dims)):
            forward = list(coords)
            forward[axis] = (forward[axis] + 1) % dims[axis]
            labels[edge_key(v, index(tuple(forward)))] = (axis, v)
    return Orientation(graph, len(dims), labels)


def orient_torus(graph: Graph, rows: int, cols: int) -> Orientation:
    """The natural orientation of :func:`~repro.graphs.generators.toroidal_grid`.

    Dimension 0 runs along columns (R = next column), dimension 1 along
    rows (U = next row).
    """
    if graph.n != rows * cols:
        raise ValueError("graph size does not match rows * cols")
    labels: Dict[Edge, Tuple[int, int]] = {}
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            up = ((r + 1) % rows) * cols + c
            labels[edge_key(v, right)] = (0, v)
            labels[edge_key(v, up)] = (1, v)
    return Orientation(graph, 2, labels)
