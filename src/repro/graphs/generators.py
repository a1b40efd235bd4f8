"""Graph generators for the LOCAL-model laboratory.

Every instance family the paper's arguments touch is constructible here:

* cycles and paths (the degree-2 cases; Linial's setting),
* balanced Delta-regular trees (the paper's worst-case instances),
* random Delta-regular graphs with a girth guarantee (the "regular
  high-girth graphs" of the abstract),
* toroidal grids (the consistently oriented 4-regular setting of
  Section 5, without leaves),
* caterpillars and stars (odd irregularity-rich instances for P*),
* the indistinguishable pair (T, T') used in the proof of Lemma 18.

All generators return frozen :class:`~repro.graphs.graph.Graph` objects.

The families a name can select are registered in
:data:`repro.core.registry.GRAPH_FAMILIES` at the definition site; the
``params`` metadata names the keyword parameters each factory takes.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..core.registry import register_graph_family
from .graph import Graph, edge_key

__all__ = [
    "path",
    "cycle",
    "symmetric_cycle",
    "star",
    "complete_graph",
    "caterpillar",
    "balanced_regular_tree",
    "balanced_regular_tree_size",
    "regular_tree_of_depth_at_least",
    "toroidal_grid",
    "toroidal_grid_nd",
    "hypercube",
    "random_regular_graph",
    "random_regular_high_girth",
    "random_tree",
    "lemma18_pair",
]


@register_graph_family("path", params=("n",))
def path(n: int) -> Graph:
    """Path with ``n`` nodes ``0 - 1 - ... - (n-1)``."""
    if n < 1:
        raise ValueError("path needs at least 1 node")
    return Graph(n, ((i, i + 1) for i in range(n - 1))).freeze()


@register_graph_family("cycle", params=("n",))
def cycle(n: int) -> Graph:
    """Cycle with ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges).freeze()


def symmetric_cycle(n: int) -> Graph:
    """A cycle whose port numbering is rotation-invariant.

    Every node's port 0 leads to its predecessor and port 1 to its
    successor, with no exceptional node — so in an *anonymous* run all
    radius-t views are identical, and any deterministic anonymous
    algorithm must output one constant: the executable face of "if all
    nodes start in the same state ... ad infinitum" from the paper's
    introduction.  (The plain :func:`cycle` breaks the symmetry at node
    0, whose wrap-around edge lands on the other port.)
    """
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    adjacency = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    return Graph.from_adjacency(adjacency).freeze()


@register_graph_family("star", params=("leaves",))
def star(leaves: int) -> Graph:
    """Star: node 0 joined to ``leaves`` leaf nodes."""
    if leaves < 1:
        raise ValueError("star needs at least 1 leaf")
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1))).freeze()


@register_graph_family("clique", params=("n",))
def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` nodes."""
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g.freeze()


@register_graph_family("caterpillar", params=("spine", "legs_per_node"))
def caterpillar(spine: int, legs_per_node: int) -> Graph:
    """A path of ``spine`` nodes, each with ``legs_per_node`` pendant leaves."""
    if spine < 1:
        raise ValueError("caterpillar needs a spine of at least 1 node")
    if legs_per_node < 0:
        raise ValueError("legs_per_node must be non-negative")
    n = spine + spine * legs_per_node
    g = Graph(n)
    for i in range(spine - 1):
        g.add_edge(i, i + 1)
    leaf = spine
    for i in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(i, leaf)
            leaf += 1
    return g.freeze()


def balanced_regular_tree_size(delta: int, depth: int) -> int:
    """Number of nodes of the balanced Delta-regular tree of the given depth.

    The root has ``delta`` children; every internal node has ``delta - 1``
    children; leaves sit at distance ``depth`` from the root.
    """
    if delta < 2:
        raise ValueError("delta must be at least 2")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth == 0:
        return 1
    if delta == 2:
        return 2 * depth + 1
    total = 1
    layer = delta
    for _ in range(depth):
        total += layer
        layer *= delta - 1
    return total


@register_graph_family("tree", params=("delta", "depth"))
def balanced_regular_tree(delta: int, depth: int) -> Graph:
    """Balanced Delta-regular tree: every non-leaf has degree ``delta``.

    Node 0 is the root (the tree's center).  Nodes are numbered in BFS
    order, so layer boundaries are contiguous, and the tree of depth
    ``d < depth`` is the prefix ``0 .. size(d) - 1`` of this one: its ball
    ``B_d(0)``, port for port.  Every node at distance less than ``depth``
    from the root has degree exactly ``delta``; nodes at distance
    ``depth`` are leaves.

    Each row is written whole, sized exactly: the parent on port 0, then
    the children in BFS order, the ports :meth:`Graph.add_edge` would
    give them.
    """
    n = balanced_regular_tree_size(delta, depth)
    if depth == 0:
        return Graph._from_rows([[]]).freeze()
    c = delta - 1
    inner = balanced_regular_tree_size(delta, depth - 1)  # nodes with children
    ids = list(range(n))  # one int per node, shared by every row naming it
    # The root's children are 1 .. delta.  Inner node u >= 1 has children
    # u*c + 2 .. u*c + c + 1, so node u >= 1 hangs below max(u - 2, 0) // c.
    rows = [ids[1 : delta + 1]]
    for u in range(1, inner):
        row = ids[u * c + 1 : u * c + delta + 1]  # the children, after slot 0
        row[0] = ids[max(u - 2, 0) // c]
        rows.append(row)
    # A leaf's row is its parent; the parents are the last inner layer.
    per_parent = range(delta if depth == 1 else c)
    rows += [[p] for p in ids[max(inner - 2, 0) // c : inner] for _ in per_parent]
    return Graph._from_rows(rows).freeze()


def regular_tree_of_depth_at_least(delta: int, min_nodes: int) -> Tuple[Graph, int]:
    """Smallest balanced Delta-regular tree with at least ``min_nodes`` nodes.

    Returns ``(tree, depth)``.
    """
    depth = 0
    while balanced_regular_tree_size(delta, depth) < min_nodes:
        depth += 1
    return balanced_regular_tree(delta, depth), depth


@register_graph_family("torus", params=("rows", "cols"))
def toroidal_grid(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` torus: 4-regular, leafless, consistently orientable.

    Both dimensions must be at least 3 so the graph stays simple.  Node
    ``(r, c)`` is ``r * cols + c``.
    """
    if rows < 3 or cols < 3:
        raise ValueError("toroidal grid needs both dimensions >= 3")
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            g.add_edge(v, right)
            g.add_edge(v, down)
    return g.freeze()


def toroidal_grid_nd(dims: Tuple[int, ...]) -> Graph:
    """The d-dimensional torus: regular of degree ``2 * len(dims)``.

    Every dimension must be at least 3 (simplicity).  Node coordinates
    map to indices in row-major order.  With
    :func:`~repro.graphs.orientation.orient_torus_nd` this provides the
    2k-regular leafless oriented substrate for any k — the Section 7
    setting at Delta = 6, 8, ... on finite networks.
    """
    if len(dims) < 1:
        raise ValueError("need at least one dimension")
    if any(d < 3 for d in dims):
        raise ValueError("every dimension must be at least 3")
    n = 1
    for d in dims:
        n *= d
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()

    def index(coords: Tuple[int, ...]) -> int:
        return sum(c * s for c, s in zip(coords, strides))

    import itertools as _it

    g = Graph(n)
    for coords in _it.product(*(range(d) for d in dims)):
        v = index(coords)
        for axis in range(len(dims)):
            forward = list(coords)
            forward[axis] = (forward[axis] + 1) % dims[axis]
            g.add_edge(v, index(tuple(forward)))
    return g.freeze()


@register_graph_family("hypercube", params=("dim",))
def hypercube(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube (regular of degree ``dim``)."""
    if dim < 1:
        raise ValueError("hypercube dimension must be >= 1")
    n = 1 << dim
    g = Graph(n)
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if v < u:
                g.add_edge(v, u)
    return g.freeze()


@register_graph_family("random-regular", params=("n", "d"))
def random_regular_graph(
    n: int, d: int, rng: Optional[random.Random] = None, max_tries: int = 5000
) -> Graph:
    """A uniform-ish random simple ``d``-regular graph via the pairing model.

    Retries the configuration-model pairing until the result is simple.

    Raises
    ------
    ValueError
        If ``n * d`` is odd or ``d >= n``, or no simple pairing is found
        within ``max_tries`` attempts.
    """
    if d < 0 or n < 1:
        raise ValueError("need n >= 1 and d >= 0")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise ValueError(f"degree {d} impossible on {n} nodes")
    rng = rng or random.Random(0)
    stubs_template = [v for v in range(n) for _ in range(d)]
    for _ in range(max_tries):
        stubs = stubs_template[:]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or edge_key(u, v) in edges:
                ok = False
                break
            edges.add(edge_key(u, v))
        if ok:
            return Graph(n, sorted(edges)).freeze()
    raise ValueError(f"no simple {d}-regular pairing found in {max_tries} tries")


def random_regular_high_girth(
    n: int,
    d: int,
    girth_at_least: int,
    rng: Optional[random.Random] = None,
    max_tries: int = 500,
) -> Graph:
    """A random simple ``d``-regular graph with girth at least ``girth_at_least``.

    Rejection-samples :func:`random_regular_graph`.  High girth gets
    exponentially rare as ``girth_at_least`` grows, so keep it modest
    (girth 5-6 at a few hundred nodes is fast).
    """
    rng = rng or random.Random(0)
    for attempt in range(max_tries):
        g = random_regular_graph(n, d, rng=random.Random(rng.getrandbits(64)))
        girth = g.girth(cutoff=girth_at_least - 1)
        if girth is None:
            return g
    raise ValueError(
        f"no {d}-regular graph on {n} nodes with girth >= {girth_at_least} "
        f"found in {max_tries} tries"
    )


def random_tree(n: int, rng: Optional[random.Random] = None) -> Graph:
    """A uniformly random labeled tree (via a random Prüfer sequence)."""
    if n < 1:
        raise ValueError("tree needs at least 1 node")
    if n == 1:
        return Graph(1).freeze()
    if n == 2:
        return Graph(2, [(0, 1)]).freeze()
    rng = rng or random.Random(0)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    g = Graph(n)
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, v)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    g.add_edge(u, w)
    return g.freeze()


def lemma18_pair(delta: int, depth: int) -> Tuple[Graph, Graph, int]:
    """The indistinguishable tree pair (T, T') from the proof of Lemma 18.

    ``T`` is the balanced Delta-regular tree of the given depth with center
    ``v = 0``.  ``T'`` agrees with ``T`` on the ball of radius ``depth - 1``
    around the center, but for each node ``u`` at distance ``depth - 1``
    from the center, one of its leaf children is detached and re-attached
    as a child of one of ``u``'s remaining leaf children.  Hence in ``T'``
    every node at distance ``depth - 1`` has degree ``delta - 1``, while
    the two graphs are identical within radius ``depth - 2`` of the center
    (so any algorithm running in fewer than ``depth - 1`` rounds behaves
    identically at the center on both inputs).

    Returns ``(T, T_prime, center)`` with ``center == 0``; ``|V(T)| ==
    |V(T')|``.
    """
    if delta < 3:
        raise ValueError("Lemma 18 needs delta > 2")
    if depth < 2:
        raise ValueError("the construction needs depth >= 2")
    t = balanced_regular_tree(delta, depth)

    # Rebuild T' edge by edge. Identify each depth-(depth-1) node, pick its
    # first leaf child, and re-home that leaf under the second leaf child.
    dist = t.bfs_distances(0)
    edges = set(t.edges())
    for u in t.nodes():
        if dist[u] != depth - 1:
            continue
        leaf_children = [w for w in t.neighbors(u) if dist[w] == depth]
        if len(leaf_children) < 2:
            raise ValueError("construction needs at least two leaf children per node")
        moved, new_parent = leaf_children[0], leaf_children[1]
        edges.remove(edge_key(u, moved))
        edges.add(edge_key(new_parent, moved))
    t_prime = Graph(t.n, sorted(edges)).freeze()
    return t, t_prime, 0
