"""Implicit (closed-form) graph families for the n >= 10^6 regime.

The paper's hardness claims are asymptotic, but a materialized
:class:`~repro.graphs.graph.Graph` holds one Python list per node, which
caps experiments near n ~ 5000.  For the symmetric families the paper
actually argues about — cycles, paths, toroidal grids, and balanced
Delta-regular trees — every radius-t ball has a *closed form*: the
port-ordered neighbor row of any node is computable in O(degree) from
the node index alone, so the full graph never needs to exist.

:class:`ImplicitGraph` is the seam: a symbolic family handle carrying
``n``, degree/dimension parameters, a closed-form ``neighbors(v)``
(byte-for-byte the port order the registered generator would produce),
and a closed-form *strata* decomposition grouping nodes whose anonymous
balls are guaranteed identical.  Everything above the seam is duck-typed
against :class:`~repro.graphs.graph.Graph`, so the reference per-entity
paths (``gather_view``, ``view_signature``) run on the handle unchanged;
the batched paths synthesize CSR *windows* on demand through
:meth:`CSRGraph.synthesize_window
<repro.graphs.csr.CSRGraph.synthesize_window>` (see
:class:`~repro.local_model.batch_views.ImplicitBallExpander`).

Memory model: operations whose output or working set is O(n) — full CSR
synthesis, edge enumeration, full materialization, per-node strata —
are guarded by :attr:`ImplicitGraph.materialize_limit` and raise
:class:`ImplicitMaterializeError` beyond it.  Ball windows and class
multiplicity counts stay O(distinct classes), which is O(1) per radius
on cycles/paths/tori and O(depth) on balanced trees.  See
``docs/IMPLICIT.md`` for the family catalog and the bit-identity
contract.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ImplicitGraph",
    "ImplicitMaterializeError",
    "ImplicitCycle",
    "ImplicitPath",
    "ImplicitTorus",
    "ImplicitTree",
    "implicit_tree_of_size_at_least",
]


class ImplicitMaterializeError(RuntimeError):
    """An operation on an implicit graph would materialize O(n) state.

    Raised by the anti-materialization tripwire
    (:meth:`ImplicitGraph._guard`): any code path that silently turns a
    10^6-node implicit family back into per-node Python state fails
    loudly instead of blowing the memory budget (the CI smoke step runs
    the implicit experiments under an RSS ceiling for exactly this).
    """


class _ImplicitRows:
    """Lazy port-ordered adjacency rows over an implicit graph.

    Duck-types the sequence contract of :meth:`Graph.adjacency_rows
    <repro.graphs.graph.Graph.adjacency_rows>`: ``len``, integer
    indexing, and iteration (via the old sequence protocol — indexing
    raises :class:`IndexError` past ``n``, which also terminates
    ``iter``).  Rows are computed on access, so holding this object
    costs O(1).
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "ImplicitGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return self._graph.n

    def __getitem__(self, v: int) -> Tuple[int, ...]:
        if not 0 <= v < self._graph.n:
            raise IndexError(f"node {v} out of range for n={self._graph.n}")
        return self._graph.neighbors(v)


class ImplicitGraph:
    """A graph family represented symbolically (never fully in memory).

    Subclasses provide the closed forms: :meth:`_row` (the port-ordered
    neighbor tuple of one node, matching the registered generator
    byte-for-byte), the counting properties ``n`` / ``m`` /
    ``max_degree`` / ``min_degree``, :meth:`strata` (groups of nodes
    with provably identical anonymous balls), and :meth:`_materialize`
    (the generator twin, for the guarded small-n parity paths).

    The public query surface duck-types
    :class:`~repro.graphs.graph.Graph` — ``nodes`` / ``neighbors`` /
    ``degree`` / ``port_to`` / ``endpoint`` / ``has_edge`` /
    ``adjacency_rows`` / ``bfs_distances`` — so the reference view
    gatherers and signatures run on the handle unchanged.  The handle is
    always frozen (there is nothing to mutate) and pickles as its
    constructor arguments, so it crosses a process boundary for
    pennies.
    """

    #: Class marker the layout resolver and the engines key off.
    is_implicit = True

    #: Registry family name of the materialized twin (set per subclass).
    family = "implicit"

    #: Node count above which O(n) operations (full CSR synthesis,
    #: ``edges()``, ``materialized()``, per-node strata) raise
    #: :class:`ImplicitMaterializeError`.  Large enough for every
    #: parity/conformance overlap run, small enough that the guard
    #: trips long before a 10^6-node experiment could swamp memory.
    materialize_limit = 200_000

    def __init__(self) -> None:
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}
        self._csr: Optional[Any] = None
        self._materialized: Optional[Any] = None
        self._expander: Optional[Any] = None

    # -- closed forms every family must provide -------------------------
    def _row(self, v: int) -> Tuple[int, ...]:
        """Port-ordered neighbors of ``v`` (closed form; no bounds check)."""
        raise NotImplementedError

    def _ctor_args(self) -> Tuple[Any, ...]:
        """Constructor arguments, for pickling and ``repr``."""
        raise NotImplementedError

    def _materialize(self) -> Any:
        """Build the materialized generator twin (unguarded; see
        :meth:`materialized`)."""
        raise NotImplementedError

    @property
    def n(self) -> int:
        """Number of nodes (closed form)."""
        raise NotImplementedError

    @property
    def m(self) -> int:
        """Number of undirected edges (closed form)."""
        raise NotImplementedError

    def max_degree(self) -> int:
        """Maximum degree over all nodes (closed form)."""
        raise NotImplementedError

    def min_degree(self) -> int:
        """Minimum degree over all nodes (closed form)."""
        raise NotImplementedError

    # -- guard ----------------------------------------------------------
    @property
    def can_materialize(self) -> bool:
        """Whether O(n) operations are allowed at this size."""
        return self.n <= self.materialize_limit

    def _guard(self, operation: str) -> None:
        """Raise unless ``operation`` (an O(n) path) fits the limit."""
        if not self.can_materialize:
            raise ImplicitMaterializeError(
                f"{operation} on implicit {self.family!r} with n={self.n} "
                f"would materialize O(n) state "
                f"(materialize_limit={self.materialize_limit}); use the "
                f"window/strata paths (class_counts, ball windows) instead "
                f"— see docs/IMPLICIT.md"
            )

    # -- Graph-compatible queries ---------------------------------------
    @property
    def is_frozen(self) -> bool:
        """Always ``True``: an implicit family has nothing to mutate."""
        return True

    def freeze(self) -> "ImplicitGraph":
        """No-op for API compatibility; returns ``self`` (idempotent)."""
        return self

    def nodes(self) -> range:
        """All nodes, as a range."""
        return range(self.n)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbors of ``v`` in port order (closed form, memoized).

        The memo only ever holds rows actually queried — ball windows at
        large n touch O(window) rows, so the cache stays tiny.
        """
        row = self._neighbor_cache.get(v)
        if row is None:
            if not 0 <= v < self.n:
                raise IndexError(f"node {v} out of range for n={self.n}")
            row = self._row(v)
            self._neighbor_cache[v] = row
        return row

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return len(self.neighbors(v))

    def is_regular(self, d: Optional[int] = None) -> bool:
        """Whether every node has the same degree (equal to ``d`` if given)."""
        if self.n == 0:
            return True
        if self.max_degree() != self.min_degree():
            return False
        return d is None or self.max_degree() == d

    def adjacency_rows(self) -> _ImplicitRows:
        """Lazy port-ordered rows (O(1) to hold; rows computed on access)."""
        return _ImplicitRows(self)

    def port_to(self, v: int, u: int) -> int:
        """The port of ``v`` whose edge leads to ``u``.

        Raises
        ------
        ValueError
            If ``u`` is not a neighbor of ``v`` (same contract and
            message as :meth:`Graph.port_to
            <repro.graphs.graph.Graph.port_to>`).
        """
        try:
            return self.neighbors(v).index(u)
        except ValueError:
            raise ValueError(f"{u} is not a neighbor of {v}") from None

    def endpoint(self, v: int, port: int) -> int:
        """The node at the other end of port ``port`` of node ``v``."""
        return self.neighbors(v)[port]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return u in self.neighbors(v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Canonical edge keys in sorted order (guarded: O(m) output)."""
        self._guard("edges() enumeration")
        for v in range(self.n):
            for u in sorted(u for u in self.neighbors(v) if u > v):
                yield (v, u)

    def bfs_distances(
        self, source: int, cutoff: Optional[int] = None
    ) -> Dict[int, int]:
        """Hop distances from ``source`` (guarded when ``cutoff=None``).

        With a cutoff the cost is O(ball volume); without one the walk
        would touch every node, so it trips the materialization guard at
        large n.
        """
        if cutoff is None:
            self._guard("bfs_distances() without a cutoff")
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and (cutoff is None or d < cutoff):
            nxt: List[int] = []
            for v in frontier:
                for u in self.neighbors(v):
                    if u not in dist:
                        dist[u] = d + 1
                        nxt.append(u)
            frontier = nxt
            d += 1
        return dist

    # -- closed-form labelings ------------------------------------------
    def sequential_id(self, v: int) -> int:
        """The closed-form twin of ``experiments.sequential_ids``: node
        ``v`` carries identifier ``v + 1``."""
        return v + 1

    # -- windows and strata (the O(classes) machinery) ------------------
    def window(
        self, sources: Sequence[int], radius: int
    ) -> Tuple[List[int], List[int]]:
        """Ball window of ``sources``: ``(core, boundary)`` node lists.

        ``core`` holds every node within distance ``radius`` of some
        source (in multi-source BFS discovery order, sources first in
        given order); ``boundary`` the ring at distance exactly
        ``radius + 1``.  Core rows reference only core+boundary nodes,
        which is precisely the invariant :meth:`CSRGraph.synthesize_window
        <repro.graphs.csr.CSRGraph.synthesize_window>` needs to hand the
        batched expander a self-contained sub-CSR.  Cost is O(window
        volume), independent of ``n``.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        dist: Dict[int, int] = {}
        order: List[int] = []
        frontier: List[int] = []
        for v in sources:
            if v not in dist:
                if not 0 <= v < self.n:
                    raise IndexError(f"node {v} out of range for n={self.n}")
                dist[v] = 0
                order.append(v)
                frontier.append(v)
        for d in range(radius + 1):
            nxt: List[int] = []
            for v in frontier:
                for u in self.neighbors(v):
                    if u not in dist:
                        dist[u] = d + 1
                        order.append(u)
                        nxt.append(u)
            frontier = nxt
        core = [v for v in order if dist[v] <= radius]
        boundary = [v for v in order if dist[v] == radius + 1]
        return core, boundary

    def strata(self, radius: int) -> List[Tuple[int, int]]:
        """Closed-form strata sound at ``radius``: ``[(rep, count), ...]``.

        A stratum is a set of nodes whose *anonymous* radius-``radius``
        balls are guaranteed byte-identical (each stratum lies inside
        one view-equivalence class; distinct strata may merge).  ``rep``
        is the stratum's minimum member and entries are sorted by
        ``rep``, so that expanding one rep per stratum reproduces the
        exact first-occurrence class order — and representatives — of
        the materialized full scan.  Counts sum to ``n``.

        The base implementation is the always-sound all-singletons
        decomposition, which is O(n) and therefore guarded; symmetric
        families override with O(1)/O(depth) closed forms.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self._singleton_strata()

    def _singleton_strata(self) -> List[Tuple[int, int]]:
        """One stratum per node (trivially sound; guarded: O(n))."""
        self._guard("per-node (singleton) strata")
        return [(v, 1) for v in range(self.n)]

    # -- guarded materialization ----------------------------------------
    def csr(self) -> Any:
        """Synthesize (and cache) the full CSR layout — guarded.

        The arrays are byte-identical to ``materialized().csr()``'s
        (proven by the parity suite), so every CSR consumer works
        on the handle unchanged at overlap n.
        """
        if self._csr is None:
            self._guard("full CSR synthesis")
            from .csr import CSRGraph

            self._csr = CSRGraph.synthesize(self._row, self.n)
        return self._csr

    def materialized(self) -> Any:
        """Build (and cache) the registered generator twin — guarded."""
        if self._materialized is None:
            self._guard("full materialization")
            self._materialized = self._materialize()
        return self._materialized

    # -- pickling / repr -------------------------------------------------
    def __reduce__(self):
        """Pickle as constructor arguments (caches never travel)."""
        return (type(self), self._ctor_args())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(repr(a) for a in self._ctor_args())
        return f"{type(self).__name__}({args})"


class ImplicitCycle(ImplicitGraph):
    """The registered ``cycle`` family, symbolically.

    Port rows match :func:`~repro.graphs.generators.cycle` exactly: the
    edge loop inserts ``(i, i+1 mod n)`` in order, so node 0 is the one
    exceptional row ``(1, n-1)`` (its wrap-around edge lands on port 1),
    interior nodes are ``(v-1, v+1)``, and node ``n-1`` is ``(n-2, 0)``.
    """

    family = "cycle"

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("cycle needs at least 3 nodes")
        super().__init__()
        self._n = n

    def _ctor_args(self) -> Tuple[Any, ...]:
        return (self._n,)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges (= ``n`` on a cycle)."""
        return self._n

    def max_degree(self) -> int:
        """Always 2."""
        return 2

    def min_degree(self) -> int:
        """Always 2."""
        return 2

    def _row(self, v: int) -> Tuple[int, ...]:
        n = self._n
        if v == 0:
            return (1, n - 1)
        if v == n - 1:
            return (n - 2, 0)
        return (v - 1, v + 1)

    def strata(self, radius: int) -> List[Tuple[int, int]]:
        """O(1) strata: only balls containing node 0's exceptional row
        can differ, so nodes ``radius+1 .. n-radius-1`` share one
        translation-invariant stratum and the ``2*radius + 1`` nodes
        near the seam are singletons."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        n = self._n
        if n < 2 * radius + 3:
            return self._singleton_strata()
        out: List[Tuple[int, int]] = [(v, 1) for v in range(radius + 1)]
        out.append((radius + 1, n - 2 * radius - 1))
        out.extend((v, 1) for v in range(n - radius, n))
        return out

    def _materialize(self) -> Any:
        from .generators import cycle

        return cycle(self._n)


class ImplicitPath(ImplicitGraph):
    """The registered ``path`` family, symbolically.

    Rows match :func:`~repro.graphs.generators.path`: endpoints have one
    neighbor, interior nodes are ``(v-1, v+1)``.
    """

    family = "path"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("path needs at least 1 node")
        super().__init__()
        self._n = n

    def _ctor_args(self) -> Tuple[Any, ...]:
        return (self._n,)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges (= ``n - 1`` on a path)."""
        return self._n - 1

    def max_degree(self) -> int:
        """2 for paths of 3+ nodes, else ``n - 1``."""
        return min(2, self._n - 1)

    def min_degree(self) -> int:
        """1 except for the single-node path."""
        return 0 if self._n == 1 else 1

    def _row(self, v: int) -> Tuple[int, ...]:
        n = self._n
        if n == 1:
            return ()
        if v == 0:
            return (1,)
        if v == n - 1:
            return (n - 2,)
        return (v - 1, v + 1)

    def strata(self, radius: int) -> List[Tuple[int, int]]:
        """O(1) strata: balls not touching either endpoint are
        translation-equivalent; the ``2*(radius+1)`` end-zone nodes are
        singletons."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        n = self._n
        if n < 2 * radius + 4:
            return self._singleton_strata()
        out: List[Tuple[int, int]] = [(v, 1) for v in range(radius + 1)]
        out.append((radius + 1, n - 2 * radius - 2))
        out.extend((v, 1) for v in range(n - radius - 1, n))
        return out

    def _materialize(self) -> Any:
        from .generators import path

        return path(self._n)


class ImplicitTorus(ImplicitGraph):
    """The registered ``torus`` family, symbolically.

    :func:`~repro.graphs.generators.toroidal_grid` visits nodes in
    row-major order, inserting each node's *right* then *down* edge; a
    node's port order is therefore the chronological order of the four
    insertion events that touch it.  For node ``(r, c)`` those events
    are ``up`` (the down-insertion of ``((r-1) mod rows, c)``), ``left``
    (the right-insertion of ``(r, (c-1) mod cols)``), and its own
    ``right`` and ``down`` insertions — interior nodes read
    ``(up, left, right, down)``, while row-0 / column-0 nodes see their
    wrap-around event land late and their port order rotate.  Sorting
    the four event keys reproduces every case exactly.
    """

    family = "torus"

    def __init__(self, rows: int, cols: int):
        if rows < 3 or cols < 3:
            raise ValueError("toroidal grid needs both dimensions >= 3")
        super().__init__()
        self.rows = rows
        self.cols = cols

    def _ctor_args(self) -> Tuple[Any, ...]:
        return (self.rows, self.cols)

    @property
    def n(self) -> int:
        """Number of nodes (``rows * cols``)."""
        return self.rows * self.cols

    @property
    def m(self) -> int:
        """Number of edges (``2 * n``: the torus is 4-regular)."""
        return 2 * self.rows * self.cols

    def max_degree(self) -> int:
        """Always 4."""
        return 4

    def min_degree(self) -> int:
        """Always 4."""
        return 4

    def _row(self, v: int) -> Tuple[int, ...]:
        rows, cols = self.rows, self.cols
        r, c = divmod(v, cols)
        up = ((r - 1) % rows) * cols + c
        down = ((r + 1) % rows) * cols + c
        left = r * cols + (c - 1) % cols
        right = r * cols + (c + 1) % cols
        # Event keys: 2 * (insertion-loop position of the inserting
        # node) + sub-event (0 = its right-edge, 1 = its down-edge).
        events = sorted(
            (
                (2 * up + 1, up),  # down-insertion of the node above
                (2 * left, left),  # right-insertion of the node left
                (2 * v, right),  # own right-insertion
                (2 * v + 1, down),  # own down-insertion
            )
        )
        return tuple(u for _, u in events)

    def _axis_strata(
        self, size: int, radius: int
    ) -> Optional[List[Tuple[int, int]]]:
        """Coordinate classes along one axis, or ``None`` if the axis is
        too short for a generic (translation-invariant) band.

        Only index-0 lines carry rotated port orders, so coordinates
        whose radius-band avoids 0 are translation-equivalent.
        """
        if size < 2 * radius + 3:
            return None
        out: List[Tuple[int, int]] = [(i, 1) for i in range(radius + 1)]
        out.append((radius + 1, size - 2 * radius - 1))
        out.extend((i, 1) for i in range(size - radius, size))
        return out

    def strata(self, radius: int) -> List[Tuple[int, int]]:
        """O(1) strata: the product of the two axis decompositions —
        ``(2*radius + 2)^2`` strata regardless of ``n``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        rows_s = self._axis_strata(self.rows, radius)
        cols_s = self._axis_strata(self.cols, radius)
        if rows_s is None or cols_s is None:
            return self._singleton_strata()
        out = [
            (r_rep * self.cols + c_rep, r_cnt * c_cnt)
            for r_rep, r_cnt in rows_s
            for c_rep, c_cnt in cols_s
        ]
        out.sort()
        return out

    def _materialize(self) -> Any:
        from .generators import toroidal_grid

        return toroidal_grid(self.rows, self.cols)


class ImplicitTree(ImplicitGraph):
    """The registered ``tree`` family (balanced Delta-regular tree),
    symbolically.

    :func:`~repro.graphs.generators.balanced_regular_tree` numbers nodes
    in BFS order with contiguous layers, and a node's parent edge is
    inserted (by the parent) before its own child edges — so rows are
    pure layer arithmetic: the root reads ``(1, .., delta)``, an
    internal node at layer ``l`` with within-layer index ``j`` reads
    ``(parent, first_child, .., first_child + delta - 2)``, and leaves
    read ``(parent,)``.
    """

    family = "tree"

    def __init__(self, delta: int, depth: int):
        if delta < 2:
            raise ValueError("delta must be at least 2")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        super().__init__()
        self.delta = delta
        self.depth = depth
        # layer_start[l] = first node id of layer l; one extra entry so
        # layer_start[depth + 1] == n.
        starts = [0, 1]
        size = 1 if depth >= 1 else 0
        layer = delta
        for _ in range(depth):
            size += layer
            starts.append(starts[-1] + layer)
            layer *= delta - 1
        self._layer_start = starts[: depth + 2]
        self._n = self._layer_start[depth + 1] if depth >= 1 else 1

    def _ctor_args(self) -> Tuple[Any, ...]:
        return (self.delta, self.depth)

    @property
    def n(self) -> int:
        """Number of nodes (``balanced_regular_tree_size(delta, depth)``)."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges (``n - 1``: it is a tree)."""
        return self._n - 1

    def max_degree(self) -> int:
        """``delta`` for depth >= 1; 0 for the single-node tree."""
        return 0 if self.depth == 0 else self.delta

    def min_degree(self) -> int:
        """1 (the leaves) for depth >= 1; 0 for the single-node tree."""
        return 0 if self.depth == 0 else 1

    def layer_of(self, v: int) -> int:
        """The BFS layer (= distance from the root) of node ``v``."""
        return bisect_right(self._layer_start, v) - 1

    def layer_bounds(self, layer: int) -> Tuple[int, int]:
        """Half-open node-id range ``[start, end)`` of ``layer``."""
        return self._layer_start[layer], self._layer_start[layer + 1]

    def _row(self, v: int) -> Tuple[int, ...]:
        delta, depth = self.delta, self.depth
        if depth == 0:
            return ()
        if v == 0:
            return tuple(range(1, delta + 1))
        layer = self.layer_of(v)
        j = v - self._layer_start[layer]
        parent = (
            0 if layer == 1
            else self._layer_start[layer - 1] + j // (delta - 1)
        )
        if layer == depth:
            return (parent,)
        first_child = self._layer_start[layer + 1] + j * (delta - 1)
        return (parent,) + tuple(range(first_child, first_child + delta - 1))

    def _descend(self, v: int, layer: int, positions: Sequence[int]) -> int:
        """Follow child positions downward from node ``v`` at ``layer``."""
        delta = self.delta
        for p in positions:
            j = v - self._layer_start[layer]
            v = self._layer_start[layer + 1] + j * (delta - 1) + p
            layer += 1
        return v

    def strata(self, radius: int) -> List[Tuple[int, int]]:
        """O(depth * (delta-1)^radius) strata, independent of ``n``.

        A node's anonymous ball shows, for every ancestor within
        distance ``radius``, *which child port* points back down toward
        the center — so layer alone is not sound.  What is sound:

        * nodes in layers ``0 .. radius`` see the root, and their full
          root path is visible, so each is its own stratum (there are
          only O(delta^radius) such nodes, regardless of ``n``);
        * a deeper node at layer ``l > radius`` is classified by its
          ancestor *position path* — the ``radius``-tuple of child
          positions leading down from its height-``radius`` ancestor.
          Its ball lies inside that ancestor's subtree, and any two
          anchors at the same layer have order-isomorphic subtrees, so
          equal position paths imply byte-identical balls.  Each such
          stratum has one member per anchor, i.e.
          ``layer_size(l - radius)`` members.

        Representatives are the minimum members (descend from the first
        node of the anchor layer); the list is sorted by rep.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        delta, depth = self.delta, self.depth
        out: List[Tuple[int, int]] = []
        top = min(radius, depth)
        out.extend((v, 1) for v in range(self._layer_start[top + 1]))
        for layer in range(radius + 1, depth + 1):
            anchor = layer - radius
            anchor_size = (
                self._layer_start[anchor + 1] - self._layer_start[anchor]
            )
            first_anchor = self._layer_start[anchor]
            positions = [()]
            for _ in range(radius):
                positions = [
                    path + (p,) for path in positions
                    for p in range(delta - 1)
                ]
            for path in positions:
                rep = self._descend(first_anchor, anchor, path)
                out.append((rep, anchor_size))
        out.sort()
        return out

    def _materialize(self) -> Any:
        from .generators import balanced_regular_tree

        return balanced_regular_tree(self.delta, self.depth)


def implicit_tree_of_size_at_least(
    delta: int, min_nodes: int
) -> Tuple[ImplicitTree, int]:
    """Smallest implicit balanced Delta-regular tree with >= ``min_nodes``
    nodes; returns ``(tree, depth)`` (the symbolic twin of
    :func:`~repro.graphs.generators.regular_tree_of_depth_at_least`)."""
    depth = 0
    while True:
        tree = ImplicitTree(delta, depth)
        if tree.n >= min_nodes:
            return tree, depth
        depth += 1
