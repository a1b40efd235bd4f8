"""Validated mutation batches (:class:`GraphDelta`) for frozen graphs.

A :class:`GraphDelta` mutates a *frozen* :class:`~repro.graphs.graph.
Graph` without ever touching the original object: it is an ordered
batch of edge insertions / deletions / label updates that is validated
up front (by replaying it against the base's edge set) and applied
functionally — :meth:`GraphDelta.apply_to` returns a *new* frozen
graph, leaving the base and its cached CSR arrays untouched.

Port bookkeeping follows :meth:`Graph.add_edge
<repro.graphs.graph.Graph.add_edge>` exactly: an inserted edge occupies
the next free (highest) port at both endpoints, and a deleted edge
shifts every later port of its endpoints down by one (``list.remove``
semantics).  Because ops are *ordered*, inserting an edge and then
deleting it restores both adjacency rows bit-for-bit — the round-trip
property ``tests/test_graph_delta.py`` pins.

The other half of the module is the *dirty-ball tracker*:
:meth:`GraphDelta.footprint` computes the set of nodes whose radius-t
view can possibly change, in time proportional to that set (two
multi-source BFS sweeps from the touched nodes — one over the old rows,
one over the new), never O(n).  Soundness rests on the paper's locality
argument: a radius-t view is a function of the ball ``B(v, t)`` and its
port structure, and every structural or label difference between the
old and new graph is confined to the touched nodes' rows, so any node
whose view changes has a touched node inside its old or its new ball.

No engine consumes deltas: the mutated graph is an ordinary frozen
graph, and any backend runs on it from scratch.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import Edge, Graph, edge_key

__all__ = ["GraphDelta", "GraphDeltaError", "DELTA_OPS", "random_delta"]

#: The op vocabulary: ("add", u, v) / ("remove", u, v) insert or delete
#: the undirected edge {u, v}; ("set_id", v, value), ("set_input", v,
#: value) and ("set_randomness", v, value) rewrite one label entry.
DELTA_OPS = ("add", "remove", "set_id", "set_input", "set_randomness")

_EDGE_OPS = ("add", "remove")
_LABEL_OPS = ("set_id", "set_input", "set_randomness")


class GraphDeltaError(ValueError):
    """An invalid or stale delta: bad op, or applied to the wrong graph."""


class GraphDelta:
    """An ordered, validated batch of mutations against a frozen graph.

    Parameters
    ----------
    base:
        The frozen :class:`~repro.graphs.graph.Graph` the ops are
        expressed against.  Deltas never mutate it.
    ops:
        Iterable of op tuples from :data:`DELTA_OPS`.  Ops are validated
        by sequential replay: an ``("add", u, v)`` must not duplicate an
        edge present *at that point in the sequence*, a ``("remove", u,
        v)`` must delete one, and label targets must be in range.  Order
        matters for port bookkeeping, so ops are never deduplicated or
        reordered — ``add`` then ``remove`` of the same edge is a valid
        (and row-restoring) sequence.

    Raises
    ------
    GraphDeltaError
        If the base is not frozen or any op fails validation.
    """

    __slots__ = ("base", "ops", "_result", "_touched_rows", "_csr_mode")

    def __init__(self, base: Graph, ops: Iterable[Tuple[Any, ...]]):
        if not isinstance(base, Graph):
            raise GraphDeltaError(
                f"delta base must be a Graph, got {type(base).__name__}"
            )
        if not base.is_frozen:
            raise GraphDeltaError(
                "delta base must be frozen; call Graph.freeze() first "
                "(deltas are defined against an immutable snapshot)"
            )
        self.base = base
        self.ops: Tuple[Tuple[Any, ...], ...] = tuple(tuple(op) for op in ops)
        self._result: Optional[Graph] = None
        self._csr_mode: Optional[str] = None
        self._touched_rows = self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> Tuple[int, ...]:
        """Replay the ops against a copy of the base's edge set.

        Returns the sorted tuple of nodes whose adjacency *rows* change
        (edge-op endpoints).  Label-op targets are tracked separately —
        they join the footprint but leave the rows alone.
        """
        n = self.base.n
        edges: Set[Edge] = set(self.base.edge_set())
        touched: Set[int] = set()
        for i, op in enumerate(self.ops):
            if not op or op[0] not in DELTA_OPS:
                raise GraphDeltaError(
                    f"op {i}: unknown delta op {op!r}; expected one of {DELTA_OPS}"
                )
            kind = op[0]
            if len(op) != 3:
                raise GraphDeltaError(
                    f"op {i}: {kind!r} takes exactly 2 operands, got {op!r}"
                )
            if kind in _EDGE_OPS:
                u, v = op[1], op[2]
                if not (isinstance(u, int) and isinstance(v, int)):
                    raise GraphDeltaError(f"op {i}: endpoints must be ints, got {op!r}")
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphDeltaError(f"op {i}: edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise GraphDeltaError(f"op {i}: self-loop at node {u} is not allowed")
                key = edge_key(u, v)
                if kind == "add":
                    if key in edges:
                        raise GraphDeltaError(f"op {i}: duplicate edge ({u}, {v})")
                    edges.add(key)
                else:
                    if key not in edges:
                        raise GraphDeltaError(
                            f"op {i}: cannot remove missing edge ({u}, {v})"
                        )
                    edges.discard(key)
                touched.add(u)
                touched.add(v)
            else:
                v = op[1]
                if not isinstance(v, int):
                    raise GraphDeltaError(f"op {i}: label target must be an int, got {op!r}")
                if not 0 <= v < n:
                    raise GraphDeltaError(f"op {i}: node {v} out of range for n={n}")
        return tuple(sorted(touched))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Node count (unchanged by deltas — node set is fixed)."""
        return self.base.n

    @property
    def csr_mode(self) -> Optional[str]:
        """How the result's CSR layout was produced, once built.

        ``"patch"`` (in-place splice of the base's arrays),
        ``"recompile"`` (delta too large, full rebuild), ``"lazy"``
        (base had no compiled layout; the result compiles on demand),
        or ``None`` if :meth:`apply_to` has not run yet.
        """
        return self._csr_mode

    def touched_nodes(self) -> Tuple[int, ...]:
        """Sorted nodes directly named by any op (edge endpoints + label targets)."""
        touched = set(self._touched_rows)
        for op in self.ops:
            if op[0] in _LABEL_OPS:
                touched.add(op[1])
        return tuple(sorted(touched))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_to(self, graph: Graph) -> Graph:
        """Apply the delta to ``graph`` and return the mutated *new* graph.

        ``graph`` must be the exact object the delta was built against
        (``graph is self.base``) — ports are order-sensitive, so a delta
        replayed against any other graph, even an equal one, could
        silently produce a different port numbering.  A stale handle
        raises :class:`GraphDeltaError` instead.

        The result is frozen, shares the base's untouched adjacency
        rows, and — when the base has a compiled CSR layout — carries a
        patched (or recompiled) CSR so a run on the result never pays a
        from-scratch compile for a small delta.  The result is cached:
        repeated calls return the same object, which lets sequential
        delta chains share graph identity.
        """
        if graph is not self.base:
            raise GraphDeltaError(
                "stale delta handle: this delta was built against a different "
                "Graph object; rebuild the delta against the graph you are "
                "mutating (ports are order-sensitive, so replay against an "
                "equal-but-distinct graph is unsafe)"
            )
        if self._result is None:
            self._result = self._build()
        return self._result

    def apply(self) -> Graph:
        """Shorthand for ``apply_to(self.base)``."""
        return self.apply_to(self.base)

    def _build(self) -> Graph:
        base = self.base
        rows = base.adjacency_rows()
        touched = self._touched_rows
        new_rows: List[List[int]] = list(rows)  # share untouched row objects
        for v in touched:
            new_rows[v] = list(rows[v])
        edges: Set[Edge] = set(base.edge_set())
        for op in self.ops:
            if op[0] == "add":
                u, v = op[1], op[2]
                new_rows[u].append(v)
                new_rows[v].append(u)
                edges.add(edge_key(u, v))
            elif op[0] == "remove":
                u, v = op[1], op[2]
                new_rows[u].remove(v)
                new_rows[v].remove(u)
                edges.discard(edge_key(u, v))
        out = Graph.__new__(Graph)
        out._n = base.n
        out._adj = new_rows
        out._edge_set = edges
        out._frozen = True
        out._csr = None
        base_csr = base._csr
        if base_csr is None:
            self._csr_mode = "lazy"
        else:
            out._csr, self._csr_mode = base_csr.patched(new_rows, touched)
        return out

    def apply_to_labels(
        self,
        ids: Optional[Sequence[int]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
    ) -> Tuple[Optional[List[int]], Optional[List[Any]], Optional[List[Any]]]:
        """Apply the label ops to copies of the given label sequences.

        Returns ``(ids, inputs, randomness)`` as new lists (or ``None``
        where the input was ``None``).  A ``set_*`` op whose target
        labeling is absent raises :class:`GraphDeltaError` — the delta
        was built for a labeled run but applied to an unlabeled one.
        """
        new_ids = list(ids) if ids is not None else None
        new_inputs = list(inputs) if inputs is not None else None
        new_rand = list(randomness) if randomness is not None else None
        for i, op in enumerate(self.ops):
            if op[0] == "set_id":
                if new_ids is None:
                    raise GraphDeltaError(f"op {i}: set_id requires an ids labeling")
                new_ids[op[1]] = op[2]
            elif op[0] == "set_input":
                if new_inputs is None:
                    raise GraphDeltaError(f"op {i}: set_input requires an inputs labeling")
                new_inputs[op[1]] = op[2]
            elif op[0] == "set_randomness":
                if new_rand is None:
                    raise GraphDeltaError(
                        f"op {i}: set_randomness requires a randomness labeling"
                    )
                new_rand[op[1]] = op[2]
        return new_ids, new_inputs, new_rand

    # ------------------------------------------------------------------
    # Dirty-ball tracking
    # ------------------------------------------------------------------
    def footprint(self, radius: int) -> List[int]:
        """Nodes whose radius-``radius`` view can change, sorted.

        The union of the radius-``radius`` balls around the touched
        nodes in the *old* graph and in the *new* graph.  Soundness
        (pinned by the hypothesis suite): a view is a function of the
        ball and its port/label structure; every row or label that
        differs between old and new belongs to a touched node, so a
        node whose view differs must contain a touched node in its old
        or its new ball — i.e. lie within ``radius`` of one in at least
        one of the two graphs.

        Cost is proportional to the footprint (two truncated
        multi-source BFS sweeps), never O(n).
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        touched = self.touched_nodes()
        if not touched:
            return []
        result = self.apply_to(self.base)
        seen: Set[int] = set(touched)
        for g in (self.base, result):
            rows = g.adjacency_rows()
            visited: Set[int] = set(touched)
            frontier: List[int] = list(touched)
            for _ in range(radius):
                if not frontier:
                    break
                nxt: List[int] = []
                for v in frontier:
                    for u in rows[v]:
                        if u not in visited:
                            visited.add(u)
                            nxt.append(u)
                frontier = nxt
            seen.update(visited)
        return sorted(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphDelta(n={self.base.n}, ops={len(self.ops)})"


def random_delta(
    graph: Graph,
    rng: random.Random,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    max_ops: int = 2,
) -> Optional[GraphDelta]:
    """Draw a random valid :class:`GraphDelta` against ``graph``.

    Ops are generated sequentially against a working copy of the edge
    set, so every draw is valid by construction: edge additions sample
    a current non-edge (skipped on complete graphs), removals sample a
    current edge, id mutations swap two entries of ``ids`` (preserving
    uniqueness), and randomness/input mutations rewrite one entry.
    Returns ``None`` when no op kind is feasible (e.g. an edgeless
    1-node graph with no labelings).

    Determinism contract: the sequence of ``rng`` calls per op kind is
    part of the replayable surface and is golden-pinned by
    ``tests/test_seed_stability.py`` — NEVER reorder or add draws here
    without regenerating those pins deliberately.
    """
    if max_ops < 1:
        raise ValueError(f"max_ops must be >= 1, got {max_ops}")
    n = graph.n
    edges: Set[Edge] = set(graph.edge_set())
    complete = n * (n - 1) // 2
    work_ids = list(ids) if ids is not None else None
    ops: List[Tuple[Any, ...]] = []
    n_ops = rng.randint(1, max_ops)
    for _ in range(n_ops):
        kinds: List[str] = []
        if len(edges) < complete:
            kinds.append("add")
        if edges:
            kinds.append("remove")
        if work_ids is not None and n >= 2:
            kinds.append("swap-ids")
        if inputs is not None and n >= 1:
            kinds.append("set_input")
        if randomness is not None and n >= 1:
            kinds.append("set_randomness")
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind == "add":
            edge = _sample_non_edge(n, edges, rng)
            ops.append(("add", edge[0], edge[1]))
            edges.add(edge)
        elif kind == "remove":
            edge = rng.choice(sorted(edges))
            ops.append(("remove", edge[0], edge[1]))
            edges.discard(edge)
        elif kind == "swap-ids":
            u, v = rng.sample(range(n), 2)
            assert work_ids is not None
            ops.append(("set_id", u, work_ids[v]))
            ops.append(("set_id", v, work_ids[u]))
            work_ids[u], work_ids[v] = work_ids[v], work_ids[u]
        elif kind == "set_input":
            v = rng.randrange(n)
            ops.append(("set_input", v, rng.getrandbits(8)))
        else:  # set_randomness
            v = rng.randrange(n)
            ops.append(("set_randomness", v, rng.getrandbits(32)))
    if not ops:
        return None
    return GraphDelta(graph, ops)


def _sample_non_edge(n: int, edges: Set[Edge], rng: random.Random) -> Edge:
    """Sample a uniform-ish current non-edge; caller guarantees one exists."""
    for _ in range(32):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            key = edge_key(u, v)
            if key not in edges:
                return key
    # Dense graph: enumerate deterministically instead of looping forever.
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    return non_edges[rng.randrange(len(non_edges))]
