"""Compiled CSR layout for frozen port-numbered graphs.

:class:`CSRGraph` is the flat-array mirror of :class:`~repro.graphs.
graph.Graph`: one ``indptr`` offsets array and one ``indices`` neighbor
array (both built exactly once), plus a precomputed *reverse-port*
table making the two port queries that dominate view gathering O(1):

``endpoint(v, port)``
    ``indices[indptr[v] + port]`` — one load instead of a list index.
``port_to(v, u)``
    A precomputed arc-level lookup instead of ``list.index`` (which is
    O(deg) per call and the inner loop of ``gather_view``).

The layout is derived data, never authoritative: it can only be built
from a *frozen* graph (or an explicit adjacency, which is frozen by
construction), so it cannot go stale — the mutability fix in
:meth:`Graph.add_edge <repro.graphs.graph.Graph.add_edge>` plus the
frozen-only constructor are what make caching it on the graph sound.
``repro.local_model.batch_views`` builds its batched ball expander on
top of these arrays; the engines reach both through
:meth:`Graph.csr() <repro.graphs.graph.Graph.csr>`.

Arrays are row-major in *port order*: the arcs of node ``v`` occupy
``indptr[v] .. indptr[v+1]`` and arc ``indptr[v] + p`` is ``v``'s port
``p``.  For that arc, ``rev_ports`` holds the port of the *other*
endpoint leading back to ``v`` — the value ``_collect`` needs for every
induced edge of every view.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """Flat-array (CSR) view of a frozen port-numbered graph.

    Attributes
    ----------
    n, m:
        Node and (undirected) edge counts.
    indptr:
        ``int64[n + 1]`` arc offsets; node ``v``'s arcs are
        ``indptr[v] .. indptr[v + 1]``.
    indices:
        ``int64[2m]`` arc targets in port order.
    rev_ports:
        ``int64[2m]``; for the arc ``(v, port p) -> u`` this is the
        port of ``u`` whose edge leads back to ``v``.
    degrees:
        ``int64[n]`` node degrees (``indptr`` differences).
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "rev_ports",
        "degrees",
        "_arc_of",
        "_expander",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        rev_ports: np.ndarray,
    ):
        self.n = int(len(indptr)) - 1
        self.m = int(len(indices)) // 2
        self.indptr = indptr
        self.indices = indices
        self.rev_ports = rev_ports
        self.degrees = np.diff(indptr)
        self._arc_of: Optional[Dict[Tuple[int, int], int]] = None
        self._expander = None  # cached BatchBallExpander (never pickled)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        """Compile a *frozen* :class:`~repro.graphs.graph.Graph`.

        Raises
        ------
        ValueError
            If the graph is not frozen.  The CSR arrays are built once
            and cached; compiling a mutable graph would let them go
            stale silently.
        """
        if not getattr(graph, "is_frozen", False):
            raise ValueError(
                "CSRGraph.from_graph requires a frozen graph; call "
                "Graph.freeze() first (the layout is built once and must "
                "not go stale)"
            )
        return cls._from_rows(graph.adjacency_rows())

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[int]]) -> "CSRGraph":
        """Compile explicit port-ordered adjacency rows.

        Validates through :meth:`Graph.from_adjacency
        <repro.graphs.graph.Graph.from_adjacency>` (same error behavior)
        and compiles the frozen result.
        """
        from .graph import Graph

        return cls.from_graph(Graph.from_adjacency(adjacency).freeze())

    @classmethod
    def synthesize(cls, row_of, n: int) -> "CSRGraph":
        """Build the full layout from a closed-form row function.

        ``row_of(v)`` must return node ``v``'s port-ordered neighbor
        tuple; the resulting arrays are byte-identical to compiling the
        materialized graph (:class:`~repro.graphs.implicit.ImplicitGraph`
        handles call this, guarded, for the small-n parity overlap).
        """
        return cls._from_rows([row_of(v) for v in range(n)])

    @classmethod
    def synthesize_window(
        cls,
        row_of,
        core: Sequence[int],
        boundary: Sequence[int] = (),
    ) -> Tuple["CSRGraph", Dict[int, int]]:
        """Synthesize a self-contained sub-CSR over a ball window.

        ``core`` nodes get their exact closed-form rows with neighbors
        remapped to window-local ids; ``boundary`` nodes (the ring just
        outside the deepest ball) are present only as targets — their
        rows are left empty.  Every neighbor of a core node must lie in
        ``core + boundary`` (the invariant :meth:`ImplicitGraph.window
        <repro.graphs.implicit.ImplicitGraph.window>` provides).

        Returns ``(layout, local_of)`` where ``local_of`` maps original
        node ids to window-local ids (core first, in given order).

        The window layout is for the batched ball expander only: it
        reads ``indptr`` / ``indices`` / ``degrees`` of ball (core)
        nodes exclusively.  Boundary rows being empty means their
        ``degrees`` entries and the ``rev_ports`` table are *not*
        meaningful — the expander never reads either for ball nodes'
        streams, and no other consumer sees a window layout.
        """
        local: Dict[int, int] = {}
        for v in core:
            if v in local:
                raise ValueError(f"duplicate window node {v}")
            local[v] = len(local)
        for v in boundary:
            if v in local:
                raise ValueError(f"duplicate window node {v}")
            local[v] = len(local)
        rows: List[List[int]] = []
        for v in core:
            try:
                rows.append([local[u] for u in row_of(v)])
            except KeyError as exc:
                raise ValueError(
                    f"window is not self-contained: neighbor {exc.args[0]} "
                    f"of core node {v} is outside the window"
                ) from None
        rows.extend([] for _ in boundary)
        n = len(rows)
        degrees = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        pos = 0
        for r in rows:
            indices[pos : pos + len(r)] = r
            pos += len(r)
        rev = np.full(len(indices), -1, dtype=np.int64)
        return cls(indptr, indices, rev), local

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence[int]]) -> "CSRGraph":
        n = len(rows)
        degrees = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        arcs = int(indptr[-1])
        indices = np.empty(arcs, dtype=np.int64)
        pos = 0
        for r in rows:
            indices[pos : pos + len(r)] = r
            pos += len(r)
        return cls(indptr, indices, cls._reverse_ports(n, indptr, indices))

    @staticmethod
    def _reverse_ports(
        n: int, indptr: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """For every arc ``(v -> u)``, the port of ``u`` back to ``v``.

        Simple graphs make arc keys ``src * n + dst`` unique, so sorting
        the arcs by ``(src, dst)`` and by ``(dst, src)`` aligns each arc
        with its reverse arc at the same sorted rank.
        """
        arcs = len(indices)
        rev = np.empty(arcs, dtype=np.int64)
        if arcs == 0:
            return rev
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        ports = np.arange(arcs, dtype=np.int64) - np.repeat(
            indptr[:-1], np.diff(indptr)
        )
        forward = np.argsort(src * n + indices)
        backward = np.argsort(indices * n + src)
        rev[forward] = ports[backward]
        return rev

    # ------------------------------------------------------------------
    # Queries (Graph-compatible where it matters)
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self.degrees[v])

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbors of ``v`` in port order."""
        return tuple(
            int(u) for u in self.indices[self.indptr[v] : self.indptr[v + 1]]
        )

    def endpoint(self, v: int, port: int) -> int:
        """The node at the other end of port ``port`` of ``v`` — O(1)."""
        if not 0 <= port < self.degrees[v]:
            raise ValueError(f"node {v} has no port {port}")
        return int(self.indices[self.indptr[v] + port])

    def _arc_table(self) -> Dict[Tuple[int, int], int]:
        if self._arc_of is None:
            src = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
            )
            self._arc_of = {
                (int(v), int(u)): a
                for a, (v, u) in enumerate(zip(src, self.indices))
            }
        return self._arc_of

    def port_to(self, v: int, u: int) -> int:
        """The port of ``v`` whose edge leads to ``u`` — O(1) via the
        precomputed arc table (built lazily, once).

        Raises
        ------
        ValueError
            If ``u`` is not a neighbor of ``v`` (same contract as
            :meth:`Graph.port_to <repro.graphs.graph.Graph.port_to>`).
        """
        arc = self._arc_table().get((v, u))
        if arc is None:
            raise ValueError(f"{u} is not a neighbor of {v}")
        return int(arc - self.indptr[v])

    def rev_port(self, v: int, port: int) -> int:
        """The receiving port at the other end of ``(v, port)`` — O(1)."""
        if not 0 <= port < self.degrees[v]:
            raise ValueError(f"node {v} has no port {port}")
        return int(self.rev_ports[self.indptr[v] + port])

    # ------------------------------------------------------------------
    # Pickling: ship only the arrays.  The arc table and the batched
    # expander (with its reusable block buffers) rebuild lazily on the
    # other side — pickling them would bloat every payload with
    # derived data the receiver may never touch.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.indptr, self.indices, self.rev_ports)

    def __setstate__(self, state):
        indptr, indices, rev_ports = state
        self.__init__(indptr, indices, rev_ports)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.m})"
