"""Batched ball expansion over the compiled CSR layout.

Class detection by canonical ball keys is slow in Python:
:func:`~repro.local_model.views.view_signature` walks every radius-r
ball node by node.  This module computes the *same partition into
view-equivalence classes* for **all** n balls in one vectorized pass
over :class:`~repro.graphs.csr.CSRGraph` arrays:

1.  A block-batched, layer-synchronous multi-source BFS discovers every
    ball member in canonical (port-order) exploration order, for a
    block of sources at once, using one reusable ``(block, n)`` local-
    index matrix as the visited/rank structure.  The layer loop *is*
    the incremental radius-(r-1) -> r extension: one BFS to the largest
    requested radius yields every smaller radius by masking local
    ranks against the per-layer ball sizes (see
    :meth:`BatchBallExpander.node_classes_many`).
2.  Each ball is packed into a flat integer *stream* —
    ``[k, degrees..., port rows..., label sections...]`` trimmed to its
    true length — whose bytes form are a **perfect canonical key**: the
    stream is self-delimiting (its length is a function of its own
    prefix), so two balls have equal stream bytes iff their reference
    signatures are equal.  This is the cheaper rolling replacement for
    ``view_signature`` on the hot path; the differential suite
    (``tests/test_csr_parity.py``) proves the bit-identity.

Inputs the vectorized path cannot represent exactly — an
:class:`~repro.graphs.orientation.Orientation`, or labels that are not
64-bit integers — fall back to the reference signatures per entity
(``path == "python"``), so the expander never guesses: every partition
it returns is exact by construction.

The engine reaches this module through the *layout* knob on
:class:`~repro.core.engine.SimRequest` (``"auto"`` / ``"dict"`` /
``"csr"`` / ``"implicit"``): ``"csr"`` gathers each ball over the same
arrays (:func:`gather_view_csr`).  The partitions themselves serve the
implicit families' class counts and the conformance
``implicit-identity`` check.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from .views import (
    _collect,
    _explore,
    edge_view_signature,
    view_signature,
)

__all__ = [
    "ClassPartition",
    "ClassCounts",
    "BatchBallExpander",
    "ImplicitBallExpander",
    "known_layouts",
    "expander_for",
    "resolve_layout",
    "gather_view_csr",
    "gather_edge_view_csr",
]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class ClassPartition:
    """All entities of one run, partitioned into view-equivalence classes.

    Attributes
    ----------
    keys:
        One hashable canonical key per class, in first-occurrence order.
        On the vectorized path these are ``(tag, radius, flags, bytes)``
        tuples; on the fallback path they are the reference signature
        tuples.  Either way the key is perfect: equal keys iff equal
        reference signatures (within one path — the two key spaces are
        disjoint by construction).
    labels:
        ``labels[i]`` is the class index of entity ``i`` (node ``i`` for
        node partitions, the ``i``-th edge for edge partitions).
    reps:
        ``reps[c]`` is the first entity of class ``c`` — the same
        representative the reference per-entity scan would pick.
    path:
        ``"numpy"`` (vectorized) or ``"python"`` (reference fallback).
    """

    __slots__ = ("keys", "labels", "reps", "path")

    def __init__(
        self,
        keys: List[Any],
        labels: List[int],
        reps: List[int],
        path: str,
    ):
        self.keys = keys
        self.labels = labels
        self.reps = reps
        self.path = path

    @property
    def class_count(self) -> int:
        """Number of distinct view-equivalence classes in the partition."""
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassPartition(entities={len(self.labels)}, "
            f"classes={len(self.keys)}, path={self.path!r})"
        )


class ClassCounts:
    """Exact view-class multiplicities of an implicit family's node set.

    The O(distinct classes) companion of :class:`ClassPartition`: where a
    partition carries one label per *node* (inherently O(n)), this
    carries one ``(key, rep, count)`` triple per *class* — computed from
    a closed-form strata decomposition without ever touching all n
    nodes.  ``keys`` and ``reps`` match the materialized full scan's
    first-occurrence order and representatives exactly (the strata
    contract guarantees it; the parity suite proves it at overlap n),
    and ``counts`` sum to ``n``.

    Attributes
    ----------
    keys:
        One hashable canonical key per class, in first-occurrence order
        — the same key space as the vectorized :class:`ClassPartition`
        keys.
    reps:
        ``reps[c]`` is the smallest node of class ``c`` (the identical
        representative the materialized scan would pick).
    counts:
        ``counts[c]`` is the exact number of nodes in class ``c``.
    path:
        ``"numpy"`` (the window-synthesized vectorized path).
    """

    __slots__ = ("keys", "reps", "counts", "path")

    def __init__(
        self,
        keys: List[Any],
        reps: List[int],
        counts: List[int],
        path: str,
    ):
        self.keys = keys
        self.reps = reps
        self.counts = counts
        self.path = path

    @property
    def class_count(self) -> int:
        """Number of distinct view-equivalence classes."""
        return len(self.keys)

    @property
    def total(self) -> int:
        """Total multiplicity (equals the family's node count ``n``)."""
        return sum(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassCounts(classes={len(self.keys)}, "
            f"total={self.total}, path={self.path!r})"
        )


def _int64_column(
    values: Optional[Sequence[Any]], n: int
) -> Optional[np.ndarray]:
    """``values`` as an exact ``int64[n]`` array, or ``None`` if any
    entry is not a (bounded) integer.  Bools are integers here exactly
    as they are for the reference signature tuples (``True == 1``)."""
    if values is None or len(values) != n:
        return None
    for x in values:
        if not isinstance(x, (bool, int, np.integer)):
            return None
        if not _INT64_MIN <= int(x) <= _INT64_MAX:
            return None
    return np.asarray([int(x) for x in values], dtype=np.int64)


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.empty(a.size, dtype=np.int64)
    if a.size:
        out[0] = 0
        np.cumsum(a[:-1], out=out[1:])
    return out


class BatchBallExpander:
    """Compute ball-class partitions for every node (or edge) at once.

    One expander per graph; the engines cache it on the graph's
    :class:`~repro.graphs.csr.CSRGraph` so its block buffers are reused
    across runs.
    """

    #: Target bytes for the (block, n) local-index matrix.  Measured on
    #: the n≈4-5k benchmark trees: 16 MiB leaves too many per-block
    #: fixed costs, 48 MiB starts thrashing cache on Δ=6 — 32 MiB is
    #: the plateau for both.
    _BLOCK_BYTES = 32 << 20

    def __init__(self, graph: Graph):
        self.graph = graph
        self.csr = graph.csr()
        n = max(1, self.csr.n)
        self.block = max(64, min(4096, self._BLOCK_BYTES // (4 * n)))
        self._local: Optional[np.ndarray] = None

    # -- public API -----------------------------------------------------
    def node_classes(
        self,
        radius: int,
        ids: Optional[Sequence[Any]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
        orientation: Optional[Any] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> ClassPartition:
        """Partition nodes by ``view_signature`` equality.

        With ``sources=None`` every node is partitioned; otherwise only
        the listed nodes are (``labels[i]`` / ``reps[c]`` then index the
        ``sources`` sequence).  Subset keys live in the same key space
        as full-run keys — the packed stream of a ball does not depend
        on which other balls share the pass — which is what lets the
        implicit window expander match this one key for key.
        """
        return self.node_classes_many(
            (radius,), ids, inputs, randomness, orientation, sources=sources
        )[0]

    def node_classes_many(
        self,
        radii: Sequence[int],
        ids: Optional[Sequence[Any]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
        orientation: Optional[Any] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> List[ClassPartition]:
        """Partitions for several radii from ONE shared BFS pass.

        The layer-synchronous expansion runs once to ``max(radii)``;
        each smaller radius is derived incrementally by masking local
        ranks against that radius's per-source ball size (ranks are
        assigned in layer order, so membership in the radius-r ball is
        exactly ``rank < |B_r(v)|``).

        ``sources`` restricts the partition to a node subset (see
        :meth:`node_classes`); the BFS then starts from the subset only.
        """
        n = self.csr.n
        cols, ok = self._label_columns(n, ids, inputs, randomness)
        entities: Sequence[int] = range(n) if sources is None else list(sources)
        if orientation is not None or not ok or n == 0:
            return [
                self._fallback(
                    "node", entities, r, ids, inputs, randomness, orientation
                )
                for r in radii
            ]
        if sources is None:
            seeds = [np.arange(n, dtype=np.int64)]
        else:
            seeds = [np.asarray(entities, dtype=np.int64)]
            if seeds[0].size == 0:
                return [
                    ClassPartition([], [], [], path="numpy") for _ in radii
                ]
        flags = (ids is not None, inputs is not None, randomness is not None)
        return self._partition_numpy(seeds, tuple(radii), cols, "v", flags)

    def edge_classes(
        self,
        edges: Sequence[Tuple[int, int]],
        radius: int,
        ids: Optional[Sequence[Any]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
        orientation: Optional[Any] = None,
    ) -> ClassPartition:
        """Partition ``edges`` by ``edge_view_signature`` equality.

        ``edges`` must be the run's entity order (the engines pass
        ``graph.edges()`` order).  Oriented runs take the fallback path,
        which applies the reference endpoint swap itself.
        """
        n = self.csr.n
        cols, ok = self._label_columns(n, ids, inputs, randomness)
        if orientation is not None or not ok or n == 0 or not edges:
            return self._fallback(
                "edge", edges, radius, ids, inputs, randomness, orientation
            )
        us = np.asarray([e[0] for e in edges], dtype=np.int64)
        vs = np.asarray([e[1] for e in edges], dtype=np.int64)
        flags = (ids is not None, inputs is not None, randomness is not None)
        return self._partition_numpy([us, vs], (radius,), cols, "e", flags)[0]

    # -- stream element width -------------------------------------------
    def _stream_dtype(self, cols: List[np.ndarray]) -> np.dtype:
        """Packed-stream element type for the given label columns.

        Streams hold ball sizes, degrees, local ranks (< n), and label
        values: when every label fits in 32 bits the packed buffer can
        be int32, halving the memory traffic of the pack + block-dedup
        memcmp sort.  The element width is part of the class key, so
        the two stream encodings occupy disjoint key spaces.

        Factored out so the implicit window path can *force* the dtype
        computed from the full n-length columns while packing only the
        window-mapped slices — the reference full scan derives the
        width from the full columns, and bit-identity requires matching
        it even when the window happens to contain only small values.
        """
        for col in cols:
            if col.size and (
                int(col.min()) < -(2**31) or int(col.max()) > 2**31 - 1
            ):
                return np.dtype(np.int64)
        return np.dtype(np.int32)

    # -- reference fallback ---------------------------------------------
    def _fallback(
        self,
        kind: str,
        entities: Sequence[Any],
        radius: int,
        ids: Optional[Sequence[Any]],
        inputs: Optional[Sequence[Any]],
        randomness: Optional[Sequence[Any]],
        orientation: Optional[Any],
    ) -> ClassPartition:
        classes: Dict[Any, int] = {}
        keys: List[Any] = []
        labels: List[int] = []
        reps: List[int] = []
        for i, entity in enumerate(entities):
            if kind == "node":
                sig = view_signature(
                    self.graph, entity, radius,
                    ids=ids, inputs=inputs, randomness=randomness,
                    orientation=orientation,
                )
            else:
                sig = edge_view_signature(
                    self.graph, entity, radius,
                    ids=ids, inputs=inputs, randomness=randomness,
                    orientation=orientation,
                )
            c = classes.get(sig)
            if c is None:
                c = classes[sig] = len(keys)
                keys.append(sig)
                reps.append(i)
            labels.append(c)
        return ClassPartition(keys, labels, reps, path="python")

    # -- vectorized core ------------------------------------------------
    def _label_columns(
        self,
        n: int,
        ids: Optional[Sequence[Any]],
        inputs: Optional[Sequence[Any]],
        randomness: Optional[Sequence[Any]],
    ) -> Tuple[List[np.ndarray], bool]:
        cols: List[np.ndarray] = []
        for values in (ids, inputs, randomness):
            if values is None:
                continue
            col = _int64_column(values, n)
            if col is None:
                return [], False
            cols.append(col)
        return cols, True

    def _local_matrix(self, n: int, rows: int) -> np.ndarray:
        # Sized to the actual source count, not the block ceiling: a
        # subset pass must not pay a block x n allocation for a handful
        # of sources.  Grow-on-demand keeps one buffer serving mixed
        # call sizes.
        if self._local is None or self._local.shape[0] < rows:
            self._local = np.full((rows, n), -1, dtype=np.int32)
        return self._local

    def _partition_numpy(
        self,
        seed_cols: List[np.ndarray],
        radii: Tuple[int, ...],
        cols: List[np.ndarray],
        tag: str,
        flags: Tuple[bool, ...],
    ) -> List[ClassPartition]:
        csr = self.csr
        n = csr.n
        indptr, indices, degrees = csr.indptr, csr.indices, csr.degrees
        big_radius = max(radii)
        s = len(seed_cols)
        total_sources = seed_cols[0].size
        local = self._local_matrix(n, max(1, min(self.block, total_sources)))

        stream_dtype = self._stream_dtype(cols)

        classes: List[Dict[Any, int]] = [{} for _ in radii]
        keys: List[List[Any]] = [[] for _ in radii]
        labels: List[List[int]] = [[] for _ in radii]
        reps: List[List[int]] = [[] for _ in radii]

        for b0 in range(0, total_sources, self.block):
            b1 = min(b0 + self.block, total_sources)
            B = b1 - b0

            # --- layer-synchronous multi-source BFS over the block ----
            seed_mat = np.stack([c[b0:b1] for c in seed_cols], axis=1)
            d_src = np.repeat(np.arange(B, dtype=np.int64), s)
            d_node = seed_mat.ravel()
            local[d_src, d_node] = np.tile(np.arange(s, dtype=np.int32), B)
            cnt = np.full(B, s, dtype=np.int64)
            disc_src, disc_node = [d_src], [d_node]
            cnt_at = [cnt.copy()]  # cnt_at[r] = |B_r(source)| per source
            f_src, f_node = d_src, d_node
            for _ in range(big_radius):
                if f_src.size == 0:
                    cnt_at.append(cnt.copy())
                    continue
                df = degrees[f_node]
                total = int(df.sum())
                if total == 0:
                    f_src = f_src[:0]
                    cnt_at.append(cnt.copy())
                    continue
                arc = np.repeat(
                    indptr[f_node] - _exclusive_cumsum(df), df
                ) + np.arange(total, dtype=np.int64)
                e_src = np.repeat(f_src, df)
                e_nbr = indices[arc]
                fresh = local[e_src, e_nbr] < 0
                e_src, e_nbr = e_src[fresh], e_nbr[fresh]
                if e_src.size == 0:
                    f_src = e_src
                    cnt_at.append(cnt.copy())
                    continue
                # First arc wins, in generation (= port-BFS) order: dedup
                # by sorted (src, nbr) key, then restore generation order.
                first = np.unique(e_src * n + e_nbr, return_index=True)[1]
                first.sort()
                f_src, f_node = e_src[first], e_nbr[first]
                counts = np.bincount(f_src, minlength=B)
                rank = np.arange(f_src.size, dtype=np.int64) - (
                    _exclusive_cumsum(counts)[f_src]
                )
                local[f_src, f_node] = (cnt[f_src] + rank).astype(np.int32)
                cnt = cnt + counts
                disc_src.append(f_src)
                disc_node.append(f_node)
                cnt_at.append(cnt.copy())

            a_src = np.concatenate(disc_src)
            a_node = np.concatenate(disc_node)
            a_loc = local[a_src, a_node].astype(np.int64)

            # --- pack streams + bucket keys, one pass per radius ------
            for ri, radius in enumerate(radii):
                self._bucket_block(
                    tag, flags, radius, cnt_at[radius],
                    a_src, a_node, a_loc, cols, b0, stream_dtype,
                    classes[ri], keys[ri], labels[ri], reps[ri],
                )

            # Reset the touched entries so the matrix is clean for the
            # next block (full clears would dominate on sparse balls).
            local[a_src, a_node] = -1

        return [
            ClassPartition(keys[ri], labels[ri], reps[ri], path="numpy")
            for ri in range(len(radii))
        ]

    def _bucket_block(
        self,
        tag: str,
        flags: Tuple[bool, ...],
        radius: int,
        k_r: np.ndarray,
        a_src: np.ndarray,
        a_node: np.ndarray,
        a_loc: np.ndarray,
        cols: List[np.ndarray],
        entity_base: int,
        stream_dtype: np.dtype,
        classes: Dict[Any, int],
        keys: List[Any],
        labels: List[int],
        reps: List[int],
    ) -> None:
        csr = self.csr
        indptr, indices, degrees = csr.indptr, csr.indices, csr.degrees
        B = k_r.size
        # Ranks are assigned in layer order, so the radius-r ball is
        # exactly the entries with rank < |B_r(source)|.
        sel = a_loc < k_r[a_src]
        s_src, s_node, s_loc = a_src[sel], a_node[sel], a_loc[sel]
        d_a = degrees[s_node]
        rowlen = np.bincount(
            s_src, weights=d_a, minlength=B
        ).astype(np.int64)
        n_cols = len(cols)
        stream_len = 1 + k_r + rowlen + n_cols * k_r
        width = int(stream_len.max())
        # Zero-filled so the padding past each stream's true length is
        # deterministic: the stream is self-delimiting (its length is a
        # function of its own prefix), so two zero-padded fixed-width
        # rows are equal iff the trimmed streams are — which lets the
        # block dedup below compare whole rows without trimming.
        buf = np.zeros(B * width, dtype=stream_dtype)
        base = np.arange(B, dtype=np.int64) * width
        # Header: ball size (makes the stream self-delimiting).
        buf[base] = k_r
        # Degree section: row lengths in exploration order.
        buf[base[s_src] + 1 + s_loc] = d_a
        # Port-row section: each ball node's neighbors as local ranks
        # (-1 outside the ball), exactly the reference signature rows.
        max_k = int(k_r.max()) if B else 0
        degmat = np.zeros((B, max_k), dtype=np.int64)
        degmat[s_src, s_loc] = d_a
        rowstart = np.cumsum(degmat, axis=1) - degmat
        entry_start = base[s_src] + 1 + k_r[s_src] + rowstart[s_src, s_loc]
        total = int(d_a.sum())
        cum = _exclusive_cumsum(d_a)
        arc = np.repeat(indptr[s_node] - cum, d_a) + np.arange(
            total, dtype=np.int64
        )
        r_src = np.repeat(s_src, d_a)
        vals = self._local[r_src, indices[arc]].astype(np.int64)
        vals = np.where(vals < k_r[r_src], vals, -1)
        pos = np.repeat(entry_start, d_a) + (
            np.arange(total, dtype=np.int64) - np.repeat(cum, d_a)
        )
        buf[pos] = vals
        # Label sections, one per present labeling, in exploration order.
        off = base[s_src] + 1 + k_r[s_src] + rowlen[s_src] + s_loc
        for ci, col in enumerate(cols):
            buf[off + ci * k_r[s_src]] = col[s_node]

        # Dedup inside the block first (C-speed memcmp sort over whole
        # rows), so only one row per block-local class reaches the
        # Python-level key dict — on the regular trees this is ~40 dict
        # probes per block instead of ~4000.
        mat = buf.reshape(B, width)
        rows = mat.view(np.dtype((np.void, width * buf.itemsize))).ravel()
        _, first, inverse = np.unique(
            rows, return_index=True, return_inverse=True
        )
        local_class = np.empty(first.size, dtype=np.int64)
        # The stream's element width joins the flags so int32- and
        # int64-packed streams can never alias in a shared cache.
        key_flags = flags + (buf.itemsize,)
        # Visit block-local classes by first occurrence, preserving the
        # global first-occurrence class numbering of the reference scan.
        for rank in np.argsort(first, kind="stable"):
            i = int(first[rank])
            key = (
                tag, radius, key_flags,
                mat[i, : int(stream_len[i])].tobytes(),
            )
            c = classes.get(key)
            if c is None:
                c = classes[key] = len(keys)
                keys.append(key)
                reps.append(entity_base + i)
            local_class[rank] = c
        labels.extend(local_class[inverse.ravel()].tolist())


class _WindowExpander(BatchBallExpander):
    """Internal expander over a synthesized window CSR.

    Constructed fresh per implicit pass (window widths vary call to
    call, so the reusable local matrix cannot be shared), it reuses the
    entire vectorized core of :class:`BatchBallExpander` unchanged —
    which is what makes the window path byte-identical by construction.
    One deliberate deviation: the packed-stream dtype can be *forced*
    to the full-column width (see
    :meth:`BatchBallExpander._stream_dtype`).
    """

    def __init__(
        self,
        csr: Any,
        owner: "ImplicitBallExpander",
        stream_dtype: Optional[np.dtype] = None,
    ):
        self.graph = owner.graph
        self.csr = csr
        n = max(1, csr.n)
        self.block = max(64, min(4096, self._BLOCK_BYTES // (4 * n)))
        self._local: Optional[np.ndarray] = None
        self._forced_dtype = stream_dtype

    def _stream_dtype(self, cols: List[np.ndarray]) -> np.dtype:
        """The owner-forced width, or the inherited rule when unforced."""
        if self._forced_dtype is not None:
            return self._forced_dtype
        return super()._stream_dtype(cols)


class ImplicitBallExpander(BatchBallExpander):
    """Ball-class machinery for implicit (closed-form) graph families.

    Serves :class:`~repro.graphs.implicit.ImplicitGraph` handles through
    the same interface as :class:`BatchBallExpander`, plus the
    O(distinct classes) entry point the n >= 10^6 experiments run on:

    * :meth:`node_classes` / :meth:`edge_classes` with explicit
      ``sources`` / ``edges`` synthesize a CSR *window* around the
      requested balls (:meth:`CSRGraph.synthesize_window
      <repro.graphs.csr.CSRGraph.synthesize_window>`) and run the
      inherited vectorized core over it — cost O(window volume),
      independent of n, streams byte-identical to the materialized
      full-graph pass (the window contains every row a ball stream
      reads; the packed dtype is forced to the full-column width).
    * With no ``sources`` the full partition is inherently O(n), so the
      pass runs over the guarded full synthesized CSR —
      bit-for-bit the materialized ``"csr"`` layout at overlap n, and
      :class:`~repro.graphs.implicit.ImplicitMaterializeError` beyond
      the limit (materialization must never sneak back in silently).
    * :meth:`class_counts` / :meth:`class_counts_many` expand one ball
      per closed-form *stratum* and multiply by stratum sizes: exact
      class multiplicities, first-occurrence key/rep order identical to
      the materialized scan, O(1) distinct classes on cycles/paths/tori
      and O(depth) on balanced trees.

    Orientation or non-int64 labelings take the inherited per-entity
    reference fallback on the duck-typed handle (exact, O(entities)).
    """

    def __init__(self, graph: Any):
        if not getattr(graph, "is_implicit", False):
            raise ValueError(
                "ImplicitBallExpander requires an ImplicitGraph handle"
            )
        self.graph = graph
        self.csr = None  # windows are synthesized per pass
        self.block = 0
        self._local: Optional[np.ndarray] = None
        self._full_inner: Optional[_WindowExpander] = None

    # -- partition API (ClassPartition-compatible) ----------------------
    def node_classes_many(
        self,
        radii: Sequence[int],
        ids: Optional[Sequence[Any]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
        orientation: Optional[Any] = None,
        sources: Optional[Sequence[int]] = None,
    ) -> List[ClassPartition]:
        """Node partitions from closed-form windows (one shared BFS).

        Same contract as :meth:`BatchBallExpander.node_classes_many`;
        with ``sources`` the cost is O(ball volume) regardless of n,
        without them the (O(n)-output) full pass runs over the guarded
        synthesized CSR.
        """
        graph = self.graph
        n = graph.n
        cols, ok = self._label_columns(n, ids, inputs, randomness)
        entities: Sequence[int] = range(n) if sources is None else list(sources)
        if orientation is not None or not ok or n == 0:
            return [
                self._fallback(
                    "node", entities, r, ids, inputs, randomness, orientation
                )
                for r in radii
            ]
        flags = (ids is not None, inputs is not None, randomness is not None)
        if sources is None:
            inner = self._full_expander()
            return inner._partition_numpy(
                [np.arange(n, dtype=np.int64)], tuple(radii), cols, "v", flags
            )
        seeds = np.asarray(entities, dtype=np.int64)
        if seeds.size == 0:
            return [ClassPartition([], [], [], path="numpy") for _ in radii]
        return self._window_partition([seeds], tuple(radii), cols, "v", flags)

    def edge_classes(
        self,
        edges: Sequence[Tuple[int, int]],
        radius: int,
        ids: Optional[Sequence[Any]] = None,
        inputs: Optional[Sequence[Any]] = None,
        randomness: Optional[Sequence[Any]] = None,
        orientation: Optional[Any] = None,
    ) -> ClassPartition:
        """Edge partition over the window spanned by the endpoints."""
        graph = self.graph
        n = graph.n
        cols, ok = self._label_columns(n, ids, inputs, randomness)
        if orientation is not None or not ok or n == 0 or not edges:
            return self._fallback(
                "edge", edges, radius, ids, inputs, randomness, orientation
            )
        us = np.asarray([e[0] for e in edges], dtype=np.int64)
        vs = np.asarray([e[1] for e in edges], dtype=np.int64)
        flags = (ids is not None, inputs is not None, randomness is not None)
        return self._window_partition([us, vs], (radius,), cols, "e", flags)[0]

    # -- exact multiplicities (the O(classes) experiment path) ----------
    def class_counts(self, radius: int) -> ClassCounts:
        """Exact anonymous class multiplicities at one radius."""
        return self.class_counts_many((radius,))[0]

    def class_counts_many(self, radii: Sequence[int]) -> List[ClassCounts]:
        """Exact anonymous class multiplicities, one BFS for all radii.

        Expands one ball per stratum of ``strata(max(radii))`` (sound
        for every smaller radius: identical deep balls have identical
        shallow balls) and multiplies class membership by stratum
        sizes.  Peak memory is O(window volume) = O(distinct classes *
        ball volume); n only enters through the closed forms.

        Raises
        ------
        RuntimeError
            If the family's strata fail to cover n (a closed-form bug —
            this is a cheap self-check, not a recoverable condition).
        """
        graph = self.graph
        n = graph.n
        radii = tuple(radii)
        if n == 0:
            return [ClassCounts([], [], [], path="numpy") for _ in radii]
        strata = graph.strata(max(radii))
        reps = np.asarray([rep for rep, _ in strata], dtype=np.int64)
        sizes = [cnt for _, cnt in strata]
        parts = self._window_partition(
            [reps], radii, [], "v", (False, False, False)
        )
        out: List[ClassCounts] = []
        for part in parts:
            per_class = [0] * part.class_count
            for i, c in enumerate(part.labels):
                per_class[c] += sizes[i]
            if sum(per_class) != n:
                raise RuntimeError(
                    f"strata of {graph!r} cover {sum(per_class)} of {n} "
                    f"nodes — closed-form strata bug"
                )
            out.append(
                ClassCounts(
                    part.keys,
                    [int(reps[i]) for i in part.reps],
                    per_class,
                    part.path,
                )
            )
        return out

    # -- internals ------------------------------------------------------
    def _full_expander(self) -> _WindowExpander:
        """The (cached) expander over the guarded full synthesized CSR."""
        if self._full_inner is None:
            self._full_inner = _WindowExpander(self.graph.csr(), self)
        return self._full_inner

    def _window_partition(
        self,
        seed_cols: List[np.ndarray],
        radii: Tuple[int, ...],
        cols: List[np.ndarray],
        tag: str,
        flags: Tuple[bool, ...],
    ) -> List[ClassPartition]:
        """Run the vectorized core over a synthesized ball window.

        The window holds exact rows for every node within
        ``max(radii)`` of the seeds plus an id-only boundary ring — the
        exact set of rows / targets the packed streams read — so the
        inherited ``_partition_numpy`` produces byte-identical streams,
        keys, labels, and (seed-indexed) reps to the materialized
        full-CSR pass over the same seeds.
        """
        from ..graphs.csr import CSRGraph

        graph = self.graph
        seen: Dict[int, None] = {}
        for arr in seed_cols:
            for v in arr.tolist():
                seen.setdefault(int(v), None)
        core, boundary = graph.window(list(seen), max(radii))
        win, local_of = CSRGraph.synthesize_window(
            graph.neighbors, core, boundary
        )
        mapped_seeds = [
            np.asarray([local_of[int(v)] for v in arr], dtype=np.int64)
            for arr in seed_cols
        ]
        members = np.asarray(core + boundary, dtype=np.int64)
        mapped_cols = [col[members] for col in cols]
        inner = _WindowExpander(win, self, self._stream_dtype(cols))
        return inner._partition_numpy(
            mapped_seeds, radii, mapped_cols, tag, flags
        )


# ----------------------------------------------------------------------
# Layout resolution (the engine's entry points)
# ----------------------------------------------------------------------

#: The built-in layouts every view/edge request on a materialized graph
#: can name.  ``"dict"`` is the reference per-entity path and ``"csr"``
#: gathers over the compiled arrays.
LAYOUTS = ("dict", "csr")


def known_layouts() -> Tuple[str, ...]:
    """Every resolvable layout name (reference first)."""
    return ("dict", "csr", "implicit")


def expander_for(graph: Graph, layout: str = "csr") -> BatchBallExpander:
    """The expander instance serving ``layout`` on ``graph``.

    The ``"csr"`` layout's expander is cached on the graph's compiled
    layout (its block buffers are reusable); ``"implicit"`` serves
    :class:`~repro.graphs.implicit.ImplicitGraph` handles through a
    window-synthesizing expander cached on the handle.
    """
    if layout == "implicit":
        if not getattr(graph, "is_implicit", False):
            raise ValueError(
                'layout "implicit" requires an ImplicitGraph handle; '
                f"got {type(graph).__name__} (use \"csr\" or \"dict\")"
            )
        if graph._expander is None:
            graph._expander = ImplicitBallExpander(graph)
        return graph._expander
    if layout == "csr":
        csr = graph.csr()
        if csr._expander is None:
            csr._expander = BatchBallExpander(graph)
        return csr._expander
    raise ValueError(f"unknown layout {layout!r} (have {known_layouts()})")


def resolve_layout(layout: str, graph: Any) -> str:
    """Resolve a request's layout knob to a concrete layout name.

    ``"auto"`` routes :class:`~repro.graphs.implicit.ImplicitGraph`
    handles to the synthesized ``"implicit"`` path and everything else
    to the reference ``"dict"`` path; anything explicit is validated and
    passed through.
    """
    if layout == "auto":
        if getattr(graph, "is_implicit", False):
            return "implicit" if getattr(graph, "n", 0) > 0 else "dict"
        return "dict"
    if layout == "implicit" and not getattr(graph, "is_implicit", False):
        raise ValueError(
            'layout "implicit" requires an implicit graph family handle '
            "(see docs/IMPLICIT.md); materialized graphs use "
            '"dict"/"csr"'
        )
    if layout not in known_layouts():
        raise ValueError(
            f"unknown layout {layout!r} (have {known_layouts()})"
        )
    return layout


# ----------------------------------------------------------------------
# CSR-backed view materialization (the engine's explicit-csr path)
# ----------------------------------------------------------------------

def gather_view_csr(
    graph: Graph,
    v: int,
    radius: int,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Any] = None,
):
    """:func:`~repro.local_model.views.gather_view` over the CSR arrays.

    Bit-identical views (same exploration order, same port pairs — the
    reverse-port table supplies ``port_to`` in O(1)); the parity suite
    asserts equality against the reference on every generated graph.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    csr = graph.csr()
    order, local, dist = _explore(csr, [v], radius)
    return _collect(
        csr, order, local, dist, radius, 0, ids, inputs, randomness, orientation
    )


def gather_edge_view_csr(
    graph: Graph,
    edge: Tuple[int, int],
    radius: int,
    ids: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[Any]] = None,
    randomness: Optional[Sequence[Any]] = None,
    orientation: Optional[Any] = None,
):
    """:func:`~repro.local_model.views.gather_edge_view` over CSR arrays."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    u, v = edge
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if orientation is not None and orientation.is_labeled(u, v):
        if orientation.sign_at(u, v) > 0:
            u, v = v, u  # make local 0 the endpoint with the negative view
    csr = graph.csr()
    order, local, dist = _explore(csr, [u, v], radius)
    return _collect(
        csr, order, local, dist, radius, 0, ids, inputs, randomness, orientation
    )
