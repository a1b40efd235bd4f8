"""Differential property suite: the implicit path is bit-identical.

Hypothesis draws implicit family handles (cycle, path, torus, balanced
tree) at sizes where the materialized twin also exists, and asserts:

* the handle agrees with its materialized twin on every structural
  query (rows, ports, degrees, edges order, BFS distances, pickle);
* :class:`~repro.local_model.batch_views.ImplicitBallExpander`
  partitions (node, edge, subset-of-sources, every labeling flavor)
  coincide *exactly* — keys, labels, first-occurrence representatives —
  with :class:`~repro.local_model.batch_views.BatchBallExpander` over
  the materialized twin;
* the closed-form class counter's multiplicities equal the bincount of
  the full partition's labels, with the same keys and representatives;
* every layout reproduces the materialized SimReport bit for bit from
  the implicit handle, including RNG streams on the ``local`` kind.

Golden pins at the bottom freeze the packed-row byte digests and the
class-multiplicity tables for one instance per family, so a signature
scheme or closed-form drift is caught even without hypothesis.
Freeze/pickle regressions for the generator families (satellite of the
implicit refactor) ride along.
"""

from __future__ import annotations

import hashlib
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.core import SimRequest, simulate
from repro.core.registry import (
    GRAPH_FAMILIES,
    RegistryError,
    build_graph,
    ensure_builtins,
)
from repro.graphs import (
    Graph,
    ImplicitCycle,
    ImplicitGraph,
    ImplicitMaterializeError,
    ImplicitPath,
    ImplicitTorus,
    ImplicitTree,
    implicit_tree_of_size_at_least,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    balanced_regular_tree,
    cycle,
    path,
    toroidal_grid,
)
from repro.local_model.batch_views import (
    BatchBallExpander,
    ClassCounts,
    ImplicitBallExpander,
    expander_for,
    known_layouts,
    resolve_layout,
)

# ----------------------------------------------------------------------
# Handle strategies: every implicit family at materializable sizes
# ----------------------------------------------------------------------


@st.composite
def implicit_cycles(draw):
    return ImplicitCycle(draw(st.integers(min_value=3, max_value=30)))


@st.composite
def implicit_paths(draw):
    return ImplicitPath(draw(st.integers(min_value=1, max_value=30)))


@st.composite
def implicit_tori(draw):
    rows = draw(st.integers(min_value=3, max_value=7))
    cols = draw(st.integers(min_value=3, max_value=7))
    return ImplicitTorus(rows, cols)


@st.composite
def implicit_trees(draw):
    delta = draw(st.integers(min_value=2, max_value=4))
    depth = draw(st.integers(min_value=0, max_value=4))
    return ImplicitTree(delta, depth)


handles = st.one_of(
    implicit_cycles(), implicit_paths(), implicit_tori(), implicit_trees()
)

radii = st.integers(min_value=0, max_value=3)

labelings = st.sampled_from(("anonymous", "ids", "random", "both"))


def _labels(graph, labeling):
    rng = random.Random(graph.n * 2029 + graph.m)
    ids = (
        [int(x) for x in rng.sample(range(1, 4 * graph.n + 2), graph.n)]
        if labeling in ("ids", "both")
        else None
    )
    randomness = (
        [rng.getrandbits(16) for _ in range(graph.n)]
        if labeling in ("random", "both")
        else None
    )
    return ids, randomness


def _assert_partitions_equal(a, b, context):
    assert a.keys == b.keys, context
    assert list(a.labels) == list(b.labels), context
    assert list(a.reps) == list(b.reps), context


# ----------------------------------------------------------------------
# Structural parity: handle == materialized twin on the Graph API
# ----------------------------------------------------------------------


@given(handle=handles)
def test_implicit_structure_matches_materialized(handle):
    twin = handle.materialized()
    assert (handle.n, handle.m) == (twin.n, twin.m)
    assert handle.max_degree() == twin.max_degree()
    assert handle.min_degree() == twin.min_degree()
    assert list(handle.nodes()) == list(twin.nodes())
    for v in twin.nodes():
        row = list(twin.neighbors(v))
        assert list(handle.neighbors(v)) == row
        assert handle.degree(v) == twin.degree(v)
        assert list(handle.adjacency_rows()[v]) == row
        for port, u in enumerate(row):
            assert handle.endpoint(v, port) == u
            assert handle.port_to(v, u) == twin.port_to(v, u)
            assert handle.has_edge(v, u)
    assert list(handle.edges()) == list(twin.edges())
    # Closed-form identifier assignment matches sequential_ids(twin).
    from repro.graphs.identifiers import sequential_ids

    assert [
        handle.sequential_id(v) for v in handle.nodes()
    ] == sequential_ids(twin)


@given(handle=handles)
def test_implicit_bfs_and_csr_match_materialized(handle):
    twin = handle.materialized()
    source = handle.n // 2
    assert handle.bfs_distances(source) == twin.bfs_distances(source)
    assert handle.bfs_distances(source, cutoff=2) == twin.bfs_distances(
        source, cutoff=2
    )
    csr_i, csr_m = handle.csr(), twin.csr()
    assert csr_i.indptr.tolist() == csr_m.indptr.tolist()
    assert csr_i.indices.tolist() == csr_m.indices.tolist()
    assert csr_i.rev_ports.tolist() == csr_m.rev_ports.tolist()


@given(handle=handles)
def test_implicit_handle_round_trips_through_pickle(handle):
    clone = pickle.loads(pickle.dumps(handle))
    assert type(clone) is type(handle)
    assert (clone.n, clone.m) == (handle.n, handle.m)
    probe = min(handle.n - 1, 3)
    assert list(clone.neighbors(probe)) == list(handle.neighbors(probe))


def test_implicit_port_to_error_matches_graph():
    handle = ImplicitCycle(9)
    twin = handle.materialized()
    with pytest.raises(ValueError) as got:
        handle.port_to(0, 4)
    with pytest.raises(ValueError) as want:
        twin.port_to(0, 4)
    assert str(got.value) == str(want.value)


def test_implicit_is_frozen_and_freeze_is_identity():
    handle = ImplicitTorus(3, 4)
    assert handle.is_frozen
    assert handle.freeze() is handle


# ----------------------------------------------------------------------
# Window lemma: synthesized windows are exact and self-contained
# ----------------------------------------------------------------------


@given(handle=handles, radius=radii)
def test_window_core_matches_bfs_ball(handle, radius):
    sources = sorted({0, handle.n // 2, handle.n - 1})
    core, boundary = handle.window(sources, radius)
    dist = {}
    for s in sources:
        for v, d in handle.bfs_distances(s, cutoff=radius + 1).items():
            dist[v] = min(dist.get(v, d), d)
    assert sorted(core) == sorted(v for v, d in dist.items() if d <= radius)
    assert sorted(boundary) == sorted(
        v for v, d in dist.items() if d == radius + 1
    )
    assert not set(core) & set(boundary)


def test_synthesize_window_rejects_missing_neighbor():
    handle = ImplicitCycle(10)
    with pytest.raises(ValueError, match="self-contained"):
        CSRGraph.synthesize_window(handle.neighbors, [0, 1], [2])


def test_synthesize_window_rejects_duplicates():
    handle = ImplicitCycle(10)
    with pytest.raises(ValueError, match="duplicate"):
        CSRGraph.synthesize_window(handle.neighbors, [0, 1], [1, 2, 9])


# ----------------------------------------------------------------------
# Partition parity: implicit expander == materialized expander
# ----------------------------------------------------------------------


@given(handle=handles, radius=radii, labeling=labelings)
def test_node_partition_parity(handle, radius, labeling):
    ids, randomness = _labels(handle, labeling)
    got = ImplicitBallExpander(handle).node_classes(
        radius, ids=ids, randomness=randomness
    )
    want = BatchBallExpander(handle.materialized()).node_classes(
        radius, ids=ids, randomness=randomness
    )
    _assert_partitions_equal(got, want, (handle, radius, labeling))


@given(handle=handles, radius=radii, labeling=labelings, data=st.data())
def test_subset_node_partition_parity(handle, radius, labeling, data):
    ids, randomness = _labels(handle, labeling)
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=handle.n - 1),
            min_size=0,
            max_size=6,
            unique=True,
        )
    )
    got = ImplicitBallExpander(handle).node_classes(
        radius, ids=ids, randomness=randomness, sources=sources
    )
    want = BatchBallExpander(handle.materialized()).node_classes(
        radius, ids=ids, randomness=randomness, sources=sources
    )
    _assert_partitions_equal(got, want, (handle, radius, labeling, sources))


@given(handle=handles, radius=radii, labeling=labelings)
def test_edge_partition_parity(handle, radius, labeling):
    twin = handle.materialized()
    edges = list(twin.edges())
    if not edges:
        return
    ids, randomness = _labels(handle, labeling)
    got = ImplicitBallExpander(handle).edge_classes(
        edges, radius, ids=ids, randomness=randomness
    )
    want = BatchBallExpander(twin).edge_classes(
        edges, radius, ids=ids, randomness=randomness
    )
    _assert_partitions_equal(got, want, (handle, radius, labeling))


@given(handle=handles, radius=st.integers(min_value=0, max_value=2))
def test_fallback_labeling_parity(handle, radius):
    """Non-integer inputs force the per-entity reference fallback."""
    inputs = [f"label-{v % 3}" for v in range(handle.n)]
    got = ImplicitBallExpander(handle).node_classes(radius, inputs=inputs)
    want = BatchBallExpander(handle.materialized()).node_classes(
        radius, inputs=inputs
    )
    _assert_partitions_equal(got, want, (handle, radius, "fallback"))


# ----------------------------------------------------------------------
# Class counts: exact multiplicities from closed-form strata
# ----------------------------------------------------------------------


@given(handle=handles)
def test_class_counts_equal_full_partition_bincount(handle):
    counter = ImplicitBallExpander(handle)
    full = BatchBallExpander(handle.materialized())
    counts = counter.class_counts_many((0, 1, 2, 3))
    parts = full.node_classes_many((0, 1, 2, 3))
    for cc, part in zip(counts, parts):
        assert isinstance(cc, ClassCounts)
        bincount = [0] * part.class_count
        for label in part.labels:
            bincount[label] += 1
        assert cc.keys == part.keys
        assert list(cc.reps) == list(part.reps)
        assert list(cc.counts) == bincount
        assert cc.total == handle.n
        assert cc.class_count == part.class_count


@given(handle=handles, radius=radii)
def test_strata_are_sound_and_cover(handle, radius):
    """Strata partition [0, n) and members share their rep's class."""
    strata = handle.strata(radius)
    covered = 0
    reps = []
    for rep, count in strata:
        assert count >= 1
        reps.append(rep)
        covered += count
    assert covered == handle.n
    assert reps == sorted(reps)
    part = BatchBallExpander(handle.materialized()).node_classes(radius)
    rep_iter = iter(reps)
    # Reps must hit every class in first-occurrence order.
    seen = []
    for rep in rep_iter:
        label = part.labels[rep]
        if label not in seen:
            seen.append(label)
    assert seen == list(range(part.class_count))


def test_class_counts_at_headline_scale_stay_tiny():
    """n = 10^6 instances: O(1)/O(depth) classes, exact coverage."""
    for handle, ceiling in (
        (ImplicitCycle(1_000_000), 7),
        (ImplicitTorus(1000, 1000), 49),
        (implicit_tree_of_size_at_least(4, 1_000_000)[0], 200),
    ):
        cc = expander_for(handle, "implicit").class_counts(2)
        assert cc.total == handle.n
        assert cc.class_count <= ceiling


# ----------------------------------------------------------------------
# Engine parity: SimReports identical from handle and twin
# ----------------------------------------------------------------------

_ENGINE_HANDLES = [ImplicitCycle(13), ImplicitTorus(3, 5), ImplicitTree(3, 2)]


@pytest.mark.parametrize(
    "handle", _ENGINE_HANDLES, ids=lambda h: repr(h).lower()
)
def test_view_reports_identical_across_layout_grid(handle):
    from repro.algorithms.view_rules import make_view_rule

    twin = handle.materialized()
    ids = [3 * v + 7 for v in range(handle.n)]
    reports = {}
    for graph, layout in (
        (handle, "auto"),
        (handle, "implicit"),
        (handle, "dict"),
        (twin, "auto"),
        (twin, "dict"),
        (twin, "csr"),
    ):
        request = SimRequest(
            kind="view",
            graph=graph,
            algorithm=make_view_rule("local-max", radius=1),
            ids=ids,
            layout=layout,
            label="implicit-parity",
        )
        reports[(graph is handle, layout)] = simulate(request)
    baseline = reports[(False, "dict")]
    for key, report in reports.items():
        assert report.outputs == baseline.outputs, key
        assert report.rounds == baseline.rounds, key
        assert report.halt_rounds == baseline.halt_rounds, key


@pytest.mark.parametrize(
    "handle", _ENGINE_HANDLES, ids=lambda h: repr(h).lower()
)
def test_local_rng_streams_identical(handle):
    """The seeded ``local`` kind must draw identical RNG streams."""
    from repro.core.registry import ALGORITHMS

    ensure_builtins()
    twin = handle.materialized()
    algorithm = ALGORITHMS.get("randomized-weak-coloring")
    got = simulate(
        SimRequest(
            kind="local", graph=handle, algorithm=algorithm.create(),
            seed=424242, label="implicit-rng",
        )
    )
    want = simulate(
        SimRequest(
            kind="local", graph=twin, algorithm=algorithm.create(),
            seed=424242, label="implicit-rng",
        )
    )
    assert got.outputs == want.outputs
    assert got.rounds == want.rounds
    assert got.halt_rounds == want.halt_rounds


# ----------------------------------------------------------------------
# Guards: materialization never sneaks past the limit
# ----------------------------------------------------------------------


def test_over_limit_materialization_raises():
    handle = ImplicitCycle(ImplicitGraph.materialize_limit + 1)
    assert not handle.can_materialize
    for attempt in (
        handle.csr,
        handle.materialized,
        lambda: list(handle.edges()),
        lambda: handle.bfs_distances(0),
    ):
        with pytest.raises(ImplicitMaterializeError, match="IMPLICIT"):
            attempt()
    # Windowed access stays fine at any n.
    core, boundary = handle.window([0], 1)
    assert len(core) == 3 and len(boundary) == 2


def test_under_limit_materialization_is_allowed():
    handle = ImplicitCycle(64)
    assert handle.can_materialize
    assert handle.materialized().n == 64


def test_layout_registry_guards():
    assert "implicit" in known_layouts()
    materialized = cycle(8)
    handle = ImplicitCycle(8)
    assert resolve_layout("auto", handle) == "implicit"
    assert resolve_layout("auto", materialized) == "dict"
    assert resolve_layout("implicit", handle) == "implicit"
    with pytest.raises(ValueError, match="implicit"):
        resolve_layout("implicit", materialized)
    with pytest.raises(ValueError, match="ImplicitGraph"):
        expander_for(materialized, "implicit")
    assert expander_for(handle, "implicit") is expander_for(handle, "implicit")


# ----------------------------------------------------------------------
# Registry: implicit builders and the no-closed-form error
# ----------------------------------------------------------------------


def test_build_graph_returns_implicit_handles():
    ensure_builtins()
    for params, expected in (
        ({"graph": "cycle", "n": 17}, ImplicitCycle),
        ({"graph": "path", "n": 9}, ImplicitPath),
        ({"graph": "torus", "rows": 4, "cols": 6}, ImplicitTorus),
        ({"graph": "tree", "delta": 3, "depth": 2}, ImplicitTree),
    ):
        handle = build_graph({**params, "implicit": True})
        assert isinstance(handle, expected)
        twin = build_graph(params)
        assert (handle.n, handle.m) == (twin.n, twin.m)
        assert not getattr(twin, "is_implicit", False)


def test_build_graph_no_closed_form_names_fallback():
    ensure_builtins()
    with pytest.raises(RegistryError, match="random_regular_graph"):
        build_graph({"graph": "random-regular", "n": 10, "d": 3,
                     "implicit": True})
    fallback = build_graph({"graph": "random-regular", "n": 10, "d": 3})
    assert fallback.n == 10 and fallback.is_regular(3)


def test_registered_implicit_families_carry_builders():
    ensure_builtins()
    flagged = {
        entry.name
        for entry in GRAPH_FAMILIES.entries()
        if entry.metadata.get("implicit")
        and not entry.metadata.get("fixture")
    }
    assert flagged == {"cycle", "path", "torus", "tree"}
    for name in flagged:
        assert GRAPH_FAMILIES.get(name).metadata["implicit_builder"] is not None


# ----------------------------------------------------------------------
# Generator freeze contract (satellite): frozen returns, pickle rebuilds
# ----------------------------------------------------------------------

_GENERATOR_TWINS = [
    ("cycle", lambda: cycle(14)),
    ("path", lambda: path(11)),
    ("torus", lambda: toroidal_grid(4, 5)),
    ("tree", lambda: balanced_regular_tree(3, 3)),
]


@pytest.mark.parametrize(
    "name,factory", _GENERATOR_TWINS, ids=[n for n, _ in _GENERATOR_TWINS]
)
def test_generators_return_frozen_graphs(name, factory):
    graph = factory()
    assert graph.is_frozen
    assert graph.freeze() is graph  # idempotent, no re-freeze dance


@pytest.mark.parametrize(
    "name,factory", _GENERATOR_TWINS, ids=[n for n, _ in _GENERATOR_TWINS]
)
def test_generator_freeze_pickle_csr_rebuilds(name, factory):
    graph = factory()
    first = graph.csr()
    expander = BatchBallExpander(graph)
    assert first._expander is expander or first._expander is None
    clone = pickle.loads(pickle.dumps(graph))
    assert clone.is_frozen
    assert clone is not graph
    rebuilt = clone.csr()
    assert rebuilt is not first  # cache was dropped, not smuggled
    assert rebuilt.indptr.tolist() == first.indptr.tolist()
    assert rebuilt.indices.tolist() == first.indices.tolist()
    assert rebuilt.rev_ports.tolist() == first.rev_ports.tolist()
    assert rebuilt._expander is None  # expander cache dropped too


# ----------------------------------------------------------------------
# Golden pins: packed-row digests + class multiplicities per family
# ----------------------------------------------------------------------

#: (handle factory, radius) -> (sha256[:16] of concatenated class-key
#: stream bytes, class counts, class representatives).  Any drift in
#: the packed-stream scheme, the closed-form rows, or the strata shows
#: up here without hypothesis in the loop.
_GOLDEN = {
    ("cycle12", 0): ("5f3a137061e8f874", [12], [0]),
    ("cycle12", 1): ("60915ed5d23b59e0", [1, 1, 9, 1], [0, 1, 2, 11]),
    ("cycle12", 2): (
        "30c0db86ca316c90", [1, 1, 1, 7, 1, 1], [0, 1, 2, 3, 10, 11]
    ),
    ("torus4x5", 0): ("79cc36396f7b0ded", [20], [0]),
    ("torus4x5", 1): (
        "a6c81e6c6fe72da1",
        [1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1],
        [0, 1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 14, 15, 16, 17, 19],
    ),
    ("torus4x5", 2): ("caabb386739e1534", [1] * 20, list(range(20))),
    ("tree3d3", 0): ("a3bdfb4989ada960", [10, 12], [0, 10]),
    ("tree3d3", 1): (
        "94fe6b15c4172fa8", [2, 1, 1, 3, 3, 6, 6], [0, 2, 3, 4, 5, 10, 11]
    ),
    ("tree3d3", 2): (
        "59867d0ebb385051",
        [1] * 10 + [3] * 4,
        list(range(14)),
    ),
}

_GOLDEN_HANDLES = {
    "cycle12": lambda: ImplicitCycle(12),
    "torus4x5": lambda: ImplicitTorus(4, 5),
    "tree3d3": lambda: ImplicitTree(3, 3),
}


@pytest.mark.parametrize(
    "name,radius", sorted(_GOLDEN), ids=[f"{n}-r{r}" for n, r in sorted(_GOLDEN)]
)
def test_golden_class_counts_and_stream_digests(name, radius):
    handle = _GOLDEN_HANDLES[name]()
    expected_digest, expected_counts, expected_reps = _GOLDEN[(name, radius)]
    cc = ImplicitBallExpander(handle).class_counts(radius)
    digest = hashlib.sha256()
    for key in cc.keys:
        digest.update(key[-1])  # the packed stream bytes
    assert digest.hexdigest()[:16] == expected_digest
    assert list(cc.counts) == expected_counts
    assert list(cc.reps) == expected_reps
    # The materialized path pins to the very same bytes.
    part = BatchBallExpander(handle.materialized()).node_classes(radius)
    assert part.keys == cc.keys
