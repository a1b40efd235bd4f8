"""Differential property suite: the CSR core is bit-identical.

Hypothesis generates port-numbered graphs across four shapes — trees,
cycles, irregular random graphs, and multihub (hub-and-spoke) graphs —
each with an adversarially drawn port numbering, and asserts:

* :class:`~repro.graphs.csr.CSRGraph` agrees with :class:`Graph` on
  every structural query (neighbors, ports, degrees, endpoints,
  reverse ports);
* the batched expander's node/edge partitions coincide *exactly* with
  the partition induced by the reference
  :func:`~repro.local_model.views.view_signature` /
  :func:`~repro.local_model.views.edge_view_signature` — same classes,
  same labels, same first-occurrence representatives;
* every layout of the engine seam reproduces the ``"dict"`` report bit
  for bit, on generated graphs and on the deterministic differential
  grid (``tests/differential.py``).

The suite deliberately pins no ``max_examples``: the CI hypothesis
profile (``tests/conftest.py``) raises the case count, so one CI run
drives well over the 300-case floor the acceptance criteria name.

Freeze-contract regressions ride along at the bottom: a frozen graph
must refuse mutation, and ``csr()`` must refuse a mutable graph.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.graphs import CSRGraph, Graph
from repro.graphs.identifiers import random_permutation_ids
from repro.local_model.batch_views import BatchBallExpander
from repro.local_model.views import edge_view_signature, view_signature

from .differential import (
    Case,
    assert_layout_reports_identical,
    run_case_layouts,
    run_edge_case_layouts,
    run_layouts,
)

# ----------------------------------------------------------------------
# Graph strategies: four shapes, adversarial port numberings
# ----------------------------------------------------------------------


def _permuted_rows(draw, rows):
    """Shuffle each adjacency row with a drawn permutation."""
    return [draw(st.permutations(row)) if row else [] for row in rows]


@st.composite
def tree_graphs(draw):
    """Random trees: node v > 0 attaches to a drawn earlier node."""
    n = draw(st.integers(min_value=1, max_value=24))
    rows = [[] for _ in range(n)]
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        rows[parent].append(v)
        rows[v].append(parent)
    return Graph.from_adjacency(_permuted_rows(draw, rows)).freeze()


@st.composite
def cycle_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=24))
    rows = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
    return Graph.from_adjacency(_permuted_rows(draw, rows)).freeze()


@st.composite
def irregular_graphs(draw):
    """Erdős–Rényi-style: each candidate edge flipped independently."""
    n = draw(st.integers(min_value=2, max_value=14))
    rows = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u].append(v)
                rows[v].append(u)
    return Graph.from_adjacency(_permuted_rows(draw, rows)).freeze()


@st.composite
def multihub_graphs(draw):
    """A few high-degree hubs sharing many spokes — degree-skewed."""
    hubs = draw(st.integers(min_value=1, max_value=3))
    leaves = draw(st.integers(min_value=2, max_value=12))
    n = hubs + leaves
    rows = [[] for _ in range(n)]
    for a in range(hubs):
        for b in range(a + 1, hubs):
            rows[a].append(b)
            rows[b].append(a)
    for leaf in range(hubs, n):
        for hub in range(hubs):
            if hub == 0 or draw(st.booleans()):  # always reach hub 0
                rows[hub].append(leaf)
                rows[leaf].append(hub)
    return Graph.from_adjacency(_permuted_rows(draw, rows)).freeze()


graphs = st.one_of(
    tree_graphs(), cycle_graphs(), irregular_graphs(), multihub_graphs()
)

radii = st.integers(min_value=0, max_value=3)

#: Label variants the partition tests draw: nothing, ids, randomness,
#: or both — covering every flag combination the packed stream encodes.
labelings = st.sampled_from(("anonymous", "ids", "random", "both"))


def _labels(graph, labeling):
    rng = random.Random(graph.n * 1013 + graph.m)
    ids = (
        random_permutation_ids(graph, rng)
        if labeling in ("ids", "both")
        else None
    )
    randomness = (
        [rng.getrandbits(16) for _ in graph.nodes()]
        if labeling in ("random", "both")
        else None
    )
    return ids, randomness


# ----------------------------------------------------------------------
# CSRGraph <-> Graph structural parity
# ----------------------------------------------------------------------


@given(graph=graphs)
def test_csr_matches_graph_structure(graph):
    csr = graph.csr()
    assert isinstance(csr, CSRGraph)
    assert (csr.n, csr.m) == (graph.n, graph.m)
    for v in graph.nodes():
        assert csr.degree(v) == graph.degree(v)
        neighbors = graph.neighbors(v)
        assert list(csr.neighbors(v)) == list(neighbors)
        for port, u in enumerate(neighbors):
            assert csr.endpoint(v, port) == graph.endpoint(v, port) == u
            assert csr.port_to(u, v) == graph.port_to(u, v)
            # rev_port is the O(1) answer to "through which of u's
            # ports did v's port-`port` message arrive?"
            assert csr.rev_port(v, port) == graph.port_to(u, v)


@given(graph=graphs)
def test_csr_round_trips_through_pickle(graph):
    csr = graph.csr()
    clone = pickle.loads(pickle.dumps(csr))
    assert (clone.n, clone.m) == (csr.n, csr.m)
    assert clone.indptr.tolist() == csr.indptr.tolist()
    assert clone.indices.tolist() == csr.indices.tolist()
    assert clone.rev_ports.tolist() == csr.rev_ports.tolist()


# ----------------------------------------------------------------------
# Batched partitions == reference-signature partitions, bit for bit
# ----------------------------------------------------------------------


def _assert_partition_matches(part, signatures):
    """The partition equals the one induced by reference signatures.

    Bit-identity here means: same number of classes, same entity ->
    class labeling (up to the shared first-occurrence numbering), and
    each class key standing for exactly one reference signature.
    """
    sig_label = {}
    expected_labels = []
    expected_reps = []
    for i, sig in enumerate(signatures):
        if sig not in sig_label:
            sig_label[sig] = len(sig_label)
            expected_reps.append(i)
        expected_labels.append(sig_label[sig])
    assert part.class_count == len(sig_label)
    assert list(part.labels) == expected_labels
    assert list(part.reps) == expected_reps
    # One key per class, and keys are as distinct as the signatures.
    assert len(set(part.keys)) == part.class_count


@given(graph=graphs, radius=radii, labeling=labelings)
def test_node_partition_matches_reference_signatures(graph, radius, labeling):
    ids, randomness = _labels(graph, labeling)
    part = BatchBallExpander(graph).node_classes(
        radius, ids=ids, randomness=randomness
    )
    signatures = [
        view_signature(graph, v, radius, ids=ids, randomness=randomness)
        for v in graph.nodes()
    ]
    _assert_partition_matches(part, signatures)


@given(graph=graphs, radius=radii, labeling=labelings)
def test_edge_partition_matches_reference_signatures(graph, radius, labeling):
    edges = list(graph.edges())
    if not edges:
        return
    ids, randomness = _labels(graph, labeling)
    part = BatchBallExpander(graph).edge_classes(
        edges, radius, ids=ids, randomness=randomness
    )
    signatures = [
        edge_view_signature(graph, e, radius, ids=ids, randomness=randomness)
        for e in edges
    ]
    _assert_partition_matches(part, signatures)


@given(graph=graphs, labeling=labelings)
def test_multi_radius_partitions_match_single_radius(graph, labeling):
    """One BFS serving several radii equals one BFS per radius."""
    ids, randomness = _labels(graph, labeling)
    expander = BatchBallExpander(graph)
    many = expander.node_classes_many(
        (0, 1, 2), ids=ids, randomness=randomness
    )
    for radius, part in zip((0, 1, 2), many):
        single = expander.node_classes(radius, ids=ids, randomness=randomness)
        assert list(part.labels) == list(single.labels)
        assert list(part.reps) == list(single.reps)
        assert part.keys == single.keys


# ----------------------------------------------------------------------
# Engine seam: every layout reproduces dict
# ----------------------------------------------------------------------


@given(graph=graphs, radius=st.integers(min_value=0, max_value=2))
def test_backend_layout_grid_on_generated_graphs(graph, radius):
    from repro.algorithms.view_rules import make_view_rule
    from repro.core import SimRequest

    rule = make_view_rule("ball-signature", radius=radius)
    ids, _ = _labels(graph, "ids")
    request = SimRequest(
        kind="view", graph=graph, algorithm=rule, ids=ids,
        label="csr-parity",
    )
    assert_layout_reports_identical(
        run_layouts(request), f"generated-n{graph.n}-r{radius}"
    )


#: Deterministic spot checks over the differential grid — one case per
#: (graph family, labeling) flavor, full layout fan-out.
_GRID_CASES = [
    Case("ball-signature", "cycle24", 2, "anonymous"),
    Case("ball-signature", "tree3d3", 3, "anonymous"),
    Case("local-max", "torus5x6", 1, "ids"),
    Case("local-max", "caterpillar6x2", 2, "ids"),
    Case("random-priority", "rr20d4", 2, "random"),
    Case("degree-profile", "star8", 1, "anonymous"),
    Case("ball-signature", "clique7", 2, "anonymous"),
    Case("degree-profile", "path17", 3, "anonymous"),
]


@pytest.mark.parametrize(
    "case", _GRID_CASES, ids=[c.case_id for c in _GRID_CASES]
)
def test_layout_grid_on_differential_cases(case):
    assert_layout_reports_identical(run_case_layouts(case), case.case_id)


@pytest.mark.parametrize(
    "graph_name,rounds",
    [("cycle24", 1), ("tree3d3", 2), ("torus5x6", 3), ("rr20d4", 2)],
)
def test_layout_grid_on_edge_cases(graph_name, rounds):
    assert_layout_reports_identical(
        run_edge_case_layouts(graph_name, rounds),
        f"edge-t{rounds}-{graph_name}",
    )


# ----------------------------------------------------------------------
# Freeze contract regressions
# ----------------------------------------------------------------------


def test_add_edge_after_freeze_raises():
    graph = Graph(4, edges=[(0, 1), (1, 2)])
    graph.freeze()
    with pytest.raises(ValueError, match="frozen"):
        graph.add_edge(2, 3)
    # The failed mutation left nothing behind.
    assert graph.m == 2
    assert graph.degree(3) == 0


def test_from_adjacency_freeze_then_add_edge_raises():
    graph = Graph.from_adjacency([[1], [0], []]).freeze()
    with pytest.raises(ValueError, match="frozen"):
        graph.add_edge(1, 2)


def test_freeze_is_idempotent_and_visible():
    graph = Graph(3, edges=[(0, 1)])
    assert not graph.is_frozen
    assert graph.freeze() is graph
    assert graph.freeze() is graph  # second freeze is a no-op
    assert graph.is_frozen


def test_csr_requires_frozen_graph():
    graph = Graph(3, edges=[(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="frozen"):
        graph.csr()
    graph.freeze()
    csr = graph.csr()
    assert csr is graph.csr()  # built once, cached


def test_csr_from_graph_requires_frozen_graph():
    with pytest.raises(ValueError, match="frozen"):
        CSRGraph.from_graph(Graph(2, edges=[(0, 1)]))


def test_graph_pickle_drops_cached_csr():
    graph = Graph(3, edges=[(0, 1), (1, 2)]).freeze()
    first = graph.csr()
    clone = pickle.loads(pickle.dumps(graph))
    assert clone.is_frozen
    rebuilt = clone.csr()
    assert rebuilt is not first  # lazily rebuilt, not shipped
    assert rebuilt.indices.tolist() == first.indices.tolist()
