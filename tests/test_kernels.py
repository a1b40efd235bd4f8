"""The vectorized kernel layer is *exact* — bit for bit, errors included.

``src/repro/local_model/kernels.py`` claims that a registered kernel
(a class-table view kernel or a round-synchronous local kernel) is
indistinguishable from the reference per-node Python path except in
speed.  This suite turns that claim into properties:

* **local-kernel parity** — Cole-Vishkin, flood-leader-parity, and
  randomized weak coloring run bit-identically through the reference
  loop (``DirectEngine`` on ``layout="auto"``) and the explicit
  ``layout="kernel"`` path, on hypothesis-generated frozen graphs;
* **error parity** — the kernel raises the *same* exception type and
  message as the reference loop (improper CV colors, runaway round
  budgets, malformed ``ids`` / ``inputs``);
* **stream parity** — a declined or completed kernel run leaves the
  request's master RNG in exactly the reference state, so downstream
  draws cannot depend on which path executed;
* **fallback exactness** — algorithms without a kernel, unfrozen
  graphs, and ``supports()`` declines all fall back to the reference
  loop and say so in ``SimReport.info``;
* **view-kernel parity** — class-table kernels match the dict layout,
  and the per-representative fallback handles rules
  with no kernel (including non-integer outputs through
  :func:`~repro.local_model.kernels.broadcast_table`'s list path);
* **observability** — ``on_kernel`` events populate the ``kernel_*``
  metrics counters;
* **multi-radius reuse** — ``node_classes_many`` partitions feed
  per-radius kernels with no stale label state between radii;
* the conformance ``broken-kernel-views`` fixture really does diverge
  (the self-test's planted bug is a live one).

The kernel-authoring contract itself is documented in
``docs/KERNELS.md``.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.message_passing import (
    ColeVishkinMP,
    FloodLeaderParity,
    GreedySequentialColoring,
    RandomizedWeakColoring,
)
from repro.algorithms.view_rules import LocalMaximumRule, make_view_rule
from repro.core import SimRequest, simulate
from repro.core.direct import DirectEngine
from repro.graphs import Graph, balanced_regular_tree, cycle, path
from repro.graphs.identifiers import random_permutation_ids
from repro.instrumentation.metrics import MetricsTracer
from repro.local_model import kernels
from repro.local_model.batch_views import expander_for
from repro.local_model.edge_model import EdgeViewAlgorithm

# ----------------------------------------------------------------------
# Graph strategies (all frozen by their generators; every node has a
# neighbor, which Cole-Vishkin's successor pointers require)
# ----------------------------------------------------------------------

graphs = st.one_of(
    st.integers(3, 24).map(cycle),
    st.integers(2, 24).map(path),
    st.tuples(st.integers(2, 3), st.integers(1, 4)).map(
        lambda t: balanced_regular_tree(*t)
    ),
)


def _cv_inputs(graph):
    """Pseudoforest inputs: point at the smallest neighbor, color = v.

    Identifiers double as colors, so the initial coloring is proper
    along every edge (in particular along successor pointers).
    """
    inputs = []
    for v in graph.nodes():
        nb = list(graph.neighbors(v))
        inputs.append((nb.index(min(nb)), v))
    return inputs


def _color_bits(graph):
    return max(1, (graph.n - 1).bit_length())


def _paths(request):
    """(reference, explicit-kernel) reports for one request."""
    return (
        DirectEngine().run(request),
        DirectEngine().run(replace(request, layout="kernel")),
    )


# ----------------------------------------------------------------------
# Local-kernel parity (the tentpole claim)
# ----------------------------------------------------------------------

@given(graph=graphs)
@settings(deadline=None)
def test_cole_vishkin_kernel_parity(graph):
    request = SimRequest(
        kind="local",
        graph=graph,
        algorithm=ColeVishkinMP(color_bits=_color_bits(graph)),
        inputs=_cv_inputs(graph),
        deterministic=True,
    )
    reference, kernel = _paths(request)
    assert kernel.identity() == reference.identity()
    assert kernel.info["kernel"] == "vectorized"


@given(graph=graphs, seed=st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_flood_kernel_parity(graph, seed):
    request = SimRequest(
        kind="local",
        graph=graph,
        algorithm=FloodLeaderParity(),
        ids=random_permutation_ids(graph, random.Random(seed)),
        seed=seed,
    )
    reference, kernel = _paths(request)
    assert kernel.identity() == reference.identity()
    assert kernel.info["kernel"] == "vectorized"


@given(graph=graphs, seed=st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_weak_coloring_kernel_parity(graph, seed):
    """Per-node RNG streams must match the reference draw-for-draw."""
    request = SimRequest(
        kind="local",
        graph=graph,
        algorithm=RandomizedWeakColoring(),
        seed=seed,
        label=f"weak-{seed}",
    )
    reference, kernel = _paths(request)
    assert kernel.identity() == reference.identity()
    assert kernel.info["kernel"] == "vectorized"


def test_weak_coloring_kernel_handles_isolated_nodes():
    """Isolated nodes halt at round 0 and draw no colors — either path."""
    graph = Graph(5, [(0, 1), (1, 2)]).freeze()  # nodes 3, 4 isolated
    request = SimRequest(
        kind="local", graph=graph, algorithm=RandomizedWeakColoring(), seed=11
    )
    reference, kernel = _paths(request)
    assert kernel.identity() == reference.identity()
    assert reference.halt_rounds[3] == 0 and reference.halt_rounds[4] == 0


# ----------------------------------------------------------------------
# Error parity: the kernel fails exactly like the reference loop
# ----------------------------------------------------------------------

def _both_raise(request, exc_type):
    """Run reference and kernel paths; return the two exception strings."""
    messages = []
    for layout in ("auto", "kernel"):
        with pytest.raises(exc_type) as info:
            DirectEngine().run(replace(request, layout=layout))
        messages.append(str(info.value))
    return messages


def test_cv_improper_coloring_error_parity():
    graph = cycle(4)
    request = SimRequest(
        kind="local",
        graph=graph,
        algorithm=ColeVishkinMP(color_bits=3),
        inputs=[(0, 5)] * 4,  # every node colored 5: improper everywhere
        deterministic=True,
    )
    reference_msg, kernel_msg = _both_raise(request, ValueError)
    assert kernel_msg == reference_msg
    assert "distinct colors" in reference_msg


def test_runaway_round_budget_error_parity():
    graph = cycle(10)
    request = SimRequest(
        kind="local",
        graph=graph,
        algorithm=FloodLeaderParity(),
        ids=list(range(10)),
        max_rounds=3,  # flood needs n rounds; 3 is a runaway budget
    )
    reference_msg, kernel_msg = _both_raise(request, RuntimeError)
    assert kernel_msg == reference_msg
    assert "still running after 3 rounds" in reference_msg


@pytest.mark.parametrize("field", ["ids", "inputs"])
def test_label_length_error_parity(field):
    graph = cycle(6)
    values = {
        "ids": {"ids": [1, 2, 3]},
        "inputs": {"inputs": [(0, 1)] * 7},
    }[field]
    request = SimRequest(
        kind="local",
        graph=graph,
        algorithm=FloodLeaderParity() if field == "ids" else ColeVishkinMP(3),
        **values,
    )
    reference_msg, kernel_msg = _both_raise(request, ValueError)
    assert kernel_msg == reference_msg
    assert f"{field} must have one entry per node" in reference_msg


@pytest.mark.parametrize("field", ["ids", "inputs", "randomness"])
@pytest.mark.parametrize("layout", ["dict", "csr", "kernel"])
@pytest.mark.parametrize("kind", ["view", "edge"])
def test_view_label_length_errors(kind, layout, field):
    """A labeling of the wrong length is a named error on every layout."""
    graph = cycle(10)
    algorithm = (
        make_view_rule("local-max", radius=1) if kind == "view"
        else EdgeViewAlgorithm(1, _edge_ball_size, name="edge-ball-size")
    )
    for labels in ([5, 6, 7], list(range(11))):
        request = SimRequest(
            kind=kind, graph=graph, algorithm=algorithm, layout=layout,
            **{field: labels},
        )
        with pytest.raises(
            ValueError, match=f"^{field} must have one entry per node$"
        ):
            simulate(request)


# ----------------------------------------------------------------------
# Stream parity + fallback semantics
# ----------------------------------------------------------------------

def test_kernel_run_preserves_master_rng_stream():
    """After a run, the master RNG sits at the same point on both paths."""
    tails = []
    for layout in ("auto", "kernel"):
        rng = random.Random(1234)
        DirectEngine().run(
            SimRequest(
                kind="local",
                graph=cycle(9),
                algorithm=RandomizedWeakColoring(),
                rng=rng,
                layout=layout,
            )
        )
        tails.append(rng.random())
    assert tails[0] == tails[1]


def test_declined_kernel_preserves_master_rng_stream():
    """A ``supports()`` decline happens before any master-RNG draw."""
    from repro.graphs.orientation import orient_tree

    graph = path(8)
    tails = []
    for layout in ("auto", "kernel"):
        rng = random.Random(77)
        report = DirectEngine().run(
            SimRequest(
                kind="local",
                graph=graph,
                algorithm=RandomizedWeakColoring(),
                rng=rng,
                layout=layout,
                # Weak coloring's kernel refuses oriented runs, which
                # the reference loop allows: a guaranteed decline.
                orientation=orient_tree(graph, 1),
            )
        )
        if layout == "kernel":
            assert report.info["kernel"] == "fallback"
            assert "orientation" in report.info["kernel_reason"]
        tails.append(rng.random())
    assert tails[0] == tails[1]


def test_no_kernel_algorithm_falls_back_identically():
    # Greedy coloring registers no round kernel (LubyMIS now does).
    request = SimRequest(
        kind="local", graph=cycle(12), algorithm=GreedySequentialColoring(),
        ids=list(range(12)), seed=3
    )
    reference = DirectEngine().run(request)
    kernel = DirectEngine().run(replace(request, layout="kernel"))
    assert kernel.identity() == reference.identity()
    assert kernel.info["kernel"] == "fallback"
    assert kernel.info["kernel_reason"] == "no-kernel"
    assert "kernel" not in reference.info  # no kernel wanted: clean info


def test_unfrozen_graph_falls_back_identically():
    graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])  # not frozen
    request = SimRequest(
        kind="local",
        graph=graph,
        algorithm=FloodLeaderParity(),
        ids=[5, 3, 1, 0, 2, 4],
    )
    reference = DirectEngine().run(request)
    kernel = DirectEngine().run(replace(request, layout="kernel"))
    assert kernel.identity() == reference.identity()
    assert kernel.info["kernel"] == "fallback"
    assert "not frozen" in kernel.info["kernel_reason"]


def test_direct_auto_never_escalates():
    """``layout="auto"`` is the reference loop, even with a kernel."""
    request = SimRequest(
        kind="local",
        graph=cycle(8),
        algorithm=FloodLeaderParity(),
        ids=list(range(8)),
    )
    report = DirectEngine().run(request)
    assert "kernel" not in report.info


# ----------------------------------------------------------------------
# View kernels: class-table apply + fallback
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rule_name,labeling", [
    ("local-max", "ids"),
    ("random-priority", "random"),
])
@pytest.mark.parametrize("radius", [1, 2])
def test_view_kernel_matches_dict_layout(rule_name, labeling, radius):
    rng = random.Random(radius * 101 + len(rule_name))
    for graph in (cycle(17), path(12), balanced_regular_tree(3, 3)):
        rule = make_view_rule(rule_name, radius=radius)
        labels = {
            "ids": {"ids": random_permutation_ids(graph, rng)},
            "random": {"randomness": [rng.getrandbits(12) for _ in graph.nodes()]},
        }[labeling]
        request = SimRequest(kind="view", graph=graph, algorithm=rule, **labels)
        reference = simulate(replace(request, layout="dict"))
        report = simulate(replace(request, layout="kernel"))
        assert report.identity() == reference.identity(), (
            f"{rule_name}-r{radius} diverges on the kernel layout"
        )
        assert report.info["kernel"] == "vectorized"


def test_view_kernel_fallback_handles_non_integer_outputs():
    """No kernel registered + tuple outputs: the per-rep fallback path."""
    graph = balanced_regular_tree(3, 3)
    rule = make_view_rule("ball-signature", radius=2)
    request = SimRequest(kind="view", graph=graph, algorithm=rule)
    reference = simulate(replace(request, layout="dict"))
    report = simulate(replace(request, layout="kernel"))
    assert report.identity() == reference.identity()
    assert report.info["kernel"] == "fallback"


def test_edge_kernel_layout_matches_dict_layout():
    graph = cycle(14)
    randomness = [random.Random(9).getrandbits(12) for _ in graph.nodes()]
    algorithm = EdgeViewAlgorithm(2, _edge_ball_size, name="edge-ball-size")
    request = SimRequest(
        kind="edge", graph=graph, algorithm=algorithm, randomness=randomness
    )
    reference = simulate(replace(request, layout="dict"))
    report = simulate(replace(request, layout="kernel"))
    assert report.identity() == reference.identity()


def _edge_ball_size(view):
    return (view.node_count, len(view.edges))


# ----------------------------------------------------------------------
# PackedRows / broadcast_table units
# ----------------------------------------------------------------------

def test_packed_rows_declines_python_path_partitions():
    graph = cycle(6)
    part = expander_for(graph, "csr").node_classes(1, inputs=["a"] * 6)
    assert part.path == "python"
    with pytest.raises(kernels.KernelUnsupported):
        kernels.PackedRows.from_partition(part)


def test_packed_rows_columns_match_graph_structure():
    graph = path(5)
    ids = [40, 10, 30, 20, 50]
    part = expander_for(graph, "csr").node_classes(1, ids=ids)
    rows = kernels.PackedRows.from_partition(part)
    assert rows.count == part.class_count
    centers = rows.center("ids")
    maxima = rows.segment_max("ids")
    for c, rep in enumerate(part.reps):
        ball = {rep} | set(graph.neighbors(rep))
        assert centers[c] == ids[rep]
        assert maxima[c] == max(ids[v] for v in ball)


def test_packed_rows_missing_slot_raises():
    graph = cycle(5)
    part = expander_for(graph, "csr").node_classes(1, ids=list(range(5)))
    rows = kernels.PackedRows.from_partition(part)
    with pytest.raises(kernels.KernelUnsupported, match="randomness"):
        rows.segment_max("randomness")


def test_broadcast_table_integer_and_object_paths():
    assert kernels.broadcast_table([7, 9], [0, 1, 1, 0]) == [7, 9, 9, 7]
    assert kernels.broadcast_table(["a", "b"], [1, 0]) == ["b", "a"]
    big = 2**80  # overflows int64: must take the list path
    assert kernels.broadcast_table([big], [0, 0]) == [big, big]
    assert kernels.broadcast_table([], []) == []


# ----------------------------------------------------------------------
# Observability: on_kernel events -> kernel_* counters
# ----------------------------------------------------------------------

def test_view_kernel_metrics_counters():
    graph = cycle(12)
    tracer = MetricsTracer()
    report = simulate(
        SimRequest(
            kind="view",
            graph=graph,
            algorithm=make_view_rule("local-max", radius=1),
            ids=list(range(12)),
            layout="kernel",
        ),
        tracer=tracer,
    )
    m = tracer.metrics
    assert m.layout_kernel_runs == 1
    assert m.kernel_runs == 1
    assert m.kernel_vectorized == 1
    assert m.kernel_fallbacks == 0
    assert m.kernel_entities == graph.n
    assert m.kernel_classes == report.info["distinct_classes"]


def test_local_kernel_metrics_counters():
    tracer = MetricsTracer()
    DirectEngine().run(
        SimRequest(
            kind="local",
            graph=cycle(10),
            algorithm=RandomizedWeakColoring(),
            seed=4,
            layout="kernel",
        ),
        tracer=tracer,
    )
    m = tracer.metrics
    assert m.kernel_runs == 1
    assert m.kernel_vectorized == 1
    assert m.kernel_entities == 10


def test_kernel_fallback_metrics_counters():
    tracer = MetricsTracer()
    simulate(
        SimRequest(
            kind="view",
            graph=cycle(8),
            algorithm=make_view_rule("ball-signature", radius=1),
            layout="kernel",
        ),
        tracer=tracer,
    )
    m = tracer.metrics
    assert m.kernel_runs == 1
    assert m.kernel_fallbacks == 1
    assert m.kernel_vectorized == 0


# ----------------------------------------------------------------------
# Multi-radius reuse: shared-BFS partitions feed per-radius kernels
# ----------------------------------------------------------------------

def test_node_classes_many_feeds_per_radius_kernels():
    graph = balanced_regular_tree(3, 3)
    ids = random_permutation_ids(graph, random.Random(7))
    radii = (1, 2, 3)
    parts = expander_for(graph, "kernel").node_classes_many(radii, ids=ids)
    # Apply kernels out of order: radius-3 state must not leak into 1.
    for i in (2, 0, 1):
        radius, part = radii[i], parts[i]
        table = kernels.run_view_kernel(LocalMaximumRule(radius=radius), part)
        outputs = kernels.broadcast_table(table, part.labels)
        reference = simulate(
            SimRequest(
                kind="view",
                graph=graph,
                algorithm=LocalMaximumRule(radius=radius),
                ids=ids,
                layout="dict",
            )
        )
        assert outputs == reference.outputs, f"radius {radius} diverges"


# ----------------------------------------------------------------------
# The conformance fixture's planted kernel really is broken
# ----------------------------------------------------------------------

def test_broken_kernel_fixture_diverges_from_reference():
    from repro.conformance.fixtures import (
        _make_broken_kernel,
        register_broken_kernel_fixture,
    )

    register_broken_kernel_fixture()  # idempotent
    request = SimRequest(
        kind="view",
        graph=cycle(8),
        algorithm=_make_broken_kernel(),
        ids=list(range(8)),
    )
    honest = simulate(replace(request, layout="dict"))
    planted = simulate(replace(request, layout="kernel"))
    assert planted.outputs == [1 - out for out in honest.outputs]
    # ...while the parent rule's kernel stays honest (MRO shadowing).
    parent = SimRequest(
        kind="view",
        graph=cycle(8),
        algorithm=LocalMaximumRule(radius=1),
        ids=list(range(8)),
    )
    assert (
        simulate(replace(parent, layout="kernel")).outputs
        == simulate(replace(parent, layout="dict")).outputs
    )
