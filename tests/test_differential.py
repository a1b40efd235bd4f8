"""Differential tests: memoization and tracing never change results.

Two families of invariants:

* **Memoized vs direct** (a T-round algorithm is a map from balls to
  outputs): every case of :mod:`tests.differential`'s grid — algorithm
  × graph family × radius × labeling — must produce bit-identical
  execution results through the engine and through a memo table keyed
  by the canonical view signature, evaluated once per view class.

* **Traced vs untraced vs memoized** (observer passivity): attaching a
  :class:`~repro.instrumentation.MetricsTracer` to any engine run, or
  evaluating a view rule once per class, must not perturb outputs or
  halt rounds.  Covered for every message-passing algorithm of the
  quick experiment grid and every view rule.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.message_passing import (
    FloodLeaderParity,
    LubyMIS,
    RandomizedWeakColoring,
)
from repro.core import ALGORITHMS, SimRequest, simulate
from repro.graphs import balanced_regular_tree, cycle
from repro.graphs.identifiers import random_permutation_ids
from repro.instrumentation import MetricsTracer

from .differential import (
    assert_identical,
    edge_cases,
    grid,
    run_case,
    run_edge_case,
    run_memoized,
)


# ----------------------------------------------------------------------
# Memoized vs direct: the full grid, one test per case
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", grid(), ids=lambda c: c.case_id)
def test_cached_run_is_bit_identical(case):
    direct, memoized, stats = run_case(case)
    assert_identical(direct, memoized, case)
    # The memo table did real work: one lookup per node, and at most one
    # class per node.
    assert stats["lookups"] == len(direct.outputs)
    assert 1 <= stats["distinct_classes"] <= stats["lookups"]


@pytest.mark.parametrize(
    "graph_name,rounds", edge_cases(), ids=lambda p: str(p)
)
def test_cached_edge_run_is_bit_identical(graph_name, rounds):
    direct, memoized = run_edge_case(graph_name, rounds)
    assert memoized == direct


# ----------------------------------------------------------------------
# Traced vs untraced vs memoized: observers are passive
# ----------------------------------------------------------------------

_QUICK_GRAPHS = [
    ("cycle64", lambda: cycle(64)),
    ("tree3d4", lambda: balanced_regular_tree(3, 4)),
]

_MESSAGE_ALGORITHMS = [
    ("luby-mis", LubyMIS, True),
    ("randomized-weak-coloring", RandomizedWeakColoring, False),
    ("flood-leader-parity", FloodLeaderParity, True),
]


def _run_message_passing(factory, needs_ids, build_graph, seed, tracer=None):
    graph = build_graph()
    rng = random.Random(seed)
    ids = random_permutation_ids(graph, rng) if needs_ids else None
    request = SimRequest(kind="local", graph=graph, algorithm=factory(), ids=ids, rng=rng)
    return simulate(request, tracer=tracer)


@pytest.mark.parametrize("graph_name,build_graph", _QUICK_GRAPHS)
@pytest.mark.parametrize(
    "alg_name,factory,needs_ids",
    _MESSAGE_ALGORITHMS,
    ids=[a[0] for a in _MESSAGE_ALGORITHMS],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_tracing_is_passive_for_message_passing(
    graph_name, build_graph, alg_name, factory, needs_ids, seed
):
    untraced = _run_message_passing(factory, needs_ids, build_graph, seed)
    traced = _run_message_passing(
        factory, needs_ids, build_graph, seed, tracer=MetricsTracer()
    )
    assert traced.outputs == untraced.outputs
    assert traced.halt_rounds == untraced.halt_rounds
    assert traced.rounds == untraced.rounds


_VIEW_RULES = [
    ("local-max", 1, "ids"),
    ("random-priority", 1, "random"),
    ("ball-signature", 2, "anonymous"),
    ("degree-profile", 2, "anonymous"),
]


@pytest.mark.parametrize("graph_name,build_graph", _QUICK_GRAPHS)
@pytest.mark.parametrize(
    "rule_name,radius,labeling", _VIEW_RULES, ids=[r[0] for r in _VIEW_RULES]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_view_rules_agree_traced_untraced_cached(
    graph_name, build_graph, rule_name, radius, labeling, seed
):
    graph = build_graph()
    rng = random.Random(seed)
    ids = random_permutation_ids(graph, rng) if labeling == "ids" else None
    randomness = (
        [rng.getrandbits(12) for _ in graph.nodes()]
        if labeling == "random"
        else None
    )
    rule = ALGORITHMS.create(rule_name, radius=radius)

    request = SimRequest(
        kind="view", graph=graph, algorithm=rule, ids=ids, randomness=randomness
    )
    untraced = simulate(request)
    tracer = MetricsTracer()
    traced = simulate(request, tracer=tracer)
    memoized, memo = run_memoized(graph, rule, ids=ids, randomness=randomness)

    for other in (traced, memoized):
        assert other.outputs == untraced.outputs
        assert other.halt_rounds == untraced.halt_rounds
        assert other.rounds == untraced.rounds
    # The traced run gathered every ball; the memo table one per class.
    assert tracer.metrics.views_gathered == graph.n
    assert 1 <= len(memo) <= graph.n
    # Unique labels can make every view class distinct; anonymous
    # symmetric graphs must actually share classes.
    if labeling == "anonymous":
        assert len(memo) < graph.n


def test_standalone_harness_reports_zero_failures():
    from .differential import run_grid

    assert run_grid(verbose=False) == 0
