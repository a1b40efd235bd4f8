"""Order-invariant algorithms — the Naor-Stockmeyer / Ramsey angle.

The classical route to lower bounds below log* (discussed in the
paper's introduction) converts any fast algorithm into an
*order-invariant* one: an algorithm whose output depends only on the
relative order of the identifiers in its view, not their values.  This
module makes the notion executable:

* :func:`order_projected_view` — replace a view's identifiers by their
  ranks (the canonical order type);
* :class:`OrderInvariantProjection` — wrap any view algorithm so it
  sees only the order type (forcing order-invariance);
* :func:`is_order_invariant` — empirical check: rerun a view algorithm
  under random order-preserving re-labelings and compare outputs;
* :func:`order_homogeneous_failure` — the argument's punchline on
  cycles: under increasing identifiers, interior nodes of a long cycle
  have identical order types, so *any* order-invariant algorithm gives
  them equal outputs and cannot weakly 2-color — executable Theorem 21
  fuel (and exactly why the in-degree shortcut dies in
  :mod:`repro.algorithms.naor_stockmeyer`).
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence

from ..graphs.graph import Graph
from .algorithm import ViewAlgorithm
from .views import View, gather_view

__all__ = [
    "order_projected_view",
    "OrderInvariantProjection",
    "is_order_invariant",
    "order_homogeneous_failure",
]


def order_projected_view(view: View) -> View:
    """The view with identifiers replaced by their ranks (order type)."""
    if view.identifiers is None:
        return view
    order = sorted(range(view.node_count), key=lambda i: view.identifiers[i])
    rank = [0] * view.node_count
    for position, i in enumerate(order):
        rank[i] = position + 1
    return View(
        radius=view.radius,
        center=view.center,
        distances=view.distances,
        degrees=view.degrees,
        identifiers=rank,
        inputs=view.inputs,
        randomness=view.randomness,
        edges=view.edges,
        originals=view.originals,
    )


class OrderInvariantProjection(ViewAlgorithm):
    """Force order-invariance: the wrapped algorithm sees only ranks."""

    def __init__(self, inner: ViewAlgorithm):
        self.inner = inner
        self.radius = inner.radius
        self.name = f"order-invariant[{inner.name}]"

    def output(self, view: View) -> Any:
        return self.inner.output(order_projected_view(view))


def _order_preserving_relabeling(
    ids: Sequence[int], space: int, rng: random.Random
) -> List[int]:
    """Fresh identifiers with the same relative order, drawn from 1..space."""
    n = len(ids)
    fresh = sorted(rng.sample(range(1, space + 1), n))
    by_rank = sorted(range(n), key=lambda v: ids[v])
    out = [0] * n
    for rank, v in enumerate(by_rank):
        out[v] = fresh[rank]
    return out


def is_order_invariant(
    algorithm: ViewAlgorithm,
    graph: Graph,
    ids: Sequence[int],
    trials: int = 8,
    rng: Optional[random.Random] = None,
) -> bool:
    """Empirically test order-invariance on one instance.

    Reruns the algorithm under ``trials`` random order-preserving
    identifier re-labelings; returns False on the first output change.
    (A True result is evidence, not proof — exactly the direction the
    Ramsey argument needs is that *projections* are invariant, which
    :class:`OrderInvariantProjection` guarantees by construction.)
    """
    rng = rng or random.Random(0)
    space = max(max(ids) * 4, len(ids) * 4)
    baseline = [
        algorithm.output(gather_view(graph, v, algorithm.radius, ids=ids))
        for v in graph.nodes()
    ]
    for _ in range(trials):
        relabeled = _order_preserving_relabeling(ids, space, rng)
        outputs = [
            algorithm.output(gather_view(graph, v, algorithm.radius, ids=relabeled))
            for v in graph.nodes()
        ]
        if outputs != baseline:
            return False
    return True


def order_homogeneous_failure(
    algorithm: ViewAlgorithm, cycle_length: int
) -> List[int]:
    """Interior nodes of an increasing-identifier cycle that fail weakly.

    Runs the (assumed order-invariant) algorithm on a cycle labeled with
    increasing identifiers and returns the nodes whose whole closed
    neighborhood received one output — nonempty for *every*
    order-invariant algorithm once the cycle is long enough, because
    interior views are pairwise order-isomorphic.
    """
    from ..graphs.generators import cycle as make_cycle

    graph = make_cycle(cycle_length)
    ids = [v + 1 for v in graph.nodes()]
    outputs = [
        algorithm.output(gather_view(graph, v, algorithm.radius, ids=ids))
        for v in graph.nodes()
    ]
    failing = []
    for v in graph.nodes():
        neighborhood = [outputs[u] for u in graph.neighbors(v)]
        if all(out == outputs[v] for out in neighborhood):
            failing.append(v)
    return failing
