"""Running oriented-tree algorithms on finite oriented graphs.

The speedup engine studies algorithms as functions of *oriented tree
balls*.  To connect those objects to global failure probabilities on
finite networks (Claim 10's amplification, Lemma 9's endgame), this
module evaluates a :class:`~repro.speedup.algorithms.NodeAlgorithm` on
every node of a finite consistently-oriented graph: each node walks its
ball's direction words through the orientation and reads off the random
values it finds.

Soundness requires the graph to *locally look like* the oriented tree
up to the algorithm's radius: distinct ball words must reach distinct
nodes.  Tori satisfy this exactly for radius-1 algorithms (their moves
commute, so radius >= 2 words like RU/UR collide); the runner checks
injectivity per node and refuses unsound combinations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..graphs.graph import Graph
from ..graphs.orientation import Orientation
from ..instrumentation.tracer import Tracer, effective_tracer
from .algorithms import NodeAlgorithm
from .ball import Word

__all__ = [
    "FiniteRunResult",
    "resolve_ball_tables",
    "run_node_algorithm_on_oriented_graph",
    "estimate_global_success",
]


@dataclass
class FiniteRunResult:
    """One evaluation of a tree algorithm on a finite oriented graph."""

    outputs: List[object]
    failing_nodes: List[int]

    @property
    def succeeded(self) -> bool:
        """Whether the output is a (global) weak coloring."""
        return not self.failing_nodes


def _resolve(orientation: Orientation, start: int, word: Word) -> Optional[int]:
    """Follow a direction word from ``start``; None if a move is missing."""
    node = start
    for dim, sign in word:
        nxt = orientation.neighbor(node, dim, sign)
        if nxt is None:
            return None
        node = nxt
    return node


def resolve_ball_tables(
    alg: NodeAlgorithm, graph: Graph, orientation: Orientation
) -> List[List[int]]:
    """Per-node tables: the graph node each ball word reaches.

    Precompute once and pass to :func:`run_node_algorithm_on_oriented_graph`
    when running many trials on the same graph.  A node's cache key is
    its table projected through the trial's random values —
    :func:`~repro.local_model.cache.ball_assignment_key`, the same
    keying function the canonical-view cache builds on.

    Raises
    ------
    ValueError
        If some node's ball words do not reach pairwise-distinct nodes
        (the graph is not locally tree-like at the algorithm's radius),
        or a move leaves the oriented region.
    """
    tables: List[List[int]] = []
    for v in graph.nodes():
        resolved = []
        for word in alg.ball.words:
            node = _resolve(orientation, v, word)
            if node is None:
                raise ValueError(
                    f"node {v}: direction word {word} leaves the oriented region"
                )
            resolved.append(node)
        if len(set(resolved)) != len(resolved):
            raise ValueError(
                f"node {v}: ball words collide — the graph is not locally "
                f"tree-like at radius {alg.t}"
            )
        tables.append(resolved)
    return tables


def run_node_algorithm_on_oriented_graph(
    alg: NodeAlgorithm,
    graph: Graph,
    orientation: Orientation,
    values: Sequence[int],
    tables: Optional[List[List[int]]] = None,
    tracer: Optional[Tracer] = None,
) -> FiniteRunResult:
    """Evaluate ``alg`` at every node, given per-node random values.

    Parameters
    ----------
    values:
        One random value in ``[0, alg.values)`` per node — the graph's
        random-bit assignment.
    tables:
        Precomputed :func:`resolve_ball_tables` output (resolved and
        validated once per (algorithm, graph) instead of per call).
    tracer:
        Optional :class:`~repro.instrumentation.Tracer`; sees one
        ``on_view`` per node (the resolved ball) plus run start/end.

    Raises
    ------
    ValueError
        Propagated from :func:`resolve_ball_tables` when the graph is
        not locally tree-like at the algorithm's radius.

    The evaluation loop lives behind the engine seam (the ``"finite"``
    request kind of :class:`~repro.core.direct.DirectEngine`); this
    entry point is a signature-stable adapter over
    :func:`repro.core.simulate`.
    """
    from ..core.direct import DirectEngine
    from ..core.engine import SimRequest

    report = DirectEngine().run(
        SimRequest(
            kind="finite",
            graph=graph,
            algorithm=alg,
            orientation=orientation,
            values=values,
            tables=tables,
        ),
        tracer=tracer,
    )
    return report.to_finite_result()


def estimate_global_success(
    alg: NodeAlgorithm,
    graph: Graph,
    orientation: Orientation,
    trials: int,
    rng: Optional[random.Random] = None,
    tracer: Optional[Tracer] = None,
) -> float:
    """Monte Carlo estimate of Pr[the whole graph is weakly colored].

    An optional ``tracer`` observes one
    :meth:`~repro.instrumentation.Tracer.on_trial` per trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng or random.Random(0)
    tables = resolve_ball_tables(alg, graph, orientation)
    tracer = effective_tracer(tracer)
    if tracer is not None:
        tracer.on_run_start("finite", alg.name, graph.n, trials=trials)
    successes = 0
    for i in range(trials):
        values = [rng.randrange(alg.values) for _ in graph.nodes()]
        run = run_node_algorithm_on_oriented_graph(
            alg, graph, orientation, values, tables=tables
        )
        if run.succeeded:
            successes += 1
        if tracer is not None:
            tracer.on_trial(i, run.succeeded, len(run.failing_nodes))
    if tracer is not None:
        tracer.on_run_end(alg.t)
    return successes / trials
