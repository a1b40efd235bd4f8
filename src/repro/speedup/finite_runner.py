"""Running oriented-tree algorithms on finite oriented graphs.

The speedup engine studies algorithms as functions of *oriented tree
balls*.  To connect those objects to global failure probabilities on
finite networks (Claim 10's amplification, Lemma 9's endgame), this
module resolves, for every node of a finite consistently-oriented
graph, the node each word of a
:class:`~repro.speedup.algorithms.NodeAlgorithm`'s ball reaches through
the orientation.  A ``finite`` request to :func:`repro.core.simulate`
takes those tables and evaluates the algorithm at every node on the
random values it finds there.

Soundness requires the graph to *locally look like* the oriented tree
up to the algorithm's radius: distinct ball words must reach distinct
nodes.  Tori satisfy this exactly for radius-1 algorithms (their moves
commute, so radius >= 2 words like RU/UR collide); the resolver checks
injectivity per node and refuses unsound combinations.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.engine import SimRequest, simulate
from ..graphs.graph import Graph
from ..graphs.orientation import Orientation
from ..instrumentation.tracer import Tracer, effective_tracer
from .algorithms import NodeAlgorithm
from .ball import Word

__all__ = [
    "resolve_ball_tables",
    "estimate_global_success",
]


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

    A ``finite`` :class:`~repro.core.SimRequest` reads its balls from
    these tables, so many trials on one graph resolve them once.  A
    node's memo key is its table projected through the trial's random
    values — :func:`~repro.speedup.ball.ball_assignment_key`.

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


def estimate_global_success(
    alg: NodeAlgorithm,
    graph: Graph,
    orientation: Orientation,
    trials: int,
    rng: Optional[random.Random] = None,
    tracer: Optional[Tracer] = None,
) -> float:
    """Monte Carlo estimate of Pr[the whole graph is weakly colored].

    Each trial draws one value per node, in node order, with the draws
    of ``rng.randrange(alg.values)``: ``random.Random._randbelow`` takes
    ``getrandbits(alg.values.bit_length())`` and draws again while the
    result is out of range.  That loop runs inline, without two Python
    calls per value, and leaves ``rng`` in the state the ``randrange``
    calls would.  It is replayed only when ``rng`` draws that way: a
    subclass that overrides ``random()`` but not ``getrandbits()`` gets
    another ``_randbelow``, and then ``rng.randrange`` itself runs.

    Every trial is drawn first, trial by trial, and the trials then run
    as one ``batch`` request of the ``finite`` kind: one engine call per
    estimate.  A trial's scan stops at its first failing node, since
    only its success counts, unless a tracer needs the failing count.

    An optional ``tracer`` observes one ``trial`` event per trial,
    between the estimate's ``run_start`` and ``run_end``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng or random.Random(0)
    tables = resolve_ball_tables(alg, graph, orientation)
    tracer = effective_tracer(tracer)
    if tracer is not None:
        tracer.on_event(
            "run_start", engine="finite", algorithm=alg.name, n=graph.n, trials=trials
        )
    getrandbits, choices, n = rng.getrandbits, alg.values, graph.n
    bits = choices.bit_length()
    replay = getattr(type(rng), "_randbelow", None) is random.Random._randbelow
    batch = []
    for _ in range(trials):
        if not replay:
            values = [rng.randrange(choices) for _ in range(n)]
        else:
            values = [0] * n
            for v in range(n):
                value = getrandbits(bits)
                while value >= choices:
                    value = getrandbits(bits)
                values[v] = value
        batch.append(values)
    report = simulate(
        SimRequest(
            kind="finite",
            graph=graph,
            algorithm=alg,
            batch=batch,
            tables=tables,
            first_failure_only=tracer is None,
        )
    )
    if tracer is not None:
        for i, failing in enumerate(report.failing_nodes):
            tracer.on_event(
                "trial", index=i, succeeded=not failing, failing_nodes=len(failing)
            )
        tracer.on_event("run_end", rounds=alg.t)
    return report.failing_nodes.count([]) / trials
