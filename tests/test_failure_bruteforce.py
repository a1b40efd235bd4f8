"""Exact local failure against a brute-force count over the outer ball.

``node_local_failure`` and ``edge_local_failure`` (``method="exact"``)
condition on the values of the inner ball and multiply one color
distribution per neighbor (resp. incident edge), memoized per shared
values.  The counts here do none of that: they enumerate every
assignment of the outer ball ``B_{t+1}(v)``, project it onto the center's
and each neighbor's (resp. each incident edge's) ball, and count the
failure event.  Only the algorithm's own evaluator is shared with the
code under test.
"""

import itertools
from fractions import Fraction

import pytest

from repro.local_model.cache import ball_assignment_key
from repro.speedup import (
    EdgeAlgorithm,
    NodeAlgorithm,
    OrientedBall,
    edge_local_failure,
    first_speedup,
    local_maximum_coloring,
    node_local_failure,
    parity_coloring,
    zero_round_uniform,
)

#: Most outer-ball assignments one count may enumerate.
BUDGET = 2**17


def _outer_assignments(values, outer):
    assert values**outer.size <= BUDGET
    return itertools.product(range(values), repeat=outer.size)


def brute_node_failure(alg):
    """Share of outer-ball assignments where every neighbor copies the center."""
    outer = OrientedBall(alg.k, alg.t + 1)
    center = outer.shift_map((), alg.ball)
    neighbors = [outer.shift_map((d,), alg.ball) for d in outer.directions]
    hits = 0
    for a in _outer_assignments(alg.values, outer):
        color = alg.evaluate(ball_assignment_key(a, center))
        if all(alg.evaluate(ball_assignment_key(a, m)) == color for m in neighbors):
            hits += 1
    return Fraction(hits, alg.values**outer.size)


def brute_edge_failure(alg):
    """Share of outer-ball assignments where every dimension is monochromatic."""
    outer = OrientedBall(alg.k, alg.r + 1)
    # Per dimension: the edge leaving the center (the center is its low
    # endpoint) and the edge entering it (low endpoint one step back).
    incident = [
        (
            dim,
            alg.balls[dim].shift_map_from(outer, ()),
            alg.balls[dim].shift_map_from(outer, ((dim, -1),)),
        )
        for dim in range(alg.k)
    ]
    hits = 0
    for a in _outer_assignments(alg.values, outer):
        if all(
            alg.evaluate(dim, ball_assignment_key(a, plus))
            == alg.evaluate(dim, ball_assignment_key(a, minus))
            for dim, plus, minus in incident
        ):
            hits += 1
    return Fraction(hits, alg.values**outer.size)


NODE_ALGORITHMS = {
    "uniform-4": lambda: zero_round_uniform(2, 4),
    "uniform-2-k3": lambda: zero_round_uniform(3, 2),
    "local-maximum": lambda: local_maximum_coloring(2, bits=1),
    "parity": lambda: parity_coloring(2, bits=1),
    # Not symmetric under permuting directions, so a neighbor's color
    # distribution depends on which direction it sits in.
    "weighted-sum": lambda: NodeAlgorithm(
        2, 1, 1, 3, lambda a: (a[0] + 2 * a[1] + a[3]) % 3, name="weighted-sum"
    ),
}

EDGE_ALGORITHMS = {
    # r = 0: Lemma 7's frequent-set pairs of the local-maximum seed.
    "first-speedup-r0": lambda: first_speedup(
        local_maximum_coloring(2, bits=1), Fraction(1, 4)
    ),
    # r = 1: a color that depends on every value of the edge ball and
    # on the dimension.
    "sum-mod-3-r1": lambda: EdgeAlgorithm(
        2, 1, 1, 3, lambda dim, a: (sum(a) + dim) % 3, name="sum-mod-3"
    ),
}


@pytest.mark.parametrize("name", sorted(NODE_ALGORITHMS))
def test_node_exact_matches_brute_force(name):
    exact = node_local_failure(NODE_ALGORITHMS[name](), method="exact")
    assert exact.exact
    assert exact.probability == brute_node_failure(NODE_ALGORITHMS[name]())


@pytest.mark.parametrize("name", sorted(EDGE_ALGORITHMS))
def test_edge_exact_matches_brute_force(name):
    exact = edge_local_failure(EDGE_ALGORITHMS[name](), method="exact")
    assert exact.exact
    assert exact.probability == brute_edge_failure(EDGE_ALGORITHMS[name]())


def test_brute_force_sees_the_known_closed_forms():
    # Guard the oracle itself: uniform c-coloring fails with c^-2k, and
    # an edge color that is just the dimension fails everywhere.
    assert brute_node_failure(zero_round_uniform(2, 4)) == Fraction(1, 4**4)
    by_dim = EdgeAlgorithm(2, 0, 1, 2, lambda dim, a: dim, name="by-dim")
    assert brute_edge_failure(by_dim) == 1
