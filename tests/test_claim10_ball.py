"""Claim 10 builds only the ball it reads.

``run_claim10`` builds ``B_{depth-1}(0)``, or the seed sphere when it
lies beyond that ball, and not the depth-``depth`` tree.  The oracle is
the same function handed the whole tree: the two must return equal
results, and raise the same errors where the construction raises (a seed
sphere beyond the tree).  Seed radius 0 seeds the center alone, which
has no way back and expands in all ``2k`` directions.  The closed-form
``effective_n`` is checked against a BFS of the ball.
"""

import functools

import pytest

from repro.analysis.independence import (
    IndependentSetResult,
    first_close_pair,
    independent_execution_set,
)
from repro.experiments import claim10_experiment, run_claim10
from repro.graphs import balanced_regular_tree, balanced_regular_tree_size, orient_tree

DEPTHS = range(1, 11)
SEED_RADII = (0, 1, 2, 3, 4, 5, 7)
TS = ((1, 2, 3), (4,), (1,))
CASES = [(depth, r, ts) for depth in DEPTHS for r in SEED_RADII for ts in TS]


@functools.lru_cache(maxsize=1)  # CASES run depth by depth
def _whole_tree(delta, depth):
    tree = balanced_regular_tree(delta, depth)
    return tree, orient_tree(tree, delta // 2)


def _outcome(run):
    try:
        return run()
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "depth,seed_radius,ts",
    CASES,
    ids=[f"depth{d}-r{r}-t{'.'.join(map(str, ts))}" for d, r, ts in CASES],
)
def test_ball_only_run_equals_the_whole_tree_run(monkeypatch, depth, seed_radius, ts):
    def run():
        return run_claim10(delta=4, depth=depth, ts=ts, seed_radius=seed_radius)

    ball_only = _outcome(run)
    tree, orientation = _whole_tree(4, depth)
    with monkeypatch.context() as patch:
        patch.setattr(claim10_experiment, "balanced_regular_tree", lambda delta, d: tree)
        patch.setattr(claim10_experiment, "orient_tree", lambda graph, k: orientation)
        whole = _outcome(run)
    assert ball_only == whole
    if not isinstance(whole, tuple):
        assert ball_only.n == tree.n


@pytest.mark.parametrize("depth", range(0, 11))
def test_effective_n_is_the_ball_size_cubed(monkeypatch, depth):
    # The old computation: |B_{depth-1}(0)| by BFS over the built tree
    # (the lone root at depth 0).  A stub harvest lets every seed radius
    # finish, also those where the construction raises.
    built = []

    def recording(delta, d):
        built.append(balanced_regular_tree(delta, d))
        return built[-1]

    def no_harvest(*args, **kwargs):
        return IndependentSetResult(nodes=[], steps=0, seed_size=0, verified=True)

    monkeypatch.setattr(claim10_experiment, "balanced_regular_tree", recording)
    monkeypatch.setattr(claim10_experiment, "independent_execution_set", no_harvest)
    for seed_radius in SEED_RADII:
        (point,) = run_claim10(delta=4, depth=depth, ts=(1,), seed_radius=seed_radius).points
        ball = built[-1].bfs_distances(0, cutoff=depth - 1)
        assert point.effective_n == len(ball) ** 3


def test_only_the_ball_is_built(monkeypatch):
    built = []

    def recording(delta, depth):
        built.append(depth)
        return balanced_regular_tree(delta, depth)

    monkeypatch.setattr(claim10_experiment, "balanced_regular_tree", recording)
    assert run_claim10(depth=10, ts=(1, 2), seed_radius=2).n == 118_097
    assert run_claim10(depth=3, ts=(1,), seed_radius=3).n == balanced_regular_tree_size(4, 3)
    assert built == [9, 3]  # B_9(0); a seed sphere beyond B_2(0) keeps its layer


def test_paper_seed_radius_7():
    # The paper's literal construction: the seed sphere at radius 7 holds
    # 4 * 3^6 = 2,916 nodes and one stride of 3 triples it.  Only B_11(0)
    # (354,293 nodes) of the 1,062,881-node tree is built.
    result = run_claim10(depth=12, ts=(1, 2), seed_radius=7)
    t1, t2 = result.points
    assert result.n == 1_062_881
    assert (t1.set_size, round(t1.closed_form_bound, 1)) == (8_748, 70.8)
    assert t1.in_regime and t1.bound_holds and t1.pairwise_verified
    assert not t2.in_regime and t2.set_size == 0
    assert result.all_bounds_hold()


@pytest.mark.parametrize("depth", range(5, 11))
def test_seed_radius_0_expands_the_center_in_every_direction(depth):
    tree, orientation = _whole_tree(4, depth)
    t, stride = 1, 3
    harvest = independent_execution_set(
        tree, orientation, center=0, t=t, ball_radius=depth - 1, seed_radius=0
    )
    assert harvest.seed_size == 1 and harvest.steps >= 1 and harvest.verified
    directions = 2 * orientation.k
    first_step = harvest.nodes[:directions]
    distances = tree.bfs_distances(0)
    assert len(set(first_step)) == directions == 4
    assert [distances[u] for u in first_step] == [stride] * directions
    assert first_close_pair(tree, harvest.nodes, stride) is None
