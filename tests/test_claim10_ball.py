"""Claim 10 builds only the ball its harvests read.

``run_claim10`` builds ``B_R(0)`` with ``R = min(depth, max(seed_radius,
max over ts of seed_radius + max_steps * (2t + 1)))``, the radius the
harvests' walks end at, not the depth-``depth`` tree.  The oracle is
the same function handed the whole tree: the two must return equal
results, and raise the same errors where the construction raises (a seed
sphere beyond the tree).  A ball one radius short fails that oracle,
though not the verdict.  Seed radius 0 seeds the center alone, which
has no way back and expands in all ``2k`` directions.  The closed-form
``effective_n`` is checked against a BFS of the ball, and
EXPERIMENTS.md's seed-radius-7 table against the run it reports.
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
from tools.render_experiments import EXPERIMENTS_MD

from .markdown_tables import section_tables

DEPTHS = range(1, 11)
SEED_RADII = (0, 1, 2, 3, 4, 5, 7)
TS = ((1, 2, 3), (4,), (1,))
CASES = [(depth, r, ts) for depth in DEPTHS for r in SEED_RADII for ts in TS]
# What the built radius also depends on: the smallest t not first, no t
# at all, pairwise checks off, and Delta.  Ordered by (delta, depth),
# as _whole_tree caches one tree.
MORE_CASES = [
    (4, depth, r, ts, pairwise)
    for depth in DEPTHS
    for r in SEED_RADII
    for ts, pairwise in (((2, 1), True), ((3, 1), True), ((), True), ((1, 2, 3), False))
] + [
    (6, depth, r, ts, pairwise)
    for depth in range(0, 6)
    for r in SEED_RADII
    for ts, pairwise in (((1, 2), True), ((2, 1), False))
]


@functools.lru_cache(maxsize=1)  # CASES run depth by depth
def _whole_tree(delta, depth):
    tree = balanced_regular_tree(delta, depth)
    return tree, orient_tree(tree, delta // 2)


def _outcome(run):
    try:
        return run()
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _ball_only_and_whole(monkeypatch, delta, depth, **kwargs):
    """``run_claim10``'s outcome as built, and on the whole depth-``depth`` tree."""

    def run():
        return run_claim10(delta=delta, depth=depth, **kwargs)

    ball_only = _outcome(run)
    tree, orientation = _whole_tree(delta, depth)
    with monkeypatch.context() as patch:
        patch.setattr(claim10_experiment, "balanced_regular_tree", lambda delta, d: tree)
        patch.setattr(claim10_experiment, "orient_tree", lambda graph, k: orientation)
        whole = _outcome(run)
    return ball_only, whole


@pytest.mark.parametrize(
    "depth,seed_radius,ts",
    CASES,
    ids=[f"depth{d}-r{r}-t{'.'.join(map(str, ts))}" for d, r, ts in CASES],
)
def test_ball_only_run_equals_the_whole_tree_run(monkeypatch, depth, seed_radius, ts):
    ball_only, whole = _ball_only_and_whole(monkeypatch, 4, depth, ts=ts, seed_radius=seed_radius)
    assert ball_only == whole
    if not isinstance(whole, tuple):
        assert ball_only.n == _whole_tree(4, depth)[0].n


@pytest.mark.parametrize(
    "delta,depth,seed_radius,ts,verify_pairwise",
    MORE_CASES,
    ids=[f"delta{D}-depth{d}-r{r}-t{'.'.join(map(str, ts)) or 'none'}-{'pairs' if p else 'nopairs'}"
         for D, d, r, ts, p in MORE_CASES],
)
def test_ball_only_run_equals_the_whole_tree_run_for_every_radius_input(
    monkeypatch, delta, depth, seed_radius, ts, verify_pairwise
):
    ball_only, whole = _ball_only_and_whole(
        monkeypatch, delta, depth, ts=ts, seed_radius=seed_radius, verify_pairwise=verify_pairwise
    )
    assert ball_only == whole
    if not ts:  # no harvest runs, so nothing raises either
        assert ball_only.points == []


def test_a_ball_one_radius_short_fails_the_oracle(monkeypatch):
    # At the report's arguments the t = 1 walks end at distance 8 = r:
    # B_7(0) loses them, yet the short harvest still meets its closed form.
    def one_short(delta, depth):
        return balanced_regular_tree(delta, depth - 1)

    monkeypatch.setattr(claim10_experiment, "balanced_regular_tree", one_short)
    short, whole = _ball_only_and_whole(monkeypatch, 4, 10, ts=(1, 2), seed_radius=2)
    assert short != whole
    assert [p.set_size for p in whole.points] == [144, 36]
    assert short.points[0].set_size == 36 and short.all_bounds_hold()


@pytest.mark.parametrize("verify_pairwise", [True, False], ids=["pairs", "nopairs"])
def test_a_ball_one_radius_short_fails_the_oracle_at_depth_8(monkeypatch, verify_pairwise):
    # --quick's depth 8: the t = 1 walks end at distance 5, well inside
    # k - t = 6, so B_5(0) is built and B_4(0) loses the walks' ends.
    def one_short(delta, depth):
        return balanced_regular_tree(delta, depth - 1)

    monkeypatch.setattr(claim10_experiment, "balanced_regular_tree", one_short)
    short, whole = _ball_only_and_whole(
        monkeypatch, 4, 8, ts=(1, 2), seed_radius=2, verify_pairwise=verify_pairwise
    )
    assert short != whole


@pytest.mark.parametrize("depth", range(0, 11))
def test_effective_n_is_the_ball_size_cubed(monkeypatch, depth):
    # The old computation: |B_{depth-1}(0)| by BFS over the whole tree
    # (the lone root at depth 0).  A stub harvest lets every seed radius
    # finish, also those where the construction raises.
    def no_harvest(*args, **kwargs):
        return IndependentSetResult(nodes=[], steps=0, seed_size=0, verified=True)

    ball = _whole_tree(4, depth)[0].bfs_distances(0, cutoff=depth - 1)
    monkeypatch.setattr(claim10_experiment, "independent_execution_set", no_harvest)
    for seed_radius in SEED_RADII:
        (point,) = run_claim10(delta=4, depth=depth, ts=(1,), seed_radius=seed_radius).points
        assert point.effective_n == len(ball) ** 3


def test_only_the_ball_is_built(monkeypatch):
    built = []

    def recording(delta, depth):
        built.append(depth)
        return balanced_regular_tree(delta, depth)

    monkeypatch.setattr(claim10_experiment, "balanced_regular_tree", recording)
    assert run_claim10(depth=10, ts=(1, 2), seed_radius=2).n == 118_097
    assert run_claim10(depth=3, ts=(1,), seed_radius=3).n == balanced_regular_tree_size(4, 3)
    assert run_claim10(depth=8, ts=(1, 2), seed_radius=2).n == balanced_regular_tree_size(4, 8)
    # B_8(0), where t = 1 walks end; a seed sphere beyond keeps its
    # layer; at depth 8 the t = 1 walks end at 2 + 1 * 3 = 5 < k - t = 6.
    assert built == [8, 3, 5]


@pytest.fixture(scope="module")
def paper_seed_radius_7():
    return run_claim10(depth=12, ts=(1, 2), seed_radius=7)


def test_paper_seed_radius_7(paper_seed_radius_7):
    # The paper's literal construction: the seed sphere at radius 7 holds
    # 4 * 3^6 = 2,916 nodes and one stride of 3 triples it.  Only B_10(0)
    # (118,097 nodes) of the 1,062,881-node tree is built.
    result = paper_seed_radius_7
    t1, t2 = result.points
    assert result.n == 1_062_881
    assert (t1.set_size, round(t1.closed_form_bound, 1)) == (8_748, 70.8)
    assert t1.in_regime and t1.bound_holds and t1.pairwise_verified
    assert not t2.in_regime and t2.set_size == 0
    assert result.all_bounds_hold()


def _cells(point):
    """A point as EXPERIMENTS.md prints it: t, |S|, closed form, verified."""
    size = f"{point.set_size:,}".replace(",", " ")
    return [
        str(point.t),
        size if point.in_regime else f"{size} (out of regime)",
        f"{point.closed_form_bound:.1f}",
        "✓" if point.pairwise_verified else "—",
    ]


def _documented_cells_match(markdown, paper):
    return section_tables(markdown, "Claim 10 ") == [[_cells(p) for p in paper.points]]


def test_experiments_md_claim10_cells_are_measured(paper_seed_radius_7):
    # The paper's seed radius 7, which the report does not run (its
    # depth-10 row is a report block, held by tests/test_exhibits.py).
    markdown = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert _documented_cells_match(markdown, paper_seed_radius_7)


@pytest.mark.parametrize("cell,changed", [
    ("| 1 | 8 748 | 70.8 | ✓ |", "| 1 | 8 748 | 70.8 | — |"),
    ("| 2 | 0 (out of regime) | 12.9 | — |", "| 2 | 0 | 12.9 | — |"),
])
def test_a_changed_claim10_cell_fails(paper_seed_radius_7, cell, changed):
    markdown = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert markdown.count(cell) == 1
    assert not _documented_cells_match(markdown.replace(cell, changed), paper_seed_radius_7)


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
