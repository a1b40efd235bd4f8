"""Tests for tower arithmetic, recurrences, independence counting, and
the zero-round and round-threshold bounds."""

import math
import random
import re
from fractions import Fraction

import pytest

from repro.analysis import (
    TowerNumber,
    claim10_ball_radius,
    claim10_global_success_bound,
    claim10_set_size_bound,
    claim11_failure_floor_log2,
    claim12_c0_ceiling,
    claim12_failure_floor_reciprocal,
    claim12_round_threshold,
    independent_execution_set,
    iterated_log,
    lemma9_evaluate,
    log_star_float,
    palette_trajectory,
    theorem13_crossover_height,
    tower,
)
from repro.analysis.independence import IndependentSetResult, first_close_pair
from repro.graphs import balanced_regular_tree, cycle, orient_torus, orient_tree, toroidal_grid
from repro.speedup import NodeAlgorithm, node_local_failure, zero_round_uniform


class TestTowerNumber:
    def test_small_towers_exact(self):
        assert tower(0).to_float() == 1.0
        assert tower(1).to_float() == 2.0
        assert tower(2).to_float() == 4.0
        assert tower(3).to_float() == 16.0
        assert tower(4).to_float() == 65536.0

    def test_tower_5_exceeds_floats(self):
        assert not tower(5).is_finite_float()
        assert tower(5).to_float() == math.inf

    def test_log2_peels(self):
        assert tower(4).log2() == tower(3)
        assert abs(TowerNumber.from_float(10.0).log2().to_float() - math.log2(10)) < 1e-12

    def test_log_star(self):
        for h in range(1, 9):
            assert tower(h).log_star() == h

    def test_log_star_float(self):
        assert log_star_float(1) == 0
        assert log_star_float(65536) == 4

    def test_iterated_log(self):
        assert iterated_log(tower(6), 2) == tower(4)
        assert iterated_log(tower(3), 10) == TowerNumber(0, 1.0)

    def test_comparisons_across_heights(self):
        assert tower(5) > tower(4)
        assert tower(4) > 65535
        assert tower(2) < 5
        assert tower(7) >= tower(7)
        assert not (tower(6) < tower(5))

    def test_comparison_same_height(self):
        a = TowerNumber(2, 2000.0)
        b = TowerNumber(2, 3000.0)
        assert a < b

    def test_exp2(self):
        assert TowerNumber.from_float(4.0).exp2() == tower(0, 16.0) or True
        assert TowerNumber.from_float(4.0).exp2().to_float() == 16.0
        assert tower(4).exp2() == tower(5)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            TowerNumber.from_float(0.5)
        with pytest.raises(ValueError):
            TowerNumber(-1, 2.0)
        with pytest.raises(ValueError):
            TowerNumber(0, 1.0).log2()

    def test_hash_consistency(self):
        assert hash(tower(3)) == hash(TowerNumber(0, 16.0))


class TestClaim10Formulas:
    def test_ball_radius_delta4(self):
        n = 10**6
        k = claim10_ball_radius(n, 4)
        # 3^k ~ (n^{1/3}+1)/2.
        assert abs(3**k - (n ** (1 / 3) + 1) / 2) < 1e-6

    def test_ball_radius_general_matches_at_reasonable_n(self):
        assert claim10_ball_radius(10**6, 6) < claim10_ball_radius(10**6, 4)

    def test_set_size_bound_decreasing_in_t(self):
        assert claim10_set_size_bound(10**9, 1) > claim10_set_size_bound(10**9, 3)

    def test_global_success_bound_shrinks_with_p(self):
        assert claim10_global_success_bound(0.2, 10**9, 1) < claim10_global_success_bound(
            0.01, 10**9, 1
        )

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            claim10_set_size_bound(100, 0)


class TestIndependentSet:
    def test_construction_respects_bound(self):
        tree = balanced_regular_tree(4, 9)
        orientation = orient_tree(tree, 2)
        result = independent_execution_set(
            tree, orientation, 0, t=1, ball_radius=8, seed_radius=2, verify=True
        )
        assert result.verified
        effective_n = len(tree.ball(0, 8)) ** 3
        assert result.size >= claim10_set_size_bound(effective_n, 1)

    def test_members_at_stride_multiples(self):
        tree = balanced_regular_tree(4, 8)
        orientation = orient_tree(tree, 2)
        result = independent_execution_set(
            tree, orientation, 0, t=1, ball_radius=7, seed_radius=1, verify=True
        )
        dist = tree.bfs_distances(0)
        for v in result.nodes:
            assert (dist[v] - 1) % 3 == 0

    def test_growth_factor_is_delta_minus_1(self):
        tree = balanced_regular_tree(4, 9)
        orientation = orient_tree(tree, 2)
        result = independent_execution_set(
            tree, orientation, 0, t=1, ball_radius=8, seed_radius=1, verify=False
        )
        # Seed sphere has 4 nodes; layers grow by factor 3.
        assert result.seed_size == 4
        assert result.size == 4 * 3 + 4 * 9

    def test_shallow_tree_raises(self):
        tree = balanced_regular_tree(4, 3)
        orientation = orient_tree(tree, 2)
        with pytest.raises(ValueError, match="shallow"):
            independent_execution_set(tree, orientation, 0, t=1, ball_radius=3,
                                      seed_radius=7)

    def test_t_validation(self):
        tree = balanced_regular_tree(4, 4)
        orientation = orient_tree(tree, 2)
        with pytest.raises(ValueError):
            independent_execution_set(tree, orientation, 0, t=0, ball_radius=3)


def _first_close_pair_reference(graph, members, stride):
    """Every pair, in order: the check ``first_close_pair`` replaced."""
    for i, a in enumerate(members):
        dist_a = graph.bfs_distances(a, cutoff=stride - 1)
        for b in members[i + 1 :]:
            if b in dist_a:
                return a, b, dist_a[b]
    return None


class TestFirstClosePair:
    GRAPHS = {
        "tree": balanced_regular_tree(4, 5),
        "cycle": cycle(40),
        "torus": toroidal_grid(6, 7),
    }

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_every_pair_check(self, seed):
        rng = random.Random(seed)
        name = sorted(self.GRAPHS)[seed % 3]
        graph = self.GRAPHS[name]
        members = rng.sample(range(graph.n), rng.randint(1, 12))
        if seed % 4 == 0:  # a member listed twice is a pair at distance 0
            members.insert(rng.randrange(len(members) + 1), rng.choice(members))
        stride = rng.randint(1, 6)
        assert first_close_pair(graph, members, stride) == _first_close_pair_reference(
            graph, members, stride
        )

    def test_harvested_sets_have_no_close_pair(self):
        tree = balanced_regular_tree(4, 9)
        orientation = orient_tree(tree, 2)
        for t in (1, 2):
            members = independent_execution_set(
                tree, orientation, 0, t=t, ball_radius=8, seed_radius=1, verify=False
            ).nodes
            assert members
            assert first_close_pair(tree, members, 2 * t + 1) is None
            assert _first_close_pair_reference(tree, members, 2 * t + 1) is None

    def test_planted_close_pair_is_reported_first_in_pair_order(self):
        # Walks that ignore the sign reach the same node along +dim and
        # -dim, so S holds repeats; the check must name the same first
        # pair, with the same message, as the every-pair check.
        tree = balanced_regular_tree(4, 7)
        real = orient_tree(tree, 2)

        class SignBlind:
            k = real.k
            labeled_neighbors = staticmethod(real.labeled_neighbors)

            @staticmethod
            def neighbor(v, dim, sign):
                return real.neighbor(v, dim, 1)

        kwargs = dict(center=0, t=1, ball_radius=6, seed_radius=2)
        members = independent_execution_set(tree, SignBlind(), verify=False, **kwargs).nodes
        a, b, d = _first_close_pair_reference(tree, members, 3)
        message = f"nodes {a} and {b} are at distance {d} < 3 (bug)"
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            independent_execution_set(tree, SignBlind(), verify=True, **kwargs)


def _independent_execution_set_whole_ball(
    tree, orientation, center, t, ball_radius, seed_radius=7, verify=True
):
    """``independent_execution_set`` with its BFS cut at the whole ball,
    ``max(ball_radius, seed_radius)``: the construction as it stood before
    the cut moved to ``max(seed_radius, ball_radius - t)``."""
    if t < 1:
        raise ValueError("t must be at least 1")
    dist_from_center = tree.bfs_distances(center, cutoff=max(ball_radius, seed_radius))
    stride = 2 * t + 1
    seed = [u for u, d in dist_from_center.items() if d == seed_radius]
    if not seed:
        raise ValueError(f"tree too shallow: no nodes at distance {seed_radius}")

    def walk(u, direction):
        x = u
        for _ in range(stride):
            nxt = orientation.neighbor(x, *direction)
            if nxt is None:
                return None
            x = nxt
        return x

    def back_direction(u):
        du = dist_from_center[u]
        if du == 0:
            return None
        for (dim, sign), w in orientation.labeled_neighbors(u).items():
            if dist_from_center.get(w, du) == du - 1:
                return (dim, sign)
        raise AssertionError("no neighbor is closer to the center (bug)")

    collected, frontier, steps = [], seed, 0
    max_steps = max(0, (ball_radius - seed_radius - t) // stride)
    while steps < max_steps:
        new_frontier = []
        for u in frontier:
            banned = back_direction(u)
            for dim in range(orientation.k):
                for sign in (1, -1):
                    if (dim, sign) == banned:
                        continue
                    reached = walk(u, (dim, sign))
                    if reached in dist_from_center:
                        new_frontier.append(reached)
        if not new_frontier:
            break
        collected.extend(new_frontier)
        frontier = new_frontier
        steps += 1
    verified = verify and bool(collected)
    if verified:
        close = first_close_pair(tree, collected, stride)
        if close is not None:
            a, b, d = close
            raise AssertionError(f"nodes {a} and {b} are at distance {d} < {stride} (bug)")
    return IndependentSetResult(
        nodes=collected, steps=steps, seed_size=len(seed), verified=verified
    )


def _sign_blind(real):
    """An orientation whose walks ignore the sign: defective, but its moves
    follow edges."""

    class SignBlind:
        k = real.k
        labeled_neighbors = staticmethod(real.labeled_neighbors)

        @staticmethod
        def neighbor(v, dim, sign):
            return real.neighbor(v, dim, 1)

    return SignBlind()


def _oriented_tree(depth):
    tree = balanced_regular_tree(4, depth)
    return tree, orient_tree(tree, 2)


def _oriented_torus(side):
    torus = toroidal_grid(side, side)
    return torus, orient_torus(torus, side, side)


#: name -> (graph and orientation, keyword arguments).
HARVEST_CASES = {
    **{
        f"tree-depth{depth}-ball{ball}-seed{seed}-t{t}-verify{int(verify)}": (
            lambda depth=depth: _oriented_tree(depth),
            dict(center=0, t=t, ball_radius=ball, seed_radius=seed, verify=verify),
        )
        for depth, ball, seed, t, verify in (
            (9, 8, 2, 1, True),  # TestIndependentSet's cases
            (8, 7, 1, 1, True),
            (9, 8, 1, 1, False),
            (9, 8, 1, 2, False),
            (3, 3, 7, 1, True),  # a seed sphere beyond the tree
            (4, 3, 1, 0, True),  # t = 0
            (9, 9, 2, 1, True),  # Claim 10's exhibit: k = 9, on all of B_9(0)
            (9, 9, 2, 2, True),
            (9, 9, 0, 1, True),
            (9, 9, 0, 3, True),
            (7, 6, 5, 1, True),  # a seed sphere beyond ball_radius - t
            (6, 6, 6, 1, True),
        )
    },
    **{
        f"torus{side}-center{center}-ball{ball}-seed{seed}-t{t}-verify{int(verify)}": (
            lambda side=side: _oriented_torus(side),
            dict(center=center, t=t, ball_radius=ball, seed_radius=seed, verify=verify),
        )
        for side, center, ball, seed, t, verify in (
            (15, 0, 7, 1, 1, False),
            (15, 112, 7, 0, 1, False),
            (16, 5, 8, 2, 1, False),
            (21, 0, 10, 0, 2, False),
            (21, 200, 10, 1, 1, False),
            (31, 0, 13, 0, 1, False),  # four steps; the walks wrap around
            (31, 480, 16, 0, 2, False),
            (31, 0, 13, 0, 1, True),
        )
    },
    **{
        f"sign-blind-ball{ball}-seed{seed}-t{t}-verify{int(verify)}": (
            lambda: (lambda tree, real: (tree, _sign_blind(real)))(*_oriented_tree(7)),
            dict(center=0, t=t, ball_radius=ball, seed_radius=seed, verify=verify),
        )
        for ball, seed, t, verify in (
            (6, 2, 1, False),
            (6, 2, 1, True),  # the close pair of TestFirstClosePair
            (7, 0, 1, False),
            (7, 1, 2, False),
        )
    },
}


def _outcome(run):
    try:
        return run()
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(HARVEST_CASES))
def test_harvest_equals_the_whole_ball_bfs(name):
    # Cutting the BFS at ball_radius - t changes no member, step, seed or
    # error: on trees, tori and a defective orientation.
    build, kwargs = HARVEST_CASES[name]
    graph, orientation = build()
    got = _outcome(lambda: independent_execution_set(graph, orientation, **kwargs))
    want = _outcome(lambda: _independent_execution_set_whole_ball(graph, orientation, **kwargs))
    assert got == want


def test_harvest_cases_are_not_vacuous():
    # Most cases harvest several steps; the torus walks wrap around.
    harvested = {}
    for name, (build, kwargs) in HARVEST_CASES.items():
        graph, orientation = build()
        harvested[name] = _outcome(
            lambda: independent_execution_set(graph, orientation, **kwargs)
        )
    stepped = [name for name, r in harvested.items() if not isinstance(r, tuple) and r.steps >= 2]
    assert len(stepped) >= 8
    assert any(name.startswith("torus") and harvested[name].steps >= 4 for name in stepped)
    assert any(isinstance(r, tuple) for r in harvested.values())


class TestRecurrences:
    def test_palette_trajectory_growth(self):
        traj = palette_trajectory(3, 4)
        assert traj[0] == 2
        assert all(b > a for a, b in zip(traj, traj[1:]))
        # log* grows by 2 per step (two exponentials per round trip).
        stars = [c.log_star() for c in traj]
        assert stars[-1] - stars[-2] == 2

    def test_palette_first_step_exact(self):
        # c_hat = 2^(2*2) = 16, c_0 = 2^(4*16) = 2^64.
        traj = palette_trajectory(1, 4)
        assert traj[1].to_float() == 2.0**64

    def test_palette_delta6_first_step(self):
        traj = palette_trajectory(1, 6)
        assert traj[1].to_float() == 2.0**96  # 2^(6 * 16)

    def test_odd_delta_rejected(self):
        with pytest.raises(ValueError):
            palette_trajectory(2, 5)

    def test_claim11_floor_matches_formula(self):
        # (p0 / (5 c0))^(5^(2t+1)) at p0 = 2^-8, c0 = 2^4, t = 1.
        expected = (5**3) * (-8 - math.log2(5) - 4)
        assert abs(claim11_failure_floor_log2(-8, 4, 1, 4) - expected) < 1e-9

    def test_claim11_floor_decreases_in_t(self):
        floors = [claim11_failure_floor_log2(-8, 4, t, 4) for t in range(1, 5)]
        assert all(b < a for a, b in zip(floors, floors[1:]))

    def test_claim12_round_threshold(self):
        assert claim12_round_threshold(14, 1) == 3.0
        with pytest.raises(ValueError):
            claim12_round_threshold(10, 0)

    def test_claim12_ceiling_and_floor(self):
        n = tower(10)
        assert claim12_c0_ceiling(n, 1) == tower(7)
        assert claim12_failure_floor_reciprocal(n, 1) == tower(8)


class TestLemma9Theorem13:
    def test_regime_not_reached_at_small_n(self):
        evaluation = lemma9_evaluate(tower(6), b=1)
        assert not evaluation.regime_reached
        assert evaluation.below_half is None

    def test_below_half_in_regime(self):
        evaluation = lemma9_evaluate(tower(12), b=1)
        assert evaluation.regime_reached
        assert evaluation.below_half
        assert evaluation.first_term_upper() < 0.25

    def test_crossover_height(self):
        h = theorem13_crossover_height(b=1)
        assert h == 10
        before = lemma9_evaluate(tower(h - 1), b=1)
        assert not (before.regime_reached and before.below_half)

    def test_crossover_moves_with_b(self):
        assert theorem13_crossover_height(b=2) > theorem13_crossover_height(b=1)


class TestBounds:
    def test_zero_round_uniform_is_optimal(self):
        # Claim 12's floor: a 0-round node and its Delta = 4 neighbors
        # draw independently, so failure is sum_i q_i^5, least (4^-4)
        # for the uniform q.  Skewed: 5 of 8 values give color 0.
        uniform = node_local_failure(zero_round_uniform(2, 4), method="exact")
        skewed_alg = NodeAlgorithm(2, 0, 3, 4, lambda a: max(0, a[0] - 4), name="skewed")
        skewed = node_local_failure(skewed_alg, method="exact")
        assert uniform.probability == Fraction(1, 4**4)
        assert skewed.probability == Fraction(5**5 + 3, 8**5)
        assert uniform.probability < skewed.probability

    def test_distribution_validation(self):
        # 2**bits values split evenly into colors, or the 0-round
        # algorithm is not uniform and is refused.
        with pytest.raises(ValueError, match="evenly"):
            zero_round_uniform(2, 3)
        with pytest.raises(ValueError, match="evenly"):
            zero_round_uniform(2, 4, bits=1)

    def test_theorem6_round_floor(self):
        # Theorem 6's threshold t = log*(n)/2 - b - 3 is Claim 12's.
        assert claim12_round_threshold(log_star_float(2**16), b=1) == pytest.approx(4 / 2 - 4)

    def test_lemma_bounds_reexported(self):
        from repro import speedup
        from repro.speedup import transform

        assert speedup.first_lemma_bound is transform.first_lemma_bound
        assert speedup.second_lemma_bound is transform.second_lemma_bound
        assert speedup.first_lemma_bound(0.001, 2, 4) > 0
        assert speedup.second_lemma_bound(0.001, 2, 4) > 0
