"""The paper's shapes at arguments the report does not run.

The report's verdicts state each exhibit's claim at the report's own
arguments (``tests/test_exhibits.py``).  These tests hold the shapes
that need other arguments: more (k, c) pairs for Lemma 2, Delta = 6,
a genuine 2-round seed walked down twice, the design ablations, and
the closed forms behind Claims 10-12 and Theorem 13.
"""

import random
from fractions import Fraction

import pytest

from repro.algorithms.pointer_solver import _solve_pstar_acyclic, solve_pstar_partial
from repro.analysis import (
    claim10_global_success_bound,
    claim11_failure_floor_log2,
    lemma9_evaluate,
    palette_trajectory,
    theorem13_crossover_height,
    tower,
)
from repro.experiments import (
    run_global_failure,
    run_lemma2,
    run_logstar_sweep,
    run_theorem4,
)
from repro.graphs import balanced_regular_tree, sequential_ids
from repro.lcl import PStar
from repro.speedup import (
    NodeAlgorithm,
    edge_local_failure,
    first_lemma_bound,
    first_speedup,
    local_maximum_coloring,
    node_local_failure,
    paper_threshold_first,
    paper_threshold_second,
    run_speedup_pipeline,
    second_lemma_bound,
    second_speedup,
    smaller_count_coloring,
    two_round_local_maximum,
)

SIZES = (50, 200, 800, 3200)


# -- Lemma 2: flat in n for every (k, c), moving only with k ------------

@pytest.mark.parametrize("k,c", [(1, 2), (2, 4), (3, 3), (2, 8)])
def test_lemma2_rounds_flat_in_n(k, c):
    result = run_lemma2(k=k, c=c, sizes=SIZES)
    assert result.rounds_are_constant()
    assert all(p.verified for p in result.points)


def test_lemma2_rounds_move_with_k():
    r2 = run_lemma2(k=2, c=4, sizes=(200, 800, 3200)).points[0].rounds
    r4 = run_lemma2(k=4, c=4, sizes=(200, 800, 3200)).points[0].rounds
    assert r4 == r2 + 2  # phase 1 costs exactly k rounds


def test_lemma2_phase_accounting():
    point = run_lemma2(k=2, c=4, sizes=(200,)).points[0]
    phases = point.phase_rounds
    assert (phases["recolor"], phases["pointer"], phases["mis"]) == (2, 1, 3)
    assert sum(phases.values()) == point.rounds


# -- The log* sweep up to 2^65536 ---------------------------------------

def test_logstar_sweep_to_2_65536_tracks_cole_vishkin():
    sweep = run_logstar_sweep(id_bits=(8, 64, 1024, 16384, 65536), tree_depth=3)
    assert all(p.verified for p in sweep.points)
    for a, b in zip(sweep.points, sweep.points[1:]):
        assert (b.measured_rounds - a.measured_rounds
                == b.predicted_cv_rounds - a.predicted_cv_rounds)
    # The space grew by a factor 2^65528, the rounds by a handful.
    spread = sweep.points[-1].measured_rounds - sweep.points[0].measured_rounds
    assert 1 <= spread <= 6
    # EXPERIMENTS.md quotes the 2^65536 point, which the report does not run.
    assert (sweep.points[-1].measured_rounds, sweep.points[-1].predicted_cv_rounds) == (16, 5)


# -- Theorem 4 at Delta = 6 ----------------------------------------------

def test_theorem4_delta6_verified_and_monotone():
    result = run_theorem4(delta=6, sizes=(50, 400, 3200), witness_depths=(2, 3))
    assert result.all_verified()
    rounds = [p.rounds for p in result.upper]
    assert rounds == sorted(rounds)


# -- Claim 10 and the global failure amplification ----------------------

def test_claim10_global_ceiling_decays_below_half():
    assert claim10_global_success_bound(0.1, 10**12, 1) < claim10_global_success_bound(
        0.1, 10**6, 1
    )
    assert claim10_global_success_bound(0.1, 10**15, 1) < 0.5


def test_stronger_seed_survives_longer():
    strong = run_global_failure(
        algorithm=smaller_count_coloring(2, bits=2), sizes=(3, 6, 9), trials=150
    )
    weak = run_global_failure(sizes=(3, 6, 9), trials=150)
    assert strong.local_failure < weak.local_failure
    assert strong.points[-1].measured_success >= weak.points[-1].measured_success


# -- Speedup round trips --------------------------------------------------

def test_round_trip_failure_grows():
    # A speedup shortens an algorithm; it never makes it fail less.
    result = run_speedup_pipeline(smaller_count_coloring(2, bits=1), method="exact")
    assert result.final_failure() >= result.stages[0].measured_failure.as_float() - 1e-12


def test_delta6_round_trip_lemmas_14_and_15():
    seed = local_maximum_coloring(3, bits=1)
    p = node_local_failure(seed, method="exact").as_float()
    edge = first_speedup(seed, paper_threshold_first(p, seed.palette, 6))
    p_edge = edge_local_failure(edge, method="exact")
    assert p_edge.exact
    assert p_edge.as_float() <= first_lemma_bound(p, seed.palette, 6) + 1e-12
    assert edge.palette.to_float() == 2.0 ** (2 * seed.palette.to_float())
    node = second_speedup(edge, paper_threshold_second(p_edge.as_float(), edge.palette, 6))
    p_node = node_local_failure(node, method="exact")
    assert p_node.as_float() <= second_lemma_bound(p_edge.as_float(), edge.palette, 6) + 1e-12
    assert node.palette.log2().to_float() == 6 * edge.palette.to_float()  # 2k edges
    assert node.t == 0
    # A 1-round algorithm fails with positive probability at both degrees.
    assert p > 0
    assert node_local_failure(local_maximum_coloring(2, bits=1), method="exact").as_float() > 0


def bit_and_parity_seed() -> NodeAlgorithm:
    """(own bit, radius-2 ball parity): a non-degenerate 2-round seed."""
    return NodeAlgorithm(2, 2, 1, 4, lambda a: (a[0], sum(a) % 2), name="bit-and-parity")


@pytest.fixture(scope="module")
def double_trip():
    return run_speedup_pipeline(bit_and_parity_seed(), method="auto", samples=20_000)


def test_double_round_trip_ladder(double_trip):
    assert [(s.kind, s.radius) for s in double_trip.stages] == [
        ("node", 2), ("edge", 1), ("node", 1), ("edge", 0), ("node", 0),
    ]


def test_double_round_trip_palettes_climb_the_tower(double_trip):
    log2s = [s.nominal_palette.log2().to_float() for s in double_trip.stages]
    assert log2s[:3] == [2.0, 8.0, 1024.0]  # 4, 2^(2*4), 2^(4*256)
    assert log2s[3] == float("inf")  # 2^(2*2^1024): beyond floats
    assert double_trip.stages[3].nominal_palette.log_star() >= 4


def test_double_round_trip_exact_after_the_seed(double_trip):
    # Only the seed's failure needs Monte Carlo; the ladder is exact.
    assert not double_trip.stages[0].measured_failure.exact
    assert all(stage.measured_failure.exact for stage in double_trip.stages[1:])


def test_double_round_trip_bounds_hold_at_tower_stages(double_trip):
    assert double_trip.all_bounds_hold()
    # Tower-palette stages have vacuous (inf) ceilings, faithfully so.
    assert double_trip.stages[-1].lemma_bound == float("inf")


def test_degenerate_two_round_seed_survives():
    # At one bit a strict radius-2 maximum is impossible: failure 1, and
    # the pipeline still runs with every bound holding trivially.
    result = run_speedup_pipeline(
        two_round_local_maximum(2, bits=1), method="auto", samples=5_000
    )
    assert result.all_bounds_hold()
    assert result.final_failure() == 1.0


# -- Ablations of the design choices DESIGN.md names ---------------------

def test_paper_threshold_is_competitive():
    # The paper's f optimizes the bound, not the measured failure, so it
    # is only asked to stay within a constant factor of the sweep's best.
    seed = local_maximum_coloring(2, bits=1)
    p = node_local_failure(seed, method="exact").as_float()
    paper_f = paper_threshold_first(p, seed.palette, seed.delta)
    failures = {
        f: edge_local_failure(first_speedup(seed, f), method="exact").as_float()
        for f in (Fraction(0), Fraction(1, 100), Fraction(1, 10), paper_f,
                  Fraction(1, 2), Fraction(9, 10), Fraction(1))
    }
    assert all(0 <= failure <= 1 for failure in failures.values())
    assert failures[paper_f] <= max(10 * min(failures.values()), 1.0)


def test_midrange_threshold_collapses_this_seed():
    # f = 1/2 lies above P(color 1) for every view yet below P(color 0):
    # every frequent set degenerates to {0}, the edge coloring is
    # constant, and failure is certain.  The paper's f avoids that.
    seed = local_maximum_coloring(2, bits=2)
    p = node_local_failure(seed, method="exact").as_float()
    paper_f = paper_threshold_first(p, seed.palette, seed.delta)
    p_paper = edge_local_failure(first_speedup(seed, paper_f), method="exact").as_float()
    p_mid = edge_local_failure(first_speedup(seed, Fraction(1, 2)), method="exact").as_float()
    assert p_mid == 1.0
    assert p_paper < p_mid


def test_monte_carlo_estimate_near_exact():
    seed = local_maximum_coloring(2, bits=1)
    exact = node_local_failure(seed, method="exact").as_float()
    mc = node_local_failure(seed, method="monte_carlo", samples=20_000,
                            rng=random.Random(0)).as_float()
    assert abs(mc - exact) < 0.02


def test_monte_carlo_converges():
    seed = local_maximum_coloring(2, bits=1)
    exact = node_local_failure(seed, method="exact").as_float()
    errors = [
        abs(node_local_failure(seed, method="monte_carlo", samples=samples,
                               rng=random.Random(1)).as_float() - exact)
        for samples in (500, 5_000, 50_000)
    ]
    assert errors[-1] <= errors[0] + 0.01


def test_pstar_fast_path_matches_general_path():
    tree = balanced_regular_tree(4, 4)
    ids = sequential_ids(tree)
    fast = _solve_pstar_acyclic(tree, 4, 4, ids)
    general = solve_pstar_partial(tree, 4, 4, ids)  # dispatches to the fast path
    assert fast.labels == general.labels
    assert not PStar(4).verify(tree, fast.labels)
    deep = balanced_regular_tree(4, 7)
    assert all(label is not None
               for label in _solve_pstar_acyclic(deep, 4, 7, sequential_ids(deep)).labels)


# -- Closed forms: palette towers, failure floors, Theorem 13 ------------

@pytest.mark.parametrize("delta", [4, 6, 8, 10])
def test_generalized_palette_towers(delta):
    trajectory = palette_trajectory(2, delta)
    assert trajectory[1].log2().to_float() == pytest.approx(16 * delta)  # 2^(delta 2^4)
    assert trajectory[2].log_star() == trajectory[1].log_star() + 2


def test_palette_towers_grow_two_stars_per_round():
    stars = [c.log_star() for c in palette_trajectory(5, 4)]
    assert all(b - a == 2 for a, b in zip(stars[1:], stars[2:]))


@pytest.mark.parametrize("delta", [4, 6, 8, 10])
def test_failure_floor_steepens_by_delta_plus_one_squared(delta):
    # Claim 16: the exponent is (Delta+1)^(2t+1), so one more round
    # multiplies the log-floor by (Delta+1)^2 (25 at Delta = 4), and a
    # larger Delta steepens it.
    floors = [claim11_failure_floor_log2(-10, 5, t, delta) for t in (1, 2, 3)]
    assert floors[0] < 0
    for a, b in zip(floors, floors[1:]):
        assert b / a == pytest.approx((delta + 1) ** 2, abs=1e-9)
    assert claim11_failure_floor_log2(-10, 5, 2, delta + 2) < floors[1]


def test_lemma9_regime_opens_at_tower_ten():
    # t = log*(n)/2 - b - 3 >= 1 opens at log* n = 10 for b = 1.
    assert not lemma9_evaluate(tower(9), 1).regime_reached
    assert lemma9_evaluate(tower(10), 1).regime_reached
    for h in (10, 12, 16, 24):
        assert lemma9_evaluate(tower(h), 1).below_half


def test_larger_b_needs_taller_towers():
    heights = [theorem13_crossover_height(b=b) for b in (1, 2, 3)]
    assert heights[0] == 10
    assert heights == sorted(set(heights))
