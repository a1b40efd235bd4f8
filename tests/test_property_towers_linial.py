"""Property-based tests: tower arithmetic and neighborhood graphs."""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import TowerNumber, exp2_scaled, iterated_log, tower
from repro.graphs import cycle
from repro.lcl import ProperColoring
from repro.lowerbounds import (
    algorithm_from_coloring,
    is_c_colorable,
    neighborhood_graph,
    window_of,
)

DEFAULT = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestTowerProperties:
    @given(st.floats(min_value=1.0, max_value=1e18), st.floats(min_value=1.0, max_value=1e18))
    @settings(max_examples=200, deadline=None)
    def test_comparisons_agree_with_floats(self, a, b):
        ta, tb = TowerNumber.from_float(a), TowerNumber.from_float(b)
        assert (ta < tb) == (a < b)
        assert (ta == tb) == (a == b)
        assert (ta >= tb) == (a >= b)

    @given(st.floats(min_value=2.0, max_value=1e15))
    @settings(max_examples=200, deadline=None)
    def test_log2_exp2_roundtrip(self, x):
        # Domain note: TowerNumber clamps logs at 1 (values below 2 have
        # log2 < 1, outside the representation), so start at 2.
        t = TowerNumber.from_float(x)
        back = t.log2().exp2().to_float()
        assert math.isclose(back, x, rel_tol=1e-9)

    @given(st.integers(1, 20), st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_iterated_log_peels_towers(self, h, k):
        t = tower(h)
        peeled = iterated_log(t, k)
        assert peeled == tower(max(0, h - k)) or peeled.log_star() == max(0, h - k)

    @given(st.integers(1, 30), st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_exp2_scaled_monotone(self, h, scale)  :
        t = tower(h)
        grown = exp2_scaled(t, float(scale))
        assert grown > t

    @given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_exp2_scaled_exact_when_small(self, x, scale):
        expected = 2.0 ** (x * scale)
        got = exp2_scaled(TowerNumber.from_float(x), scale).to_float()
        assert math.isclose(got, expected, rel_tol=1e-9)

    @given(st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_log_star_increments(self, h):
        assert tower(h + 1).log_star() == tower(h).log_star() + 1


class TestNeighborhoodGraphProperties:
    @given(st.integers(3, 6))
    @DEFAULT
    def test_n0_is_complete(self, m):
        g, _ = neighborhood_graph(m, 0)
        assert g.m == m * (m - 1) // 2

    @given(st.integers(4, 6))
    @DEFAULT
    def test_n1_degree_bound(self, m):
        g, _ = neighborhood_graph(m, 1)
        # Each window has at most (m - 3) forward + (m - 3) backward
        # successors... conservatively 2 (m - 2).
        assert g.max_degree() <= 2 * (m - 2)

    @given(st.integers(4, 6), st.integers(0, 2**32 - 1))
    @DEFAULT
    def test_derived_algorithms_always_proper(self, m, seed):
        g, windows = neighborhood_graph(m, 1)
        coloring = is_c_colorable(g, 4)
        alg = algorithm_from_coloring(coloring, windows, m=m, t=1)
        rng = random.Random(seed)
        n = rng.randrange(4, m + 1)
        ids = rng.sample(range(1, m + 1), n)
        out = alg.run(ids)
        assert ProperColoring(4).is_feasible(cycle(n), out)

    @given(st.lists(st.integers(1, 100), min_size=5, max_size=12, unique=True),
           st.integers(0, 11), st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_window_of_wraps(self, ids, position, t):
        position %= len(ids)
        w = window_of(ids, position, t)
        assert len(w) == 2 * t + 1
        assert w[t] == ids[position]
