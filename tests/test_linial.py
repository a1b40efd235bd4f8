"""Tests for Linial's neighborhood-graph machinery."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import run_linial_experiment
from repro.graphs import Graph, cycle
from repro.lcl import ProperColoring
from repro.lowerbounds import (
    algorithm_from_coloring,
    chromatic_number,
    is_c_colorable,
    linial_chromatic_lower_bound,
    neighborhood_graph,
    optimal_coloring,
    window_of,
)
from repro.lowerbounds import cnf
from repro.lowerbounds.linial import _coloring_cnf, _dsatur, _greedy_clique

from .rup_reference import check_by_propagation, lemmas_of


@pytest.fixture
def rup_verdicts(monkeypatch):
    """One ``(lemmas, verdict, reference verdict)`` per proof checked.

    Each proof :func:`cnf.check_rup` checks while the test runs is also
    held to the reference checker of ``tests/rup_reference.py``, which
    reads no hints; ``lemmas`` is the proof's length.
    """
    verdicts = []
    real = cnf.check_rup

    def spy(num_vars, clauses, proof):
        reference = check_by_propagation(num_vars, clauses, lemmas_of(proof))
        verdicts.append((len(proof), real(num_vars, clauses, proof), reference))
        return verdicts[-1][1]

    monkeypatch.setattr(cnf, "check_rup", spy)
    return verdicts


class TestNeighborhoodGraph:
    def test_n0_is_complete(self):
        for m in (3, 4, 5):
            g, windows = neighborhood_graph(m, 0)
            assert g.n == m
            assert g.m == m * (m - 1) // 2
            assert len(windows) == m

    def test_n1_vertex_count(self):
        for m in (4, 5, 6):
            g, windows = neighborhood_graph(m, 1)
            assert g.n == m * (m - 1) * (m - 2)
            assert len(windows) == g.n

    def test_windows_have_distinct_ids(self):
        _, windows = neighborhood_graph(5, 1)
        for w in windows:
            assert len(set(w)) == 3

    def test_edges_are_overlaps(self):
        g, windows = neighborhood_graph(4, 1)
        for i, j in g.edges():
            a, b = windows[i], windows[j]
            # One must be a shift of the other.
            assert a[1:] == b[:-1] or b[1:] == a[:-1]

    def test_edges_require_joint_distinctness(self):
        g, windows = neighborhood_graph(4, 1)
        index = {w: i for i, w in enumerate(windows)}
        # (1,2,3) -> (2,3,1) would repeat 1 across the union: forbidden.
        assert not g.has_edge(index[(1, 2, 3)], index[(2, 3, 1)])
        # (1,2,3) -> (2,3,4) is a genuine cycle fragment: present.
        assert g.has_edge(index[(1, 2, 3)], index[(2, 3, 4)])

    def test_window_too_wide_rejected(self):
        with pytest.raises(ValueError):
            neighborhood_graph(4, 2)

    def test_window_of(self):
        ids = [10, 20, 30, 40, 50]
        assert window_of(ids, 0, 1) == (50, 10, 20)
        assert window_of(ids, 2, 1) == (20, 30, 40)


class TestColorability:
    def test_dsatur_on_known_graphs(self):
        assert is_c_colorable(cycle(6), 2) is not None
        assert is_c_colorable(cycle(5), 2) is None
        assert is_c_colorable(cycle(5), 3) is not None

    def test_chromatic_numbers(self):
        from repro.graphs import complete_graph, path, star

        assert chromatic_number(complete_graph(5)) == 5
        assert chromatic_number(path(6)) == 2
        assert chromatic_number(star(4)) == 2
        assert chromatic_number(cycle(7)) == 3

    def test_chi_n0_equals_m(self):
        for m in (3, 4, 5, 6, 7):
            g, _ = neighborhood_graph(m, 0)
            assert chromatic_number(g) == m

    def test_chi_n1_small(self):
        g4, _ = neighborhood_graph(4, 1)
        g5, _ = neighborhood_graph(5, 1)
        g6, _ = neighborhood_graph(6, 1)
        assert chromatic_number(g4) == 2
        assert chromatic_number(g5) == 3
        assert chromatic_number(g6) == 3

    def test_colorings_returned_are_proper(self):
        g, _ = neighborhood_graph(6, 1)
        coloring = is_c_colorable(g, 3)
        assert ProperColoring(3).is_feasible(g, coloring)

    def test_empty_graph(self):
        assert chromatic_number(Graph(0)) == 0
        assert is_c_colorable(Graph(0), 1) == []

    def test_n1_7_not_3_colorable(self):
        # The one-round threshold: no 1-round algorithm 3-colors directed
        # cycles with identifiers from {1..7}, but 4 colors suffice.
        g, _ = neighborhood_graph(7, 1)
        assert is_c_colorable(g, 3) is None
        coloring = is_c_colorable(g, 4)
        assert ProperColoring(4).is_feasible(g, coloring)


class TestSearchOrder:
    """The DSATUR branching order is explicit, so its work is pinned.

    A drift in the pick rule, the tie-break or the symmetry breaking
    changes these figures on every Python version alike.
    """

    def test_n1_7_proof_node_count(self):
        g, _ = neighborhood_graph(7, 1)
        assert _dsatur(g, 3) == (None, 51868)

    def test_n1_6_coloring_digest(self):
        g, _ = neighborhood_graph(6, 1)
        coloring, _ = _dsatur(g, 3)
        assert hashlib.sha256(bytes(coloring)).hexdigest() == (
            "8927f952ee5d45f6dec7cfdf5efeddb01c7984e080e4d54d477b52e172ea04b8"
        )

    def test_first_vertex_takes_color_zero(self):
        # Symmetry breaking: the first pick (most neighbors, then the
        # smallest index) is fixed to color 0, and no color is skipped.
        for m, t, c in ((4, 0, 4), (4, 1, 2), (6, 1, 4)):
            g, _ = neighborhood_graph(m, t)
            coloring, _ = _dsatur(g, c)
            first = min(g.nodes(), key=lambda v: (-g.degree(v), v))
            assert coloring[first] == 0
            assert set(coloring) == set(range(max(coloring) + 1))


class TestClauseLearningProver:
    """The prover behind :func:`is_c_colorable` is deterministic too.

    Its variable order, branching rule and learning scheme are explicit,
    so the refutation of ``N_1(7)`` and the coloring of ``N_1(6)`` are
    pinned the same way as DSATUR's.
    """

    def test_n1_7_refutation_lemma_count(self):
        g, _ = neighborhood_graph(7, 1)
        _, clauses = _coloring_cnf(g, 3, _greedy_clique(g))
        model, proof = cnf.solve(g.n * 3, clauses)
        assert model is None
        assert len(proof) == 128 and proof[-1] == ((), ())
        assert sum(len(hints) for _, hints in proof) == 4129
        assert cnf.check_rup(g.n * 3, clauses, proof)
        assert check_by_propagation(g.n * 3, clauses, lemmas_of(proof))

    def test_n1_6_coloring_digest(self):
        g, _ = neighborhood_graph(6, 1)
        coloring = is_c_colorable(g, 3)
        assert hashlib.sha256(bytes(coloring)).hexdigest() == (
            "c866030d4d20b345c10ca0489211d16b5397c3149b7e371f33d4e438d3157ed3"
        )

    def test_clique_takes_the_first_colors(self):
        # Symmetry breaking: the greedy clique is fixed to colors 0..|Q|-1.
        for m, t, c in ((4, 0, 4), (4, 1, 2), (6, 1, 4)):
            g, _ = neighborhood_graph(m, t)
            clique = _greedy_clique(g)
            coloring = is_c_colorable(g, c)
            assert [coloring[q] for q in clique] == list(range(len(clique)))

    def test_large_clique_refutes_before_any_cnf(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the pigeonhole certificate should decide")

        monkeypatch.setattr(cnf, "solve", no_solve)
        g, _ = neighborhood_graph(6, 0)
        assert all(is_c_colorable(g, c) is None for c in range(6))

    def test_rejected_refutation_raises(self, monkeypatch):
        monkeypatch.setattr(cnf, "check_rup", lambda *args: False)
        with pytest.raises(RuntimeError, match="RUP check"):
            is_c_colorable(cycle(5), 2)
        assert is_c_colorable(cycle(5), 3) is not None  # a model needs no proof

    def test_refutations_are_checked(self, rup_verdicts):
        g, _ = neighborhood_graph(7, 1)
        assert is_c_colorable(g, 3) is None
        assert rup_verdicts == [(128, True, True)]


@pytest.mark.parametrize("m, t", [(3, 0), (4, 0), (5, 0), (6, 0), (4, 1), (5, 1), (6, 1), (7, 1)])
def test_provers_agree(m, t, rup_verdicts):
    """DSATUR and the clause-learning prover on every exhibit instance.

    Each refutation that reaches the prover passes both checkers.
    """
    g, _ = neighborhood_graph(m, t)
    for c in range(1, 5):
        coloring = is_c_colorable(g, c)
        other, _ = _dsatur(g, c)
        assert (coloring is None) == (other is None), (m, t, c)
        for found in (coloring, other):
            if found is not None:
                assert ProperColoring(c).is_feasible(g, found)
    assert all(verdict and reference for _, verdict, reference in rup_verdicts)


def _brute_force_colorable(graph, c):
    """Exhaustive oracle: does any assignment in ``[c]^n`` color properly?"""
    edges = list(graph.edges())
    return any(
        all(colors[u] != colors[v] for u, v in edges)
        for colors in itertools.product(range(c), repeat=graph.n)
    )


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n)
    for (u, v), keep in zip(pairs, present):
        if keep:
            g.add_edge(u, v)
    return g


class TestSearchAgainstBruteForce:
    @given(small_graphs(), st.integers(1, 4))
    def test_feasibility_matches_oracle(self, g, c):
        coloring = is_c_colorable(g, c)
        assert (coloring is not None) == _brute_force_colorable(g, c)
        if coloring is not None:
            assert ProperColoring(c).is_feasible(g, coloring)

    @given(small_graphs(), st.integers(1, 4))
    def test_dsatur_matches_oracle(self, g, c):
        coloring, _ = _dsatur(g, c)
        assert (coloring is not None) == _brute_force_colorable(g, c)
        if coloring is not None:
            assert ProperColoring(c).is_feasible(g, coloring)

    @given(small_graphs())
    def test_optimal_coloring_uses_chi_colors(self, g):
        coloring = optimal_coloring(g)
        chi = len(set(coloring))
        assert chi == chromatic_number(g)
        assert ProperColoring(max(chi, 1)).is_feasible(g, coloring)
        assert chi == 0 or not _brute_force_colorable(g, chi - 1)


class TestAlgorithmBridge:
    def _algorithm(self, m=6, t=1, c=3):
        g, windows = neighborhood_graph(m, t)
        coloring = is_c_colorable(g, c)
        assert coloring is not None
        return algorithm_from_coloring(coloring, windows, m=m, t=t)

    def test_derived_algorithm_colors_cycles(self):
        alg = self._algorithm()
        rng = random.Random(0)
        for trial in range(30):
            n = rng.choice([4, 5, 6])
            ids = rng.sample(range(1, 7), n)
            out = alg.run(ids)
            assert ProperColoring(3).is_feasible(cycle(n), out)

    def test_zero_round_identity_algorithm(self):
        # chi(N_0(m)) = m: the m-coloring is "output your own identifier".
        g, windows = neighborhood_graph(5, 0)
        coloring = is_c_colorable(g, 5)
        alg = algorithm_from_coloring(coloring, windows, m=5, t=0)
        out = alg.run([3, 1, 4, 2, 5])
        assert ProperColoring(5, palette=set(range(5))).is_feasible(cycle(5), out)

    def test_identifier_validation(self):
        alg = self._algorithm()
        with pytest.raises(ValueError, match="distinct"):
            alg.run([1, 2, 1, 3])
        with pytest.raises(ValueError, match="1..6"):
            alg.run([1, 2, 3, 9])


class TestLinialBound:
    def test_bound_values(self):
        assert linial_chromatic_lower_bound(8, 0) == 8.0
        assert linial_chromatic_lower_bound(16, 1) == 2.0  # log log 16
        assert linial_chromatic_lower_bound(2**16, 1) == 4.0

    def test_bound_respected_by_exact_chi(self):
        for m, t in ((4, 0), (5, 0), (4, 1), (5, 1), (6, 1)):
            g, _ = neighborhood_graph(m, t)
            assert chromatic_number(g) >= linial_chromatic_lower_bound(m, t) - 1e-9


class TestExperiment:
    def test_fast_path(self):
        result = run_linial_experiment(check_threshold=False)
        assert result.derived_algorithm_valid
        zero_round = [p for p in result.points if p.t == 0]
        assert all(p.chi == p.m for p in zero_round)
        one_round = [p for p in result.points if p.t == 1]
        assert all(p.chi <= 3 for p in one_round)
        assert "chi" in result.format_table() or "3-colorable" in result.format_table()

    def test_bridge_without_the_m6_row(self):
        # Exhibit 3 reuses exhibit 2's coloring of N_1(6) when that row
        # ran, and colors N_1(6) itself otherwise.
        with_row = run_linial_experiment(check_threshold=False)
        without = run_linial_experiment(one_round_chi_ms=(4, 5), check_threshold=False)
        assert with_row.derived_algorithm_valid and without.derived_algorithm_valid
        assert [p.m for p in without.points if p.t == 1] == [4, 5]


class TestWeakCycleWindows:
    """The weak-coloring window formalism (repro.lowerbounds.weak_cycle)."""

    def test_zero_round_threshold_is_four(self):
        from repro.lowerbounds import zero_round_weak2_threshold, weak_table_exists

        assert zero_round_weak2_threshold(8) == 4
        assert weak_table_exists(4, 0) is not None
        assert weak_table_exists(5, 0) is None  # pigeonhole: a mono triple

    def test_weak_strictly_easier_than_proper_at_zero_rounds(self):
        # 0-round weak 2-coloring works at m = 4, where 0-round proper
        # 3-coloring is impossible (chi(N_0(4)) = 4).
        from repro.lowerbounds import weak_table_exists, chromatic_number

        g, _ = neighborhood_graph(4, 0)
        assert chromatic_number(g) == 4 > 3
        assert weak_table_exists(4, 0) is not None

    def test_one_round_tables_exist(self):
        from repro.lowerbounds import weak_table_exists

        for m in (5, 6):
            assert weak_table_exists(m, 1) is not None

    @pytest.mark.parametrize("m", [7, 8])
    def test_frontier_tables_run_as_weak_coloring_algorithms(self, m):
        # The largest identifier spaces with a one-round weak 2-coloring.
        from repro.lowerbounds import WeakCycleAlgorithm
        from repro.lcl import WeakColoring

        alg = WeakCycleAlgorithm.from_search(m, 1)
        rng = random.Random(m)
        for _ in range(40):
            n = rng.randrange(5, m + 1)
            ids = rng.sample(range(1, m + 1), n)
            assert WeakColoring(2).is_feasible(cycle(n), alg.run(ids))

    def test_one_round_frontier_is_eight(self, rup_verdicts, monkeypatch):
        # No one-round weak 2-coloring with identifiers from {1..9}: the
        # prover refutes the 504-window, 15,120-constraint table with 298
        # lemmas and 5,981 hints, and the RUP checker accepts the proof.
        from repro.lowerbounds import weak_table_exists

        sizes = []
        spy = cnf.check_rup

        def sizing(num_vars, clauses, proof):
            # One variable per window; window 0's unit clause, then one
            # clause per constraint and color.
            sizes.append((num_vars, (len(clauses) - 1) // 2,
                          sum(len(hints) for _, hints in proof)))
            return spy(num_vars, clauses, proof)

        monkeypatch.setattr(cnf, "check_rup", sizing)
        assert weak_table_exists(9, 1) is None
        assert rup_verdicts == [(298, True, True)]
        assert sizes == [(504, 15_120, 5_981)]

    def test_rejected_refutation_raises(self, monkeypatch):
        from repro.lowerbounds import weak_table_exists

        monkeypatch.setattr(cnf, "check_rup", lambda *args: False)
        with pytest.raises(RuntimeError, match="RUP check"):
            weak_table_exists(5, 0)

    def test_tables_run_as_weak_coloring_algorithms(self):
        from repro.lowerbounds import WeakCycleAlgorithm
        from repro.lcl import WeakColoring

        alg = WeakCycleAlgorithm.from_search(6, 1)
        rng = random.Random(3)
        for _ in range(20):
            n = rng.choice([5, 6])
            ids = rng.sample(range(1, 7), n)
            out = alg.run(ids)
            assert WeakColoring(2).is_feasible(cycle(n), out)

    def test_zero_round_table_runs(self):
        from repro.lowerbounds import WeakCycleAlgorithm
        from repro.lcl import WeakColoring

        alg = WeakCycleAlgorithm.from_search(4, 0)
        out = alg.run([2, 4, 1, 3])
        assert WeakColoring(2).is_feasible(cycle(4), out)

    def test_from_search_raises_when_impossible(self):
        from repro.lowerbounds import WeakCycleAlgorithm

        with pytest.raises(ValueError, match="no 2-color"):
            WeakCycleAlgorithm.from_search(6, 0)

    def test_constraint_shape(self):
        from repro.lowerbounds import weak_constraints

        windows, constraints = weak_constraints(5, 1)
        assert len(windows) == 60
        assert len(constraints) == 120  # 5 * 4 * 3 * 2 * 1 runs
        for a, b, c in constraints:
            assert windows[a][1:] == windows[b][:-1]
            assert windows[b][1:] == windows[c][:-1]
