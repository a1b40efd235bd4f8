"""The series table behind every round count (``repro.experiments.solvers``).

Table 1, Theorem 4, the classification, Lemma 2 and the cycle trichotomy
run one loop, so each of them:

* returns no fit for a two-size sweep (Lemma 2 keeps no fit: its
  verdict reads the rounds), and measures unsorted sizes, and sizes
  that snap to the same graph, as the sorted distinct graphs;
* calls every solver through its module-level name, which a tracer (the
  layer trace of ``paperbench/layers.py``) or a test's plant rebinds, and
  builds each graph once per call;
* frees each sweep's graphs after its last row.
"""

import importlib
import sys
import weakref
from collections import Counter

import pytest

from repro.experiments import (
    run_classification,
    run_cycle_trichotomy,
    run_lemma2,
    run_table1,
    run_theorem4,
)

RUNNERS = (run_table1, run_theorem4, run_classification, run_lemma2, run_cycle_trichotomy)


def _fits(result):
    return [row.fit for row in getattr(result, "rows", [result])]


def test_two_size_sweeps_leave_every_fit_empty():
    for runner in (run_table1, run_theorem4, run_classification, run_cycle_trichotomy):
        sizes = (16, 64) if runner is run_cycle_trichotomy else (50, 200)
        fits = _fits(runner(sizes=sizes))
        assert fits and all(fit is None for fit in fits)


def test_unsorted_sizes_measure_as_sorted():
    def rows(result):
        return [(r.measurements, r.randomized_measurements, r.all_verified, r.fit.best)
                for r in result.rows]

    assert rows(run_table1(sizes=(800, 50, 200))) == rows(run_table1(sizes=(50, 200, 800)))


def test_sizes_snapping_to_one_graph_are_measured_once():
    # 15 snaps up to the even cycle 16.
    result = run_cycle_trichotomy(sizes=(15, 16, 64, 256))
    assert [row.measurements for row in result.rows] == [
        row.measurements for row in run_cycle_trichotomy(sizes=(16, 64, 256)).rows
    ]
    assert [n for n, _ in result.rows[0].measurements] == [16, 64, 256]


def test_a_sweep_is_freed_after_its_last_row(monkeypatch):
    """Table 1's Delta = 4 trees are gone when its first Delta = 3 row solves."""
    table1 = importlib.import_module("repro.experiments.table1")
    trees, alive_at_odd_rows = [], []

    def recording(graph, ids, _solve=table1.proper_two_coloring):
        trees.append(weakref.ref(graph))
        return _solve(graph, ids)

    def checking(graph, ids, _solve=table1.odd_degree_weak_two_coloring):
        alive_at_odd_rows.append(sum(tree() is not None for tree in trees))
        return _solve(graph, ids)

    monkeypatch.setattr(table1, "proper_two_coloring", recording)
    monkeypatch.setattr(table1, "odd_degree_weak_two_coloring", checking)
    result = table1.run_table1(sizes=(50, 200))
    assert len(trees) == 4  # two trees, each 2-colored twice
    assert alive_at_odd_rows == [0, 0, 0, 0]
    assert all(row.all_verified for row in result.rows)


#: The solvers the five runners call, and the generators of their sweeps.
ENTRY_POINTS = (
    "repro.algorithms.two_coloring:proper_two_coloring",
    "repro.algorithms.sinkless:sinkless_from_pstar",
    "repro.algorithms.sinkless:sinkless_random_repair",
    "repro.algorithms.weak_coloring:weak_two_coloring_from_ids",
    "repro.algorithms.weak_coloring:weak_two_coloring_from_weak_coloring",
    "repro.algorithms.naor_stockmeyer:odd_degree_weak_two_coloring",
    "repro.algorithms.pointer_solver:solve_pstar",
    "repro.algorithms.homogeneous_solver:solve_with_constant_label",
    "repro.algorithms.homogeneous_solver:solve_weak2_homogeneous",
    "repro.algorithms.homogeneous_solver:solve_all_pstar",
    "repro.algorithms.proper_coloring:linial_coloring",
    "repro.graphs.generators:regular_tree_of_depth_at_least",
    "repro.graphs.generators:cycle",
)


@pytest.fixture
def calls(monkeypatch):
    """Rebind each entry point in every ``repro`` module that bound it by
    name, as the layer trace does, and count the calls made from outside
    every entry point (a solver's own inner calls are not the runner's)."""
    counts, depth = Counter(), [0]
    modules = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "repro" and module is not None]
    for entry in ENTRY_POINTS:
        module_name, _, name = entry.partition(":")
        function = getattr(importlib.import_module(module_name), name)

        def counted(*args, _function=function, _name=name, **kwargs):
            counts[_name] += depth[0] == 0
            depth[0] += 1
            try:
                return _function(*args, **kwargs)
            finally:
                depth[0] -= 1

        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attribute, counted)
    return counts


# Tree sizes 50 and 53 snap to the same tree at Delta = 4 (53 nodes) and
# Delta = 3 (94), and 200 to one more each: two graphs per sweep.
TREES = (50, 53, 200)
SEAM = [
    (run_table1, TREES, {"regular_tree_of_depth_at_least": 4, "proper_two_coloring": 4,
                         "sinkless_from_pstar": 2, "sinkless_random_repair": 2,
                         "weak_two_coloring_from_ids": 4, "odd_degree_weak_two_coloring": 4}),
    (run_theorem4, TREES, {"regular_tree_of_depth_at_least": 2, "solve_pstar": 2}),
    (run_classification, TREES, {"regular_tree_of_depth_at_least": 2,
                                 "solve_with_constant_label": 2, "solve_weak2_homogeneous": 2,
                                 "solve_all_pstar": 2}),
    (run_lemma2, TREES, {"regular_tree_of_depth_at_least": 2,
                         "weak_two_coloring_from_weak_coloring": 2}),
    (run_cycle_trichotomy, (15, 16, 64), {"cycle": 2, "linial_coloring": 2,
                                          "proper_two_coloring": 2}),
]


@pytest.mark.parametrize("runner,sizes,expected", SEAM, ids=[r.__name__ for r, _, _ in SEAM])
def test_every_solver_call_reaches_the_module_name(calls, runner, sizes, expected):
    runner(sizes=sizes)
    assert calls == Counter(expected)
