"""Tests for the experiment harness (table/figure regeneration)."""

import pytest

from repro.experiments import (
    fit_growth,
    plant_distance_k_weak_coloring,
    run_claim10,
    run_classification,
    run_lemma2,
    run_logstar_sweep,
    run_recurrence_experiment,
    run_speedup_figures,
    run_table1,
    run_theorem4,
)
from repro.graphs import balanced_regular_tree
from repro.lcl import WeakColoring
import random


SMALL_SIZES = (50, 200, 800)


class TestFitting:
    def test_constant_series(self):
        fit = fit_growth([10, 100, 1000, 10000], [7, 7, 7, 7])
        assert fit.best == "constant"

    def test_log_series(self):
        import math

        ns = [2**i for i in range(4, 14)]
        fit = fit_growth(ns, [3 * math.log2(n) + 1 for n in ns])
        assert fit.best == "log"

    def test_linear_series(self):
        ns = [10, 100, 1000, 10000]
        fit = fit_growth(ns, [2 * n + 5 for n in ns])
        assert fit.best == "linear"

    def test_sqrt_series(self):
        ns = [100, 400, 1600, 6400, 25600]
        fit = fit_growth(ns, [n**0.5 for n in ns])
        assert fit.best == "sqrt"

    def test_flatness_tolerance(self):
        fit = fit_growth([10, 100, 1000, 10000], [7, 7, 8, 8], flatness_tolerance=1.5)
        assert fit.best == "constant"

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_growth([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_growth([1, 2, 2], [1, 2, 3])


class TestTable1:
    def test_rows_and_verification(self):
        result = run_table1(sizes=SMALL_SIZES)
        assert len(result.rows) == 4
        assert all(row.all_verified for row in result.rows)

    def test_growth_classes(self):
        result = run_table1(sizes=(50, 200, 800, 3200))
        by_example = {row.example: row for row in result.rows}
        assert by_example["2-coloring"].measured_class() == "log"
        assert by_example["sinkless orientation"].measured_class() == "log"
        assert (
            by_example["weak 2-coloring in odd-degree graphs"].measured_class()
            == "constant"
        )

    def test_format_table_mentions_every_row(self):
        result = run_table1(sizes=SMALL_SIZES)
        text = result.format_table()
        assert "sinkless orientation" in text
        assert "odd-degree" in text


class TestLogStarSweep:
    def test_monotone_and_verified(self):
        result = run_logstar_sweep(id_bits=(8, 64, 1024, 16384), tree_depth=3)
        assert result.monotone_in_log_star()
        assert all(p.verified for p in result.points)

    def test_rounds_actually_grow(self):
        result = run_logstar_sweep(id_bits=(8, 65536), tree_depth=3)
        assert result.points[-1].measured_rounds > result.points[0].measured_rounds


class TestSpeedupFigures:
    def test_bounds_hold_for_default_seeds(self):
        result = run_speedup_figures(method="exact")
        assert result.all_bounds_hold()
        assert len(result.rows) == 4

    def test_stage_structure(self):
        result = run_speedup_figures(method="exact")
        for row in result.rows:
            kinds = [s["kind"] for s in row.stages]
            assert kinds == ["node", "edge", "node"]
            assert row.stages[-1]["radius"] == 0

    def test_format_table(self):
        result = run_speedup_figures(method="exact")
        assert "seed=" in result.format_table()


class TestTheorem4:
    def test_upper_bound_grows_logarithmically(self):
        result = run_theorem4(sizes=(50, 200, 800, 3200))
        assert result.fit.best == "log"
        assert result.all_verified()

    def test_witnesses_contradict(self):
        result = run_theorem4(sizes=(50,), witness_depths=(2, 3))
        for w in result.witnesses:
            assert w.views_equal_radius >= w.depth - 2
            assert w.contradiction


class TestClassification:
    def test_three_rows_verified(self):
        result = run_classification(sizes=SMALL_SIZES)
        assert len(result.rows) == 3
        assert all(row.all_verified for row in result.rows)

    def test_class1_constant_class34_log(self):
        result = run_classification(sizes=(50, 200, 800, 3200))
        assert result.rows[0].fit.best == "constant"
        assert result.rows[2].fit.best == "log"


class TestLemma2Experiment:
    def test_planting_produces_valid_coloring(self):
        g = balanced_regular_tree(4, 4)
        phi = plant_distance_k_weak_coloring(g, k=2, c=4, rng=random.Random(0))
        assert WeakColoring(4, distance=2).is_feasible(g, phi)

    def test_reduction_rounds_constant(self):
        result = run_lemma2(k=2, c=4, sizes=SMALL_SIZES)
        assert result.rounds_are_constant()
        assert all(p.verified for p in result.points)
        assert result.fit.best == "constant"

    def test_other_parameters(self):
        result = run_lemma2(k=3, c=3, sizes=(50, 200))
        assert result.rounds_are_constant()


class TestClaim10Experiment:
    def test_bounds_hold(self):
        result = run_claim10(depth=8, ts=(1, 2), seed_radius=2)
        assert result.all_bounds_hold()
        in_regime = [p for p in result.points if p.in_regime]
        assert in_regime  # at least t=1 fits at depth 8
        assert all(p.pairwise_verified for p in in_regime)

    def test_odd_delta_rejected(self):
        with pytest.raises(ValueError):
            run_claim10(delta=3)


class TestRecurrenceExperiment:
    def test_structure(self):
        result = run_recurrence_experiment(
            ts=(1, 2), deltas=(4, 6), heights=(8, 10, 12)
        )
        assert len(result.palette_rows) == 4
        assert len(result.floor_rows) == 4
        assert result.crossover_height == 10
        text = result.format_table()
        assert "palette towers" in text and "endgame" in text

    def test_floors_more_negative_for_larger_delta(self):
        result = run_recurrence_experiment(ts=(2,), deltas=(4, 8), heights=(10,))
        floor4 = result.floor_rows[0]["floor_log2"]
        floor8 = result.floor_rows[1]["floor_log2"]
        assert floor8 < floor4


class TestListCLI:
    """``python -m repro.experiments --list`` prints the registries and exhibits."""

    def test_list_exits_zero_and_prints_sections(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for section in ("algorithms:", "graph families:", "LCL problems:",
                        "exhibits:"):
            assert section in out
        assert "engine backends:" not in out  # one engine, nothing to list
        assert "report specs:" not in out  # the exhibits replaced REPORTS

    def test_list_names_every_registered_component(self, capsys):
        from repro.core import ALGORITHMS, GRAPH_FAMILIES, PROBLEMS, ensure_builtins
        from repro.experiments import EXHIBITS
        from repro.experiments.__main__ import main

        ensure_builtins()
        main(["--list"])
        out = capsys.readouterr().out
        for registry in (ALGORITHMS, GRAPH_FAMILIES, PROBLEMS):
            for name in registry.names():
                assert name in out
        for exhibit in EXHIBITS:
            assert f"  {exhibit.name:<28s} {exhibit.title}" in out

    def test_list_does_not_run_any_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "SUMMARY" not in out
