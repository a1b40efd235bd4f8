"""The exhibit table behind ``python -m repro.experiments``.

* Each row prints what the paper benchmark digests: its lines plus the
  benchmark's own verdict labels hash to the committed digest in
  ``paperbench/digests.json``, one test per (workload, exhibit).
* The verdicts state the claims: points planted unverified, and a
  2-coloring planted wrong only under shuffled identifiers (Table 1's
  randomized column), fail the SUMMARY, the exit code and
  ``summary.json`` (``--artifacts`` writes one file per row from the
  same loop), and a Claim 10 sweep with no in-regime point, or with one
  left unverified, fails its verdict.
* The report's own results hold the shapes no verdict states, and
  EXPERIMENTS.md's Table 1, log* sweep, Theorem 5, cycle-trichotomy and
  global-failure tables, and the round series its Theorem 4 and Lemma 2
  sections quote, are the report's run, cell by cell.
"""

import dataclasses
import functools
import hashlib
import importlib
import json
import math
import re
from pathlib import Path

import pytest

from repro.experiments import EXHIBITS, run_claim10
from repro.experiments.__main__ import EXHIBIT_SCHEMA, SUMMARY_SCHEMA, main

from .markdown_tables import EXPERIMENTS_MD, section, section_tables

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "paperbench" / "digests.json").read_text()
)
#: The verdict labels ``paperbench/child.py`` prints into its digests.
#: The benchmark owns them, so they are spelled out here.
BENCHMARK_LABELS = {
    "Table 1 verified",
    "log* sweep monotone",
    "speedup lemma bounds hold",
    "Theorem 4 verified",
    "classification verified",
    "Lemma 2 constant",
    "Claim 10 bounds",
    "Theorem 13 crossover at 2^^10",
    "trichotomy verified",
    "Linial equivalence valid",
    "N_1(7) not 3-colorable",
    "global success decays",
}
#: The one benchmark workload that runs the ``--quick`` arguments.
QUICK_WORKLOAD = "paper-quick"
PAIRS = [(workload, name) for workload in sorted(DIGESTS) for name in sorted(DIGESTS[workload])]
BY_NAME = {exhibit.name: exhibit for exhibit in EXHIBITS}


@functools.lru_cache(maxsize=None)
def _result(name, quick):
    exhibit = BY_NAME[name]
    return exhibit.run(**exhibit.arguments(quick))


def _execute(name, quick):
    result = _result(name, quick)
    return BY_NAME[name].lines(result), BY_NAME[name].verdicts(result)


def test_exhibit_names_are_the_benchmark_keys():
    names = [exhibit.name for exhibit in EXHIBITS]
    assert len(set(names)) == len(names)
    assert set(names) == set(DIGESTS[QUICK_WORKLOAD])
    assert all(name.isidentifier() for name in names)  # safe artifact file names


@pytest.mark.parametrize("workload,name", PAIRS, ids=[f"{w}-{n}" for w, n in PAIRS])
def test_exhibit_matches_benchmark_digest(workload, name):
    lines, verdicts = _execute(name, workload == QUICK_WORKLOAD)
    text = "\n".join(
        lines + [f"  [{'PASS' if ok else 'FAIL'}] {label}"
                 for label, ok in verdicts if label in BENCHMARK_LABELS]
    )
    digests = DIGESTS[workload][name]
    assert hashlib.sha256(text.encode()).hexdigest() == digests.get("0", digests.get("*"))


def test_summary_keeps_the_benchmark_labels_in_order():
    full = [label for e in EXHIBITS for label, _ in _execute(e.name, False)[1]]
    quick = [label for e in EXHIBITS for label, _ in _execute(e.name, True)[1]]
    assert len(full) == 18 and len(quick) == 17
    assert [label for label in full if label in BENCHMARK_LABELS] == [
        "Table 1 verified", "log* sweep monotone", "speedup lemma bounds hold",
        "Theorem 4 verified", "classification verified", "Lemma 2 constant",
        "Claim 10 bounds", "Theorem 13 crossover at 2^^10", "trichotomy verified",
        "Linial equivalence valid", "N_1(7) not 3-colorable", "global success decays",
    ]
    assert quick == [label for label in full if label != "N_1(7) not 3-colorable"]


def _unverified(point_class):
    return lambda **fields: point_class(**{**fields, "verified": False})


def _wrong_when_shuffled(solver):
    """A 2-coloring that paints every node 0 unless the identifiers are 1..n."""
    def planted(graph, ids):
        out = solver(graph, ids)
        if list(ids) == list(range(1, graph.n + 1)):
            return out
        return dataclasses.replace(out, colors=[0] * graph.n)
    return planted


def test_planted_unverified_points_fail_the_report(monkeypatch, tmp_path, capsys):
    for module, point in (("lemma2_experiment", "Lemma2Point"),
                          ("logstar_sweep", "LogStarSweepPoint")):
        module = importlib.import_module(f"repro.experiments.{module}")
        monkeypatch.setattr(module, point, _unverified(getattr(module, point)))
    table1 = importlib.import_module("repro.experiments.table1")
    monkeypatch.setattr(table1, "proper_two_coloring",
                        _wrong_when_shuffled(table1.proper_two_coloring))
    assert main(["--quick", "--artifacts", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] Table 1 verified" in out
    assert "  [FAIL] log* sweep monotone" in out
    assert "  [FAIL] Lemma 2 constant" in out
    assert out.count("[FAIL]") == 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == SUMMARY_SCHEMA
    assert summary["exhibits"] == [e.name for e in EXHIBITS]
    assert summary["failed"] == ["Table 1 verified", "log* sweep monotone", "Lemma 2 constant"]
    assert summary["passed"] == 14
    # One artifact per exhibit, written by the same loop that printed.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{e.name}.json" for e in EXHIBITS] + ["summary.json"]
    )
    for exhibit in EXHIBITS:
        doc = json.loads((tmp_path / f"{exhibit.name}.json").read_text())
        assert doc["schema"] == EXHIBIT_SCHEMA and doc["quick"] is True
        assert doc["arguments"] == json.loads(json.dumps(exhibit.quick_args))
        assert "\n".join(doc["lines"]) in out
        assert doc["passed"] is (exhibit.name not in ("table1", "lemma2", "logstar_sweep"))
        assert [v["label"] for v in doc["verdicts"]] == [
            v["label"] for v in summary["verdicts"] if v["exhibit"] == exhibit.name
        ]


def test_claim10_without_an_in_regime_point_fails():
    shallow = run_claim10(depth=4, ts=(1, 2), seed_radius=2)
    assert not any(p.in_regime for p in shallow.points)
    assert all(p.bound_holds for p in shallow.points)  # each point holds vacuously
    assert BY_NAME["claim10"].verdicts(shallow) == [("Claim 10 bounds", False)]


def test_claim10_needs_every_in_regime_point_verified():
    claim10 = BY_NAME["claim10"]
    assert all(claim10.arguments(quick)["verify_pairwise"] for quick in (False, True))
    unverified = run_claim10(depth=8, ts=(1, 2), seed_radius=2, verify_pairwise=False)
    assert unverified.all_bounds_hold()  # the bounds alone would pass
    assert not any(p.pairwise_verified for p in unverified.points)
    assert claim10.verdicts(unverified) == [("Claim 10 bounds", False)]
    assert claim10.verdicts(_result("claim10", True)) == [("Claim 10 bounds", True)]


# The report's own full results: shapes the verdicts leave to tests.

def test_table1_log_rows_grow_in_order():
    two_coloring, sinkless, weak_even, _ = _result("table1", False).rows
    rounds = [r for _, r in two_coloring.measurements]
    assert rounds == sorted(rounds) and rounds[-1] > rounds[0]
    at_largest = [row.measurements[-1][1] for row in (two_coloring, sinkless, weak_even)]
    assert at_largest[0] >= 10  # the log rows genuinely grew
    assert at_largest[2] <= at_largest[0] + 25


def test_trichotomy_separations_at_largest_n():
    trivial, local, global_ = (row.measurements[-1][1]
                               for row in _result("trichotomy", False).rows)
    assert trivial < local < global_
    assert local * 10 < global_  # orders of magnitude below the global row


def test_theorem4_radius_grows_and_rounds_track_log2():
    theorem4 = _result("theorem4", False)
    radii = [p.radius for p in theorem4.upper]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    ratios = [p.rounds / math.log2(p.n) for p in theorem4.upper]
    assert max(ratios) <= 3 * min(ratios)


def test_claim10_larger_t_smaller_set():
    sizes = [p.set_size for p in _result("claim10", False).points if p.in_regime]
    assert len(sizes) == 2 and sizes == sorted(sizes, reverse=True)


def test_global_success_collapses_by_twelve_by_twelve():
    points = _result("global_failure", False).points
    assert (points[0].rows, points[-1].rows) == (3, 12)
    assert points[-1].measured_success <= min(points[0].measured_success, 0.05)


@pytest.fixture(scope="module")
def report_global_failure():
    exhibit = BY_NAME["global_failure"]
    return exhibit.run(**exhibit.full_args, rng_seed=0)


def _global_failure_table_matches(markdown, result):
    """EXPERIMENTS.md's torus, n, measured success and ceiling cells."""
    return section_tables(markdown, "Local -> global amplification") == [
        [
            [f"{p.rows}×{p.cols}", str(p.n), f"{p.measured_success:.2f}",
             f"{p.analytic_ceiling:.2f}"]
            for p in result.points
        ]
    ]


def test_experiments_md_global_failure_cells_are_measured(report_global_failure):
    markdown = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert _global_failure_table_matches(markdown, report_global_failure)


@pytest.mark.parametrize("cell,changed", [
    ("| 3×3 | 9 | 0.03 | 0.41 |", "| 3×3 | 9 | 0.02 | 0.41 |"),
    ("| 6×6 | 36 | 0.00 | 0.03 |", "| 6×6 | 36 | 0.00 | 0.02 |"),
    ("| 12×12 | 144 | 0.00 | 0.00 |", "| 12×12 | 121 | 0.00 | 0.00 |"),
])
def test_a_changed_global_failure_cell_fails(report_global_failure, cell, changed):
    markdown = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert markdown.count(cell) == 1
    changed_markdown = markdown.replace(cell, changed)
    assert not _global_failure_table_matches(changed_markdown, report_global_failure)


def _md(text):
    """A label or a paper class as EXPERIMENTS.md writes it: Θ, and ``*`` escaped."""
    return text.replace("Theta", "Θ").replace("*", "\\*")


def _series(values):
    return ", ".join(str(value) for value in values)


def _sweep_cells(row):
    """A measured column's n range, its rounds and its printed fit."""
    ns = [n for n, _ in row.measurements]
    return [f"{ns[0]}…{ns[-1]}", _series(r for _, r in row.measurements), row.fit.best]


def _table1_cells(result):
    return [
        [_md(row.example), f"{_md(row.paper_deterministic)} / {_md(row.paper_randomized)}",
         *_sweep_cells(row), "✓" if row.all_verified else "✗"]
        for row in result.rows
    ]


def _class_cells(result):
    return [[_md(row.label), _md(row.paper_complexity), *_sweep_cells(row)]
            for row in result.rows]


def _logstar_cells(sweep):
    return [
        ["id space", *(f"2^{p.id_bits}" for p in sweep.points)],
        ["measured rounds", *(str(p.measured_rounds) for p in sweep.points)],
        ["predicted CV iterations", *(str(p.predicted_cv_rounds) for p in sweep.points)],
    ]


def _tables(heading):
    """A section's tables."""
    return lambda markdown: section_tables(markdown, heading)


def _logstar_columns(markdown):
    """The log* sweep's table, header included, cut to the report's four id
    spaces (its 2^65536 column is ``tests/test_paper_shapes.py``'s run)."""
    return [[row[:5] for row in table]
            for table in section_tables(markdown, "Θ(log\\* n), made visible", header=True)]


def _bold_series(heading):
    """A section's bold runs of numbers: the series its prose quotes."""
    return lambda markdown: re.findall(r"\*\*([\d, ]+)\*\*", section(markdown, heading))


#: exhibit -> (what its EXPERIMENTS.md section writes, what its full result reads as)
REPORT_TABLES = {
    "table1": (_tables("Table 1"), _table1_cells),
    "classification": (_tables("Theorem 5"), _class_cells),
    "trichotomy": (_tables("Cycle trichotomy"), _class_cells),
    "logstar_sweep": (_logstar_columns, _logstar_cells),
    "theorem4": (_bold_series("Theorem 4"), lambda result: _series(p.rounds for p in result.upper)),
    "lemma2": (_bold_series("Lemma 2"), lambda result: _series(p.rounds for p in result.points)),
}


def _report_table_matches(markdown, name):
    written, cells = REPORT_TABLES[name]
    return written(markdown) == [cells(_result(name, False))]


@pytest.mark.parametrize("name", sorted(REPORT_TABLES))
def test_experiments_md_table_cells_are_measured(name):
    assert _report_table_matches(EXPERIMENTS_MD.read_text(encoding="utf-8"), name)


#: exhibit -> cells as written, each with the same cell changed
CHANGED_CELLS = {
    "table1": [("| Θ(1) / Θ(1) | 94…6142 |", "| Θ(1) / Θ(1) | 53…4373 |")],
    "classification": [("| 53…4373 | 15, 15, 15, 15 | constant |\n",
                        "| 53…4373 | 15, 15, 15, 15 | log_star |\n")],
    "trichotomy": [("| 8, 32, 128, 512 | linear |", "| 8, 32, 128, 511 | linear |")],
    "logstar_sweep": [
        ("| id space | 2^8 | 2^64 | 2^1024 | 2^16384 |",
         "| id space | 2^8 | 2^32 | 2^1024 | 2^16384 |"),
        ("| measured rounds | 15 | 15 | 16 | 16 |", "| measured rounds | 15 | 15 | 16 | 15 |"),
        ("| predicted CV iterations | 4 | 4 | 5 | 5 |",
         "| predicted CV iterations | 4 | 4 | 4 | 5 |"),
    ],
    "theorem4": [("**6, 10, 12, 14**", "**6, 10, 12, 15**")],
    "lemma2": [("**13, 13, 13, 13**", "**13, 13, 13, 12**")],
}


@pytest.mark.parametrize("name", sorted(CHANGED_CELLS))
def test_a_changed_report_table_cell_fails(name):
    markdown = EXPERIMENTS_MD.read_text(encoding="utf-8")
    for cell, changed in CHANGED_CELLS[name]:
        assert markdown.count(cell) == 1
        assert not _report_table_matches(markdown.replace(cell, changed), name)
