"""The exhibit table behind ``python -m repro.experiments``.

* Each row prints what the paper benchmark digests: its lines plus the
  benchmark's own verdict labels hash to the committed digest in
  ``paperbench/digests.json``, one test per (workload, exhibit).
* The verdicts state the claims: points planted unverified fail the
  SUMMARY, the exit code and ``summary.json`` (``--artifacts`` writes
  one file per row from the same loop), and a Claim 10 sweep with no
  in-regime point fails its verdict.
* The report's own results hold the shapes no verdict states.
"""

import functools
import hashlib
import importlib
import json
import math
from pathlib import Path

import pytest

from repro.experiments import EXHIBITS, run_claim10
from repro.experiments.__main__ import EXHIBIT_SCHEMA, SUMMARY_SCHEMA, main

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


def test_planted_unverified_points_fail_the_report(monkeypatch, tmp_path, capsys):
    for module, point in (("lemma2_experiment", "Lemma2Point"),
                          ("logstar_sweep", "LogStarSweepPoint")):
        module = importlib.import_module(f"repro.experiments.{module}")
        monkeypatch.setattr(module, point, _unverified(getattr(module, point)))
    assert main(["--quick", "--artifacts", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] log* sweep monotone" in out
    assert "  [FAIL] Lemma 2 constant" in out
    assert out.count("[FAIL]") == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == SUMMARY_SCHEMA
    assert summary["exhibits"] == [e.name for e in EXHIBITS]
    assert summary["failed"] == ["log* sweep monotone", "Lemma 2 constant"]
    assert summary["passed"] == 15
    # One artifact per exhibit, written by the same loop that printed.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{e.name}.json" for e in EXHIBITS] + ["summary.json"]
    )
    for exhibit in EXHIBITS:
        doc = json.loads((tmp_path / f"{exhibit.name}.json").read_text())
        assert doc["schema"] == EXHIBIT_SCHEMA and doc["quick"] is True
        assert doc["arguments"] == json.loads(json.dumps(exhibit.quick_args))
        assert "\n".join(doc["lines"]) in out
        assert doc["passed"] is (exhibit.name not in ("lemma2", "logstar_sweep"))
        assert [v["label"] for v in doc["verdicts"]] == [
            v["label"] for v in summary["verdicts"] if v["exhibit"] == exhibit.name
        ]


def test_claim10_without_an_in_regime_point_fails():
    shallow = run_claim10(depth=4, ts=(1, 2), seed_radius=2)
    assert not any(p.in_regime for p in shallow.points)
    assert all(p.bound_holds for p in shallow.points)  # each point holds vacuously
    assert BY_NAME["claim10"].verdicts(shallow) == [("Claim 10 bounds", False)]


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
