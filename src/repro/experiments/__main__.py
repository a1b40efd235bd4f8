"""Run every experiment and print a consolidated report.

Usage::

    python -m repro.experiments                     # serial report
    python -m repro.experiments --quick             # smaller sweeps
    python -m repro.experiments --jobs 4            # parallel cells
    python -m repro.experiments --jobs 4 --artifacts out/   # + JSON artifacts
    python -m repro.experiments --list              # registered components

Regenerates Table 1, the log* sweep, Figures 1-2 (speedup lemmas), the
Theorem 4 ladder, the Theorem 5 classification, Lemma 2, Claim 10,
Claims 11-12 / Theorem 13, the cycle trichotomy, and the global-failure
amplification — each followed by its pass/fail verdict.

With ``--jobs`` and/or ``--artifacts`` the workload runs through the
cell runner (:mod:`repro.experiments.runner`): independent cells fan
out over worker processes, each leaving a JSON artifact with its
verdict, metrics, and timings.

Exit-code contract (both paths): **0** iff every verdict passed, **1**
if any verdict failed or a cell errored, **2** on usage errors
(argparse's convention).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import (
    run_claim10,
    run_linial_experiment,
    run_classification,
    run_cycle_trichotomy,
    run_global_failure,
    run_lemma2,
    run_logstar_sweep,
    run_recurrence_experiment,
    run_speedup_figures,
    run_table1,
    run_theorem4,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every table, figure, and headline claim. "
        "Exit code: 0 iff every verdict passes, 1 otherwise, 2 on usage errors.",
    )
    parser.add_argument("--quick", action="store_true", help="smaller sweeps")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run independent experiment cells over N worker processes "
        "(switches to the cell runner; default: the serial report)",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write one JSON artifact per cell plus summary.json into DIR "
        "(implies the cell runner; default DIR with --jobs: ./artifacts)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for deterministic per-cell seed derivation (cell runner)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_components",
        help="list every registered algorithm, graph family, LCL problem, "
        "and report spec, then exit",
    )
    args = parser.parse_args(argv)

    if args.list_components:
        return _list_components()
    if args.jobs is not None or args.artifacts is not None:
        return _run_parallel(args)
    return _run_serial_report(args)


def _list_components() -> int:
    """Print the registries — the honest answer to "what can this run?"."""
    from ..core import (
        ALGORITHMS,
        GRAPH_FAMILIES,
        PROBLEMS,
        REPORTS,
        ensure_builtins,
    )

    ensure_builtins()

    def section(title: str, rows) -> None:
        print(f"{title}:")
        for name, annotation in rows:
            print(f"  {name:<28s} {annotation}")
        print()

    section(
        "algorithms",
        (
            (
                e.name,
                f"[{e.metadata.get('kind', '?')}] {e.description}",
            )
            for e in ALGORITHMS.entries()
        ),
    )
    section(
        "graph families",
        (
            (e.name, f"params: {', '.join(e.metadata.get('params', ())) or '-'}")
            for e in GRAPH_FAMILIES.entries()
        ),
    )
    section(
        "LCL problems",
        (
            (e.name, f"[{e.metadata.get('model', '?')}] {e.description}")
            for e in PROBLEMS.entries()
        ),
    )
    section(
        "report specs",
        ((e.name, e.description) for e in REPORTS.entries()),
    )
    return 0


def _run_parallel(args) -> int:
    from .runner import default_plan, run_cells

    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    jobs = args.jobs or 1
    artifacts = args.artifacts or "artifacts"
    cells = default_plan(quick=args.quick, base_seed=args.seed)
    print(f"running {len(cells)} cells on {jobs} process(es) -> {artifacts}/")

    def progress(result) -> None:
        status = "ERROR" if result.error else ("PASS" if result.verdict else "FAIL")
        print(f"  [{status}] {result.cell.cell_id}  ({result.wall_seconds:.2f}s)")

    summary = run_cells(cells, jobs=jobs, artifacts_dir=artifacts, progress=progress)
    print(
        f"\nSUMMARY  {len(summary.results) - len(summary.failed)}/"
        f"{len(summary.results)} cells passed in {summary.wall_seconds:.1f}s "
        f"(artifacts: {artifacts}/)"
    )
    for result in summary.failed:
        reason = "error" if result.error else "verdict failed"
        print(f"  [FAIL] {result.cell.cell_id}: {reason}")
        if result.error:
            print("    " + result.error.splitlines()[-1])
    return summary.exit_code


def _run_serial_report(args) -> int:
    sizes = (50, 200, 800) if args.quick else (50, 200, 800, 3200)
    verdicts = []

    def section(title: str) -> None:
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")

    start = time.time()

    section("Table 1 — homogeneous LCL complexities")
    table1 = run_table1(sizes=sizes)
    print(table1.format_table())
    verdicts.append(("Table 1 verified", all(r.all_verified for r in table1.rows)))

    section("Theta(log* n) made visible — identifier-space sweep")
    sweep = run_logstar_sweep(id_bits=(8, 64, 1024, 16384), tree_depth=3)
    for p in sweep.points:
        print(f"  id space 2^{p.id_bits:<6d}: {p.measured_rounds} rounds "
              f"(CV prediction {p.predicted_cv_rounds})")
    verdicts.append(("log* sweep monotone", sweep.monotone_in_log_star()))

    section("Figures 1-2 — speedup lemmas, exact probabilities")
    figures = run_speedup_figures(method="exact")
    print(figures.format_table())
    verdicts.append(("speedup lemma bounds hold", figures.all_bounds_hold()))

    section("Theorem 4 — P* is Theta(log n)")
    theorem4 = run_theorem4(sizes=sizes)
    print("  upper:", ", ".join(f"{p.n}:{p.rounds}" for p in theorem4.upper),
          f"(fit: {theorem4.fit.best if theorem4.fit else '-'})")
    for w in theorem4.witnesses:
        print(f"  Lemma 18 depth {w.depth}: views equal to radius "
              f"{w.views_equal_radius}, outputs forced {w.center_d_on_t} vs "
              f"{w.center_d_on_t_prime}")
    verdicts.append(("Theorem 4 verified", theorem4.all_verified()))

    section("Theorem 5 — classification")
    classification = run_classification(sizes=sizes)
    print(classification.format_table())
    verdicts.append(
        ("classification verified", all(r.all_verified for r in classification.rows))
    )

    section("Lemma 2 — minimality reduction is O(1)")
    lemma2 = run_lemma2(sizes=sizes)
    print("  rounds:", ", ".join(f"{p.n}:{p.rounds}" for p in lemma2.points))
    verdicts.append(("Lemma 2 constant", lemma2.rounds_are_constant()))

    section("Claim 10 — independent executions")
    claim10 = run_claim10(depth=8 if args.quick else 10, ts=(1, 2),
                          seed_radius=2, verify_pairwise=args.quick)
    for p in claim10.points:
        print(f"  t={p.t}: |S|={p.set_size} >= {p.closed_form_bound:.1f} "
              f"(regime={p.in_regime})")
    verdicts.append(("Claim 10 bounds", claim10.all_bounds_hold()))

    section("Claims 11-12 / Theorem 13 — the recurrence endgame")
    recurrence = run_recurrence_experiment(heights=(8, 10, 12, 14))
    print(recurrence.format_table())
    verdicts.append(("Theorem 13 crossover at 2^^10",
                     recurrence.crossover_height == 10))

    section("Cycle trichotomy (introduction)")
    trichotomy = run_cycle_trichotomy(sizes=(16, 64, 256) if args.quick
                                      else (16, 64, 256, 1024))
    print(trichotomy.format_table())
    verdicts.append(
        ("trichotomy verified", all(r.all_verified for r in trichotomy.rows))
    )

    section("Linial's neighborhood graphs (introduction's first flavor)")
    linial = run_linial_experiment(check_threshold=not args.quick)
    print(linial.format_table())
    verdicts.append(("Linial equivalence valid", linial.derived_algorithm_valid))
    if not args.quick:
        verdicts.append(("N_1(7) not 3-colorable", linial.threshold_m == 7))

    section("Global failure amplification (Claim 10 -> Lemma 9)")
    amplification = run_global_failure(sizes=(3, 6, 9) if args.quick
                                       else (3, 6, 9, 12), trials=120)
    print(amplification.format_table())
    verdicts.append(("global success decays", amplification.success_decays()))

    section(f"SUMMARY  ({time.time() - start:.1f}s)")
    failed = 0
    for label, ok in verdicts:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        failed += 0 if ok else 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
