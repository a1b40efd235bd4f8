"""Run every experiment and print a consolidated report.

Usage::

    python -m repro.experiments                     # the full report
    python -m repro.experiments --quick             # smaller sweeps
    python -m repro.experiments --artifacts out/    # + one JSON per exhibit
    python -m repro.experiments --list              # registered components

Regenerates Table 1, the log* sweep, Figures 1-2 (speedup lemmas), the
Theorem 4 ladder, the Theorem 5 classification, Lemma 2, Claim 10,
Claims 11-12 / Theorem 13, the cycle trichotomy, Linial's neighborhood
graphs, and the global-failure amplification — one loop over the rows
of :data:`~repro.experiments.exhibits.EXHIBITS`, each section followed
by a SUMMARY of its verdicts.

``--artifacts DIR`` writes ``DIR/<exhibit>.json`` for each exhibit and
``DIR/summary.json`` from the same loop (schema: ``docs/OBSERVABILITY.md``).

Exit code: **0** iff every verdict passed, **1** if any failed, **2**
on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .exhibits import EXHIBITS

#: Version tags embedded in the ``--artifacts`` files.
EXHIBIT_SCHEMA = "repro.exhibit/1"
SUMMARY_SCHEMA = "repro.exhibit-summary/1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every table, figure, and headline claim. "
        "Exit code: 0 iff every verdict passes, 1 otherwise, 2 on usage errors.",
    )
    parser.add_argument("--quick", action="store_true", help="smaller sweeps")
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="also write one JSON file per exhibit plus summary.json into DIR",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_components",
        help="list every registered algorithm, graph family, LCL problem, "
        "and exhibit, then exit",
    )
    args = parser.parse_args(argv)

    if args.list_components:
        return _list_components()
    return _run_report(args.quick, args.artifacts)


def _list_components() -> int:
    """Print the registries and the exhibits — what this can run."""
    from ..core import ALGORITHMS, GRAPH_FAMILIES, PROBLEMS, ensure_builtins

    ensure_builtins()

    def section(title: str, rows) -> None:
        print(f"{title}:")
        for name, annotation in rows:
            print(f"  {name:<28s} {annotation}")
        print()

    section("algorithms", ((e.name, f"[{e.metadata.get('kind', '?')}] {e.description}")
                           for e in ALGORITHMS.entries()))
    section("graph families", ((e.name, f"params: {', '.join(e.metadata.get('params', ())) or '-'}")
                               for e in GRAPH_FAMILIES.entries()))
    section("LCL problems", ((e.name, f"[{e.metadata.get('model', '?')}] {e.description}")
                             for e in PROBLEMS.entries()))
    section("exhibits", ((e.name, e.title) for e in EXHIBITS))
    return 0


def _section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def _write_json(directory: str, name: str, document) -> None:
    with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_report(quick: bool, artifacts) -> int:
    if artifacts is not None:
        os.makedirs(artifacts, exist_ok=True)
    verdicts = []  # (exhibit name, label, passed), in report order
    start = time.time()
    for exhibit in EXHIBITS:
        _section(exhibit.title)
        began = time.perf_counter()
        lines, checks = exhibit.execute(quick)
        seconds = time.perf_counter() - began
        for line in lines:
            print(line)
        verdicts += [(exhibit.name, label, ok) for label, ok in checks]
        if artifacts is not None:
            _write_json(artifacts, exhibit.name, {
                "schema": EXHIBIT_SCHEMA,
                "name": exhibit.name,
                "title": exhibit.title,
                "quick": quick,
                "arguments": dict(exhibit.arguments(quick)),
                "lines": "\n".join(lines).splitlines(),
                "verdicts": [{"label": label, "passed": ok} for label, ok in checks],
                "passed": all(ok for _, ok in checks),
                "wall_seconds": seconds,
            })
    wall_seconds = time.time() - start

    _section(f"SUMMARY  ({wall_seconds:.1f}s)")
    for _, label, ok in verdicts:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    failed = [label for _, label, ok in verdicts if not ok]
    if artifacts is not None:
        _write_json(artifacts, "summary", {
            "schema": SUMMARY_SCHEMA,
            "quick": quick,
            "wall_seconds": wall_seconds,
            "exhibits": [exhibit.name for exhibit in EXHIBITS],
            "verdicts": [{"exhibit": name, "label": label, "passed": ok}
                         for name, label, ok in verdicts],
            "passed": len(verdicts) - len(failed),
            "failed": failed,
        })
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
