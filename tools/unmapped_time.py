#!/usr/bin/env python
"""Time a workload's exhibits inside and outside the benchmark's layer map.

Usage::

    python tools/unmapped_time.py [--workload W] [--runs N]

Each run is a fresh interpreter that imports ``paperbench/layers.py``
and ``paperbench/child.py`` (and changes neither), wraps the layer entry
points with ``layers.install()``, and runs the workload's exhibits once
with the report's arguments and seed 0, as a traced ``paperbench`` child
does by default.  For each exhibit it prints the median milliseconds
spent inside a wrapped entry point (the layers' self time) and outside
every one, then the median, min and max of the in-process coverage:
mapped seconds over exhibit seconds, the ratio behind the benchmark's
``trace.coverage`` gate (0.95).  No machine-speed probe runs, so a
change's effect on that gate shows in seconds, without the probe's own
chunks in the unmapped time.  The runs go one after another; the exit
code is 0 unless a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "paperbench"))

from paper_bench import WORKLOADS  # paperbench/ is a directory of scripts, not a package


def run_workload(workload: str) -> dict:
    """Run the workload once here: each exhibit's seconds and mapped seconds."""
    import child  # puts src/ on sys.path
    import layers

    import repro.experiments
    from repro.core import ensure_builtins

    child.ex = repro.experiments
    ensure_builtins()
    trace = layers.install()
    quick, names = WORKLOADS[workload]
    exhibits = {}
    for name in names:
        mapped = sum(trace.self_s.values())
        result = child.run_exhibit(name, quick, seed=0)
        if result["error"] or not result["ok"]:
            raise SystemExit(f"{workload}/{name} failed: {result['error'] or 'a FAIL verdict'}")
        exhibits[name] = {
            "seconds": result["seconds"],
            "inside": sum(trace.self_s.values()) - mapped,
        }
    return exhibits


def fresh_run(workload: str) -> dict:
    """:func:`run_workload` in a new interpreter."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--here"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"a run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="tools/unmapped_time.py")
    parser.add_argument("--workload", default="paper-quick", choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters (default 5)")
    parser.add_argument("--here", action="store_true",
                        help="one run in this interpreter, printed as JSON")
    args = parser.parse_args(argv)
    if args.here:
        print(json.dumps(run_workload(args.workload)))
        return 0

    runs = [fresh_run(args.workload) for _ in range(max(args.runs, 1))]
    print(f"{args.workload}, {len(runs)} fresh run(s), no probe: "
          f"median ms inside and outside the mapped entry points")
    print(f"  {'exhibit':<16s} {'inside':>9s} {'outside':>9s}")
    totals = [
        {key: sum(e[key] for e in run.values()) for key in ("seconds", "inside")}
        for run in runs
    ]
    for name, rows in [(n, [run[n] for run in runs]) for n in runs[0]] + [("all", totals)]:
        inside = statistics.median(r["inside"] for r in rows)
        outside = statistics.median(r["seconds"] - r["inside"] for r in rows)
        print(f"  {name:<16s} {inside * 1e3:9.2f} {outside * 1e3:9.2f}")
    coverage = [t["inside"] / t["seconds"] for t in totals]
    print(f"coverage: median {statistics.median(coverage):.4f}, "
          f"min {min(coverage):.4f}, max {max(coverage):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
