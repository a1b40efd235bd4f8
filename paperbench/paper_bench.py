"""Benchmark of the paper reproduction, ``python -m repro.experiments``.

    python3 paperbench/paper_bench.py                  # every workload, untraced and traced
    python3 paperbench/paper_bench.py --workload paper-search --seed 0 --seconds 10 --trace 0
    python3 paperbench/paper_bench.py --runs 5 --out A.json
    python3 paperbench/paper_bench.py compare A.json B.json
    python3 paperbench/paper_bench.py record-digests   # rewrite paperbench/digests.json

Load model: a closed loop from this one parent process.  One child
interpreter (``child.py``) runs at a time, with ``OMP_NUM_THREADS=1``;
timing starts after ``import repro.experiments`` and ``ensure_builtins()``.

An untraced run (``--trace 0``) reports the end-to-end metrics of
``BENCHMARK.json``: ``wall_s`` (median seconds of one repeat of the
workload's exhibits), ``setup_s`` (median over fresh set-up-only
launches of ``import repro.experiments`` + ``ensure_builtins()``), both
scaled to a reference machine speed by ``probe.py``, and ``peak_rss_mb``
(largest child ``ru_maxrss``).  A traced run
(``--trace 1``) runs one untraced and one traced child, one repeat each,
and reports the per-layer metrics of ``layers.py``.

An operation is one exhibit execution.  It fails on an exception, a FAIL
verdict, or an output digest that differs from the committed one
(``digests.json``, seeds 0 and 1, and every seed for exhibits that take
none) or from the first repeat of the same run.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

#: workload -> (quick parameters?, exhibits in the serial report's order).
#: The first three together are exactly the full ``python -m repro.experiments``.
WORKLOADS = {
    "paper-search": (False, ("linial",)),
    "paper-landscape": (
        False,
        ("table1", "logstar_sweep", "theorem4", "classification", "lemma2", "trichotomy"),
    ),
    "paper-speedup": (False, ("figures", "claim10", "recurrence", "global_failure")),
    "paper-quick": (
        True,
        (
            "table1", "logstar_sweep", "figures", "theorem4", "classification", "lemma2",
            "claim10", "recurrence", "trichotomy", "linial", "global_failure",
        ),
    ),
}
EXHIBITS = WORKLOADS["paper-quick"][1]
#: Exhibits whose ``rng_seed`` is the benchmark's ``--seed``.
SEEDED = {"table1", "logstar_sweep", "lemma2", "linial", "global_failure"}

#: paper-quick measures fresh processes: each runs the report once.
FRESH_PER_REPEAT = {"paper-quick"}
SETUP_LAUNCHES = 7
MIN_COVERAGE = 0.95
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


def _child(*args):
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} ran past {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _setup_s():
    return statistics.median(_child("setup")["setup_s"] for _ in range(SETUP_LAUNCHES))


def _run_children(workload, seed, seconds):
    if workload not in FRESH_PER_REPEAT:
        return [_child("run", workload, seed, seconds, 0)]
    children, start = [], time.perf_counter()
    while not children or time.perf_counter() - start < seconds:
        children.append(_child("run", workload, seed, 0, 0))
    return children


def _count_failures(workload, seed, children):
    """Return (attempted, failed) over every exhibit execution of the run."""
    expected = json.loads(DIGESTS.read_text()).get(workload, {})
    first, attempted, failed = {}, 0, 0
    for child in children:
        for repeat in child["repeats"]:
            for name, result in repeat["exhibits"].items():
                attempted += 1
                digest = result["digest"]
                if result["error"]:
                    reason = result["error"]
                elif not result["ok"]:
                    reason = "FAIL verdict"
                else:
                    want = expected.get(name, {}).get(str(seed) if name in SEEDED else "*")
                    want = want or first.setdefault(name, digest)
                    reason = digest != want and f"output digest {digest[:12]} != {want[:12]}"
                if reason:
                    failed += 1
                    print(f"  FAILED {workload}/{name} seed={seed}: {reason}", flush=True)
    return attempted, failed


def run_untraced(workload, seed, seconds):
    setup_s = _setup_s()
    children = _run_children(workload, seed, seconds)
    repeats = [r for c in children for r in c["repeats"]]
    walls = [r["scaled_s"] for r in repeats]
    attempted, failed = _count_failures(workload, seed, children)
    print(
        f"  wall_s is the median of {len(walls)} repeats in {len(children)} process(es): "
        f"min {min(walls):.4f}, max {max(walls):.4f}, "
        f"unscaled median {statistics.median(r['seconds'] for r in repeats):.4f}",
        flush=True,
    )
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": max(c["rss_mb"] for c in children),
    }
    return attempted, failed, metrics


def run_traced(workload, seed):
    plain = _child("run", workload, seed, 0, 0)
    traced = _child("run", workload, seed, 0, 1)
    attempted, failed = _count_failures(workload, seed, [plain, traced])
    trace, wall = traced["trace"], traced["repeats"][0]["seconds"]
    exhibit_s = plain["repeats"][0]["exhibits"]
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = trace["self_s"].get(layer, 0.0)
        metrics[f"{layer}.busy_s"] = trace["busy_s"].get(layer, 0.0)
        metrics[f"{layer}.calls"] = trace["calls"].get(layer, 0)
    metrics.update(trace["counts"])
    for name in EXHIBITS:
        metrics[f"experiments.{name}_s"] = exhibit_s[name]["seconds"] if name in exhibit_s else 0.0
    metrics["trace.overhead_ratio"] = (
        traced["repeats"][0]["scaled_s"] / plain["repeats"][0]["scaled_s"]
    )
    metrics["trace.coverage"] = sum(trace["self_s"].values()) / wall
    uncalled = layers.check_calls(workload, trace["entry_calls"])
    if uncalled:
        raise layers.LayerMapError(f"entry points never called on {workload}: {uncalled}")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        raise layers.LayerMapError(
            f"layers cover {metrics['trace.coverage']:.3f} of {workload}'s traced wall time, "
            f"below {MIN_COVERAGE}: some work moved out of every mapped entry point"
        )
    return attempted, failed, metrics


def run_once(spec, workload, seed, seconds, trace):
    """One run: its metrics as declared in ``BENCHMARK.json``, and its failures."""
    print(f"{workload} seed={seed} trace={trace}", flush=True)
    if trace:
        attempted, failed, values = run_traced(workload, seed)
        declared = spec["per_layer"]
    else:
        attempted, failed, values = run_untraced(workload, seed, seconds)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"  fail_ratio {failed}/{attempted}")
    for name, metric in metrics.items():
        print(f"  {name:<34s} {metric['value']:>14.6g} {metric['unit']}", flush=True)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(spec, path_a, path_b):
    """Print each side's median and quartiles per workload and end-to-end metric."""
    sides = [json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b)]
    regressed = False
    print(f"{'workload':<16s} {'metric':<12s} {'A q1/median/q3':>28s} {'B q1/median/q3':>28s}"
          f" {'change':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [
                [r["metrics"][name]["value"] for r in runs
                 if r["workload"] == workload and r["trace"] == 0]
                for runs in sides
            ]
            if not all(values):
                continue
            (a1, am, a3), (b1, bm, b3) = (_quartiles(v) for v in values)
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (bm - am) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            b_all_better = all(sign * (b - a) < 0 for a in values[0] for b in values[1])
            if spread > bound and not b_all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict, regressed = "regressed", True
            else:
                verdict = "within-bound"
            print(
                f"{workload:<16s} {name:<12s} {a1:>9.4g}/{am:>8.4g}/{a3:>9.4g} "
                f"{b1:>9.4g}/{bm:>8.4g}/{b3:>9.4g} {change:>+8.1%} {bound:>6.0%}  {verdict}"
                f" (n={len(values[0])}/{len(values[1])})"
            )
    return 1 if regressed else 0


def record_digests():
    """Rewrite ``digests.json`` from seeds 0 and 1 (the outputs must already be right)."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in (0, 1):
            repeat = _child("run", workload, seed, 0, 0)["repeats"][0]
            for name, result in repeat["exhibits"].items():
                if result["error"] or not result["ok"]:
                    raise BenchError(f"{workload}/{name} seed={seed} did not pass")
                key = str(seed) if name in SEEDED else "*"
                known = table[workload].setdefault(name, {}).setdefault(key, result["digest"])
                if known != result["digest"]:
                    raise BenchError(f"{workload}/{name} output depends on the seed")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv):
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: paper_bench.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(spec, argv[1], argv[2])
    if argv[:1] == ["record-digests"]:
        return record_digests()

    parser = argparse.ArgumentParser(prog="paperbench/paper_bench.py")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0, help="rng_seed of the seeded exhibits")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure repeats for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..")
    parser.add_argument("--out", default=None, help="write every run to this JSON file")
    args = parser.parse_args(argv)

    modes = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    try:
        for workload in args.workload or WORKLOADS:
            for seed in range(args.seed, args.seed + args.runs):
                for trace in modes:
                    runs.append(run_once(spec, workload, seed, args.seconds, trace))
    except (BenchError, layers.LayerMapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or (None if len(runs) == 1 else "paperbench-result.json")
    if out:
        Path(out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
        print(f"wrote {out}")
    keys = ("correct", "attempted", "failed", "metrics")
    if len(runs) == 1:
        print(json.dumps({k: runs[0][k] for k in keys}))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
