"""One child interpreter of the paper benchmark.

    python3 paperbench/child.py setup
    python3 paperbench/child.py run WORKLOAD SEED SECONDS TRACE

Both import ``repro.experiments`` and register the built-ins, timing
that set-up.  ``setup`` then prints its seconds and exits.  ``run`` then
runs the workload's exhibits -- once with ``TRACE`` 1 (under the layer
trace), else repeatedly until ``SECONDS`` have passed (at least once) --
and prints one JSON line with each repeat's per-exhibit seconds, verdict
and output digest.  Set-up and repeats are scaled to the reference
machine speed by ``probe.py``.

Each exhibit is called with the exact arguments of the serial report in
``src/repro/experiments/__main__.py`` and prints (into its digest) the
same table and verdict lines; ``SEED`` is the ``rng_seed`` of the
exhibits that take one.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from probe import Sampler

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: ``repro.experiments``, imported by :func:`main` under the set-up timer.
ex = None


def _table1(quick, seed):
    result = ex.run_table1(sizes=_sizes(quick), rng_seed=seed)
    return [result.format_table()], [("Table 1 verified", all(r.all_verified for r in result.rows))]


def _logstar_sweep(quick, seed):
    sweep = ex.run_logstar_sweep(id_bits=(8, 64, 1024, 16384), tree_depth=3, rng_seed=seed)
    lines = [
        f"  id space 2^{p.id_bits:<6d}: {p.measured_rounds} rounds "
        f"(CV prediction {p.predicted_cv_rounds})"
        for p in sweep.points
    ]
    return lines, [("log* sweep monotone", sweep.monotone_in_log_star())]


def _figures(quick, seed):
    figures = ex.run_speedup_figures(method="exact")
    return [figures.format_table()], [("speedup lemma bounds hold", figures.all_bounds_hold())]


def _theorem4(quick, seed):
    theorem4 = ex.run_theorem4(sizes=_sizes(quick))
    lines = [
        "  upper: " + ", ".join(f"{p.n}:{p.rounds}" for p in theorem4.upper)
        + f" (fit: {theorem4.fit.best if theorem4.fit else '-'})"
    ]
    lines += [
        f"  Lemma 18 depth {w.depth}: views equal to radius "
        f"{w.views_equal_radius}, outputs forced {w.center_d_on_t} vs "
        f"{w.center_d_on_t_prime}"
        for w in theorem4.witnesses
    ]
    return lines, [("Theorem 4 verified", theorem4.all_verified())]


def _classification(quick, seed):
    result = ex.run_classification(sizes=_sizes(quick))
    return [result.format_table()], [
        ("classification verified", all(r.all_verified for r in result.rows))
    ]


def _lemma2(quick, seed):
    lemma2 = ex.run_lemma2(sizes=_sizes(quick), rng_seed=seed)
    lines = ["  rounds: " + ", ".join(f"{p.n}:{p.rounds}" for p in lemma2.points)]
    return lines, [("Lemma 2 constant", lemma2.rounds_are_constant())]


def _claim10(quick, seed):
    claim10 = ex.run_claim10(
        depth=8 if quick else 10, ts=(1, 2), seed_radius=2, verify_pairwise=quick
    )
    lines = [
        f"  t={p.t}: |S|={p.set_size} >= {p.closed_form_bound:.1f} (regime={p.in_regime})"
        for p in claim10.points
    ]
    return lines, [("Claim 10 bounds", claim10.all_bounds_hold())]


def _recurrence(quick, seed):
    recurrence = ex.run_recurrence_experiment(heights=(8, 10, 12, 14))
    return [recurrence.format_table()], [
        ("Theorem 13 crossover at 2^^10", recurrence.crossover_height == 10)
    ]


def _trichotomy(quick, seed):
    result = ex.run_cycle_trichotomy(sizes=(16, 64, 256) if quick else (16, 64, 256, 1024))
    return [result.format_table()], [
        ("trichotomy verified", all(r.all_verified for r in result.rows))
    ]


def _linial(quick, seed):
    linial = ex.run_linial_experiment(check_threshold=not quick, rng_seed=seed)
    verdicts = [("Linial equivalence valid", linial.derived_algorithm_valid)]
    if not quick:
        verdicts.append(("N_1(7) not 3-colorable", linial.threshold_m == 7))
    return [linial.format_table()], verdicts


def _global_failure(quick, seed):
    result = ex.run_global_failure(
        sizes=(3, 6, 9) if quick else (3, 6, 9, 12), trials=120, rng_seed=seed
    )
    return [result.format_table()], [("global success decays", result.success_decays())]


def _sizes(quick):
    return (50, 200, 800) if quick else (50, 200, 800, 3200)


RUNNERS = {
    "table1": _table1,
    "logstar_sweep": _logstar_sweep,
    "figures": _figures,
    "theorem4": _theorem4,
    "classification": _classification,
    "lemma2": _lemma2,
    "claim10": _claim10,
    "recurrence": _recurrence,
    "trichotomy": _trichotomy,
    "linial": _linial,
    "global_failure": _global_failure,
}


def run_exhibit(name, quick, seed):
    """Run one exhibit; return its seconds, verdict, digest and error."""
    start = time.perf_counter()
    try:
        lines, verdicts = RUNNERS[name](quick, seed)
    except Exception as exc:  # a crashing exhibit is a failed operation, not a crash
        return {
            "seconds": time.perf_counter() - start,
            "ok": False,
            "digest": None,
            "error": f"{type(exc).__name__}: {exc}",
        }
    seconds = time.perf_counter() - start
    text = "\n".join(lines + [f"  [{'PASS' if ok else 'FAIL'}] {label}" for label, ok in verdicts])
    return {
        "seconds": seconds,
        "ok": all(ok for _, ok in verdicts),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "error": None,
    }


def run_repeat(quick, names, seed):
    exhibits = {name: run_exhibit(name, quick, seed) for name in names}
    return {"seconds": sum(e["seconds"] for e in exhibits.values()), "exhibits": exhibits}


def main(argv):
    global ex
    # Set-up lasts ~0.1 s, so it is sampled every 5 ms with a short chunk.
    with Sampler(period_s=0.005, iterations=1000, sensitivity=1.0) as sampler:
        start = time.perf_counter()
        import repro.experiments as ex
        from repro.core import ensure_builtins

        ensure_builtins()
        setup_s = sampler.scale(time.perf_counter() - start)
    src = (ROOT / "src").resolve()
    if src not in Path(ex.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {ex.__file__}, not from {src}")
    if argv[0] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import layers
    from paper_bench import WORKLOADS

    _, workload, seed, seconds, trace = argv
    quick, names = WORKLOADS[workload]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    out = {"repeats": []}
    tracer = layers.install() if trace else None
    started = time.perf_counter()
    while not out["repeats"] or (not trace and time.perf_counter() - started < seconds):
        with Sampler(period_s=0.1, iterations=10000, sensitivity=0.85) as sampler:
            repeat = run_repeat(quick, names, seed)
        repeat["scaled_s"] = sampler.scale(repeat["seconds"])
        out["repeats"].append(repeat)
    if tracer is not None:
        out["trace"] = tracer.summary()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
