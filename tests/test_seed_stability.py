"""Golden pins for the one seed-derivation scheme.

Every recorded benchmark baseline and experiment artifact encodes
seeds produced by :func:`repro.core.engine.derive_seed`
(``sha256(f"{base}:{label}")``, first 8 bytes, big-endian).  A
refactor that changes the scheme — different hash, different slice,
different formatting — would silently invalidate all of them while
every behavioral test still passes.  This
table is the tripwire: if it fails, either revert the scheme or
consciously version every artifact format that embeds seeds.
"""

from repro.core.engine import derive_seed

# (base_seed, label) -> expected 64-bit seed.  Computed once from the
# original sha256 scheme; NEVER regenerate without bumping artifact
# schemas (see module docstring).
GOLDEN = {
    (0, ""): 13436079590000323820,
    (0, "a"): 11381658363930578919,
    (0, "case-0"): 1145236966165020301,
    (0, "case-1"): 5959083417789655697,
    (1, "case-0"): 13334860160997366561,
    (0, "cell:table1:row0"): 8038215571587219451,
    (42, "shard-3"): 552323588476383325,
    (123456789, "conformance:luby-mis"): 13010097619980731149,
    (-7, "negative-base"): 11198832648702197070,
    (2**63, "big-base"): 15165842683223383362,
    # Multi-part labels (f"{label}:{kind}:shard-{i}"): colons and
    # embedded indices must hash exactly like any other label.
    (0, "csr-parity:view:shard-0"): 8877914581975635878,
    (0, "csr-parity:view:shard-1"): 18312293899060393529,
    (0, "csr-parity:edge:shard-0"): 6504253960809091843,
    (7, "bench-csr:view:shard-2"): 5431547783688781935,
}


def test_derive_seed_matches_golden_table():
    for (base, label), expected in GOLDEN.items():
        assert derive_seed(base, label) == expected, (base, label)


def test_derive_seed_is_64_bit():
    for (base, label) in GOLDEN:
        assert 0 <= derive_seed(base, label) < 2**64


def test_distinct_labels_distinct_seeds():
    seeds = {derive_seed(0, f"case-{i}") for i in range(256)}
    assert len(seeds) == 256


# Trial pins: estimate_global_success draws each trial's values with
# rng.randrange, one per node, trial after trial, so the Monte Carlo
# outcomes are a function of the Mersenne-Twister stream.  Each entry
# pins, for (algorithm, seed) on the oriented 3x4 torus with 8 trials:
# the first six drawn values, the sum of the whole 96-value block, and
# the per-trial failing-node counts.  Computed once from the scalar
# trial loop; NEVER regenerate without bumping artifact schemas (see
# module docstring).
GOLDEN_TRIALS = {
    ("local-maximum", 0): ((1, 1, 0, 1, 1, 1), 49, (12, 12, 12, 7, 12, 7, 12, 7)),
    ("local-maximum", 1): ((0, 0, 1, 0, 1, 1), 52, (12, 12, 12, 7, 12, 12, 12, 12)),
    ("local-maximum", 2): ((0, 0, 0, 1, 0, 1), 49, (12, 12, 12, 12, 12, 7, 12, 12)),
    ("local-maximum", 3): ((0, 0, 1, 1, 0, 0), 52, (12, 4, 12, 12, 7, 12, 12, 12)),
    ("local-maximum", 4): ((0, 1, 0, 1, 1, 0), 51, (4, 12, 12, 12, 12, 12, 7, 12)),
    ("smaller-count", 0): ((1, 1, 0, 1, 1, 1), 49, (0, 0, 0, 0, 0, 1, 0, 1)),
    ("smaller-count", 1): ((0, 0, 1, 0, 1, 1), 52, (0, 1, 0, 0, 0, 0, 0, 0)),
    ("smaller-count", 2): ((0, 0, 0, 1, 0, 1), 49, (0, 0, 0, 0, 0, 0, 2, 4)),
    ("smaller-count", 3): ((0, 0, 1, 1, 0, 0), 52, (0, 2, 0, 0, 0, 0, 1, 0)),
    ("smaller-count", 4): ((0, 1, 0, 1, 1, 0), 51, (0, 1, 0, 0, 0, 0, 0, 0)),
}


def test_trial_draws_and_outcomes_match_golden_table():
    import random

    from repro.graphs.generators import toroidal_grid
    from repro.graphs.orientation import orient_torus
    from repro.instrumentation.tracer import Tracer
    from repro.speedup.algorithms import (
        local_maximum_coloring,
        smaller_count_coloring,
    )
    from repro.speedup.finite_runner import estimate_global_success

    class _Rec(Tracer):
        def __init__(self):
            self.failing = []

        def on_event(self, kind, **info):
            if kind == "trial":
                self.failing.append(info["failing_nodes"])

    factories = {
        "local-maximum": local_maximum_coloring,
        "smaller-count": smaller_count_coloring,
    }
    graph = toroidal_grid(3, 4)
    orientation = orient_torus(graph, 3, 4)
    trials = 8
    for (name, seed), (head, total, failing) in GOLDEN_TRIALS.items():
        alg = factories[name](2, 1)
        draw = random.Random(seed)
        block = [draw.randrange(alg.values) for _ in range(trials * graph.n)]
        assert tuple(block[:6]) == head, (name, seed)
        assert sum(block) == total, (name, seed)
        rec = _Rec()
        estimate_global_success(
            alg, graph, orientation, trials, rng=random.Random(seed),
            tracer=rec,
        )
        assert tuple(rec.failing) == failing, (name, seed)
