"""The speedup exhibits' counting paths against the loops they replaced.

Each oracle below is the earlier implementation's arithmetic (the exact
failures without their memo and early exit):

* the finite runner keyed every node with ``ball_assignment_key``, looked
  each key up on its own and found failing nodes through
  ``graph.neighbors`` copies;
* global failure drew each node's value with ``rng.randrange`` and ran
  one finite request per trial, scanning every node;
* the exact failures multiplied one ``Fraction`` distribution per
  neighbor (resp. incident edge), step by step;
* frequent color sets scattered each completion into a scratch list and
  compared ``Fraction(n, total) >= threshold``.

The code under test must give the same outputs, failing nodes, exact
``Fraction`` values and color sets.
"""

import itertools
import random
from fractions import Fraction

import pytest

from repro.core.direct import DirectEngine
from repro.core.engine import SimRequest, simulate
from repro.experiments.speedup_figures import default_seeds
from repro.graphs import Graph, orient_torus, toroidal_grid
from repro.instrumentation import Tracer
from repro.speedup import (
    EdgeAlgorithm,
    NodeAlgorithm,
    OrientedBall,
    ball_assignment_key,
    first_speedup,
    local_maximum_coloring,
    parity_coloring,
    run_speedup_pipeline,
    second_speedup,
    smaller_count_coloring,
    zero_round_uniform,
)
from repro.speedup.failure import edge_local_failure, node_local_failure
from repro.speedup.finite_runner import estimate_global_success, resolve_ball_tables
from repro.speedup.transform import _frequent_colors


# ----------------------------------------------------------------------
# The finite runner
# ----------------------------------------------------------------------
def old_finite_run(alg, graph, tables, values):
    """Per-node keys and per-node neighbor tuples."""
    if any(not 0 <= x < alg.values for x in values):
        raise ValueError(f"values must lie in [0, {alg.values})")
    outputs = [alg.evaluate(ball_assignment_key(values, tables[v])) for v in graph.nodes()]
    failing = [
        v
        for v in graph.nodes()
        if graph.degree(v) > 0
        and all(outputs[u] == outputs[v] for u in graph.neighbors(v))
    ]
    return outputs, failing


def finite_run(alg, graph, values, tables):
    """One trial as a ``finite`` request: its outputs and failing nodes."""
    return simulate(SimRequest(
        kind="finite", graph=graph, algorithm=alg, values=values, tables=tables
    ))


FINITE_ALGORITHMS = {
    "uniform-4": lambda: zero_round_uniform(2, 4),
    "uniform-2": lambda: zero_round_uniform(2, 2),
    "local-maximum-1": lambda: local_maximum_coloring(2, bits=1),
    "local-maximum-2": lambda: local_maximum_coloring(2, bits=2),
    "smaller-count-2": lambda: smaller_count_coloring(2, bits=2),
    "parity": lambda: parity_coloring(2, bits=1),
}


@pytest.mark.parametrize("side", range(3, 13))
@pytest.mark.parametrize("name", sorted(FINITE_ALGORITHMS))
def test_finite_run_matches_the_per_node_loop(name, side):
    graph = toroidal_grid(side, side)
    orientation = orient_torus(graph, side, side)
    make = FINITE_ALGORITHMS[name]
    alg, oracle = make(), make()
    tables = resolve_ball_tables(alg, graph, orientation)
    rng = random.Random(side)
    for _ in range(4):
        values = [rng.randrange(alg.values) for _ in graph.nodes()]
        run = finite_run(alg, graph, values, tables)
        assert (run.outputs, run.failing_nodes) == old_finite_run(
            oracle, graph, tables, values
        )
    # A constant assignment makes every node fail.
    values = [0] * graph.n
    run = finite_run(alg, graph, values, tables)
    assert (run.outputs, run.failing_nodes) == old_finite_run(oracle, graph, tables, values)
    # Out-of-range values raise the same error wherever they sit.
    for bad in (-1, alg.values):
        for position in (0, graph.n // 2, graph.n - 1):
            values = [0] * graph.n
            values[position] = bad
            with pytest.raises(ValueError) as new:
                finite_run(alg, graph, values, tables)
            with pytest.raises(ValueError) as old:
                old_finite_run(oracle, graph, tables, values)
            assert str(new.value) == str(old.value)


def test_isolated_nodes_never_fail():
    # Node 2 has no neighbors: it cannot fail even though its output
    # equals everyone's.
    graph = Graph.from_adjacency([[1], [0], []])
    alg = zero_round_uniform(2, 2)
    tables = [[0], [1], [2]]
    values = [1, 1, 1]
    run = finite_run(alg, graph, values, tables)
    assert (run.outputs, run.failing_nodes) == old_finite_run(alg, graph, tables, values)
    assert run.failing_nodes == [0, 1]


def test_malformed_tables_are_refused():
    # The keys zip the table rows, so a missing, extra or longer row must
    # raise instead of being cut; rows of one wrong length still reach
    # the ball-size check.
    graph = toroidal_grid(3, 3)
    alg = local_maximum_coloring(2)
    tables = resolve_ball_tables(alg, graph, orient_torus(graph, 3, 3))
    values = [0] * graph.n
    for bad in (tables[:-1], tables + [tables[0]], [tables[0] + [0]] + tables[1:]):
        with pytest.raises(
            ValueError, match="^tables must hold one row per node, all of one length$"
        ):
            finite_run(alg, graph, values, bad)
    with pytest.raises(ValueError, match="^assignment has 4 values, ball has 5$"):
        finite_run(alg, graph, values, [row[:4] for row in tables])


@pytest.mark.parametrize("graph", ["torus", "edgeless"])
def test_empty_table_rows_are_refused(graph):
    # Rows of length 0 zip to no keys: the torus would raise IndexError
    # in the failure scan, and an edgeless graph would report no outputs
    # for its nodes and a cache event of lookups that never happened.
    graph = (toroidal_grid(3, 3) if graph == "torus"
             else Graph.from_adjacency([[], []]).freeze())
    with pytest.raises(
        ValueError, match="^tables: the rows are empty, but every ball holds its centre$"
    ):
        finite_run(local_maximum_coloring(2), graph, [0] * graph.n, [[]] * graph.n)


@pytest.mark.parametrize("entry", ["-1", "n"])
def test_tables_that_name_no_node_are_refused(entry):
    # A negative entry would read a value from the end of the list and
    # an entry of n or more would raise IndexError mid-run: both are
    # refused up front, naming the node and the entry.
    graph = toroidal_grid(3, 3)
    alg = local_maximum_coloring(2)
    tables = resolve_ball_tables(alg, graph, orient_torus(graph, 3, 3))
    tables[0][1] = -1 if entry == "-1" else graph.n
    with pytest.raises(
        ValueError, match=f"^tables: node 0's entry {tables[0][1]} is not a node in 0..8$"
    ):
        finite_run(alg, graph, [0] * graph.n, tables)


class _DrawsBelow(NodeAlgorithm):
    """A radius-0 algorithm whose nodes draw from ``range(choices)``."""

    def __init__(self, choices):
        super().__init__(2, 0, 1, 2, lambda a: a[0] % 2, name=f"below-{choices}")
        self.choices = choices

    @property
    def values(self):
        return self.choices


def _record_batches(monkeypatch):
    """Every trial's values that ``DirectEngine.run`` is handed, in order."""
    drawn = []
    run = DirectEngine.run

    def recording(self, request, tracer=None):
        drawn.extend(list(values) for values in request.batch)
        return run(self, request, tracer=tracer)

    monkeypatch.setattr(DirectEngine, "run", recording)
    return drawn


@pytest.mark.parametrize("choices", [*range(1, 18), 31, 32, 33, 1000, 2**20, 2**31 + 5])
def test_global_success_draws_what_randrange_draws(choices, monkeypatch):
    # Every trial's values are the rng.randrange(choices) calls of the old
    # loop, in node order, and each generator ends in the same state.
    graph = toroidal_grid(3, 4)
    orientation = orient_torus(graph, 3, 4)
    drawn = _record_batches(monkeypatch)
    for seed in range(4):
        rng, oracle = random.Random(seed), random.Random(seed)
        drawn.clear()
        estimate_global_success(_DrawsBelow(choices), graph, orientation, trials=3, rng=rng)
        assert drawn == [[oracle.randrange(choices) for _ in graph.nodes()] for _ in range(3)]
        assert rng.getstate() == oracle.getstate()


class _RandomOnly(random.Random):
    """Overrides ``random()`` only, so ``randrange`` draws through it."""

    def random(self):
        return super().random()


@pytest.mark.parametrize("choices", [2, 3, 5, 1000])
def test_global_success_draws_randrange_of_a_subclass(choices, monkeypatch):
    # Such a subclass gets _randbelow_without_getrandbits, which the
    # inline getrandbits loop would not reproduce.
    graph = toroidal_grid(3, 4)
    orientation = orient_torus(graph, 3, 4)
    drawn = _record_batches(monkeypatch)
    rng, oracle = _RandomOnly(5), _RandomOnly(5)
    estimate_global_success(_DrawsBelow(choices), graph, orientation, trials=3, rng=rng)
    assert drawn == [[oracle.randrange(choices) for _ in graph.nodes()] for _ in range(3)]
    assert rng.getstate() == oracle.getstate()


# ----------------------------------------------------------------------
# Global success: one batch against one run per trial
# ----------------------------------------------------------------------
def old_global_success(alg, graph, tables, trials, rng):
    """Per-trial randrange draws, each trial run by the per-node loop.

    Returns the estimate and every trial's (succeeded, failing count).
    """
    outcomes = []
    for _ in range(trials):
        values = [rng.randrange(alg.values) for _ in graph.nodes()]
        _, failing = old_finite_run(alg, graph, tables, values)
        outcomes.append((not failing, len(failing)))
    return sum(ok for ok, _ in outcomes) / trials, outcomes


class _Trials(Tracer):
    """Keeps each ``trial`` event's success and failing count."""

    def __init__(self):
        self.outcomes = []

    def on_event(self, kind, **info):
        if kind == "trial":
            assert info["index"] == len(self.outcomes)
            self.outcomes.append((info["succeeded"], info["failing_nodes"]))


@pytest.mark.parametrize("side", range(3, 7))
@pytest.mark.parametrize("name", sorted(FINITE_ALGORITHMS))
def test_global_success_matches_one_run_per_trial(name, side):
    graph = toroidal_grid(side, side)
    orientation = orient_torus(graph, side, side)
    make = FINITE_ALGORITHMS[name]
    tables = resolve_ball_tables(make(), graph, orientation)
    for seed, trials in ((0, 1), (1, 7), (2, 40), (side, 120)):
        alg, oracle = make(), make()
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        expected, outcomes = old_global_success(oracle, graph, tables, trials, oracle_rng)
        assert estimate_global_success(alg, graph, orientation, trials, rng) == expected
        assert rng.getstate() == oracle_rng.getstate()
        # Traced, a trial counts every failing node, not just the first.
        tracer = _Trials()
        rng = random.Random(seed)
        assert estimate_global_success(
            make(), graph, orientation, trials, rng, tracer=tracer
        ) == expected
        assert tracer.outcomes == outcomes


def test_global_success_counts_the_trials_that_succeed():
    # The report's 3 x 3 torus at seed 0: 3 of its 120 trials succeed.
    graph = toroidal_grid(3, 3)
    orientation = orient_torus(graph, 3, 3)
    seed = random.Random(0).getrandbits(64)  # run_global_failure's first draw
    alg, oracle = local_maximum_coloring(2, bits=2), local_maximum_coloring(2, bits=2)
    expected, outcomes = old_global_success(
        oracle, graph, resolve_ball_tables(oracle, graph, orientation), 120, random.Random(seed)
    )
    assert sum(ok for ok, _ in outcomes) == 3
    assert estimate_global_success(alg, graph, orientation, 120, random.Random(seed)) == expected
    assert expected == 3 / 120


def test_global_success_is_one_engine_call(monkeypatch):
    calls = []
    run = DirectEngine.run

    def counting(self, request, tracer=None):
        calls.append(len(request.batch))
        return run(self, request, tracer=tracer)

    monkeypatch.setattr(DirectEngine, "run", counting)
    graph = toroidal_grid(4, 5)
    orientation = orient_torus(graph, 4, 5)
    for trials in (1, 2, 120):
        calls.clear()
        estimate_global_success(local_maximum_coloring(2), graph, orientation, trials)
        assert calls == [trials]
        calls.clear()
        estimate_global_success(
            local_maximum_coloring(2), graph, orientation, trials, tracer=_Trials()
        )
        assert calls == [trials]


def _batch_request(alg, graph, batch, **kwargs):
    return SimRequest(kind="finite", graph=graph, algorithm=alg, batch=batch, **kwargs)


@pytest.mark.parametrize("first_failure_only", [False, True])
def test_a_batch_reports_each_trial_as_its_own_run(first_failure_only):
    # Trial by trial, a batch reports what one run with those values
    # reports; stopping at the first failure keeps only that node.
    graph = toroidal_grid(5, 4)
    orientation = orient_torus(graph, 5, 4)
    alg = smaller_count_coloring(2, bits=2)
    rng = random.Random(3)
    batch = [[rng.randrange(alg.values) for _ in graph.nodes()] for _ in range(30)]
    batch.append([0] * graph.n)  # every node fails
    tables = resolve_ball_tables(alg, graph, orientation)
    report = simulate(
        _batch_request(alg, graph, batch, tables=tables, first_failure_only=first_failure_only)
    )
    runs = [finite_run(alg, graph, values, tables) for values in batch]
    assert report.outputs == [run.outputs for run in runs]
    if first_failure_only:
        assert report.failing_nodes == [run.failing_nodes[:1] for run in runs]
    else:
        assert report.failing_nodes == [run.failing_nodes for run in runs]
    assert any(report.failing_nodes) and not all(report.failing_nodes)
    assert report.failing_nodes[-1] == ([0] if first_failure_only else list(graph.nodes()))


def test_a_batch_refuses_what_one_run_refuses():
    # Any trial out of range, of the wrong length, or malformed tables
    # raise the one-trial errors; values and a batch together are refused.
    graph = toroidal_grid(3, 3)
    alg = local_maximum_coloring(2, bits=2)
    tables = resolve_ball_tables(alg, graph, orient_torus(graph, 3, 3))
    good = [[0] * graph.n for _ in range(3)]
    for trial in range(3):
        for bad in (-1, alg.values):
            for position in (0, graph.n // 2, graph.n - 1):
                batch = [list(values) for values in good]
                batch[trial][position] = bad
                with pytest.raises(ValueError, match=r"^values must lie in \[0, 4\)$"):
                    simulate(_batch_request(alg, graph, batch, tables=tables))
        batch = [list(values) for values in good]
        batch[trial] = batch[trial][:-1]
        with pytest.raises(ValueError, match="^need one random value per node$"):
            simulate(_batch_request(alg, graph, batch, tables=tables))
    for bad in (tables[:-1], tables + [tables[0]], [tables[0] + [0]] + tables[1:]):
        with pytest.raises(
            ValueError, match="^tables must hold one row per node, all of one length$"
        ):
            simulate(_batch_request(alg, graph, good, tables=bad))
    with pytest.raises(ValueError, match="^finite requests take values or a batch, not both$"):
        simulate(_batch_request(alg, graph, good, tables=tables, values=good[0]))


# ----------------------------------------------------------------------
# Exact failures: one Fraction against the step-by-step product
# ----------------------------------------------------------------------
def fraction_distribution(evaluate, base, unknown, total_size, values):
    """The scatter loop: each color's conditional probability."""
    counts = {}
    scratch = [0] * total_size
    for pos, val in base.items():
        scratch[pos] = val
    for completion in itertools.product(range(values), repeat=len(unknown)):
        for pos, val in zip(unknown, completion):
            scratch[pos] = val
        color = evaluate(tuple(scratch))
        counts[color] = counts.get(color, 0) + 1
    total = values ** len(unknown)
    return {color: Fraction(n, total) for color, n in counts.items()}


def split_positions(maps, known_size):
    """Split each direction's outer-ball map at the conditioning region.

    ``maps[d][pos]`` is the outer-ball index of position ``pos``.  Returns
    the ``(pos, outer index)`` pairs inside the first ``known_size`` outer
    positions, and the positions beyond them.
    """
    shared = {d: [(p, o) for p, o in enumerate(m) if o < known_size] for d, m in maps.items()}
    beyond = {d: [p for p, o in enumerate(m) if o >= known_size] for d, m in maps.items()}
    return shared, beyond


def old_node_failure(alg):
    inner, outer, values = alg.ball, OrientedBall(alg.k, alg.t + 1), alg.values
    maps = {d: outer.shift_map((d,), inner) for d in outer.directions}
    shared, beyond = split_positions(maps, inner.size)
    fail = Fraction(0)
    for sigma in itertools.product(range(values), repeat=inner.size):
        center_color = alg.evaluate(sigma)
        prob_all_agree = Fraction(1)
        for d in outer.directions:
            base = {pos: sigma[o] for pos, o in shared[d]}
            dist = fraction_distribution(alg.evaluate, base, beyond[d], inner.size, values)
            prob_all_agree *= dist.get(center_color, Fraction(0))
        fail += prob_all_agree
    return fail / values**inner.size


def old_edge_failure(alg):
    known, outer, values = OrientedBall(alg.k, alg.r), OrientedBall(alg.k, alg.r + 1), alg.values
    # Each incident edge's ball, read from its low endpoint: the center
    # for the edge leaving it, the neighbor for the edge entering it.
    maps = {
        (dim, sign): outer.shift_map(() if sign == 1 else ((dim, sign),), alg.balls[dim])
        for dim in range(alg.k)
        for sign in (1, -1)
    }
    shared, beyond = split_positions(maps, known.size)
    fail = Fraction(0)
    for sigma in itertools.product(range(values), repeat=known.size):
        prob_fail = Fraction(1)
        for dim in range(alg.k):
            plus, minus = (
                fraction_distribution(
                    lambda a, _dim=dim: alg.evaluate(_dim, a),
                    {pos: sigma[o] for pos, o in shared[dim, sign]},
                    beyond[dim, sign],
                    alg.balls[dim].size,
                    values,
                )
                for sign in (1, -1)
            )
            prob_fail *= sum(
                (p * minus.get(color, Fraction(0)) for color, p in plus.items()),
                Fraction(0),
            )
        fail += prob_fail
    return fail / values**known.size


@pytest.mark.parametrize("index", range(len(default_seeds(2))))
def test_figures_ladder_matches_the_fraction_product(index):
    # Every stage of the report's ladder (default seeds, exact), rebuilt
    # from its recorded thresholds and measured again the old way.
    ladder = run_speedup_pipeline(default_seeds(2)[index], method="exact").stages
    node = default_seeds(2)[index]  # a fresh copy: no shared memo
    assert ladder[0].measured_failure.probability == old_node_failure(node)
    for edge_stage, node_stage in zip(ladder[1::2], ladder[2::2]):
        edge = first_speedup(node, edge_stage.threshold)
        assert edge_stage.measured_failure.probability == old_edge_failure(edge)
        node = second_speedup(edge, node_stage.threshold)
        assert node_stage.measured_failure.probability == old_node_failure(node)


def test_global_failure_seed_matches_the_fraction_product():
    # run_global_failure's default algorithm, one fresh copy per side.
    exact = node_local_failure(local_maximum_coloring(2, bits=2), method="exact")
    assert exact.probability == old_node_failure(local_maximum_coloring(2, bits=2))


def test_edge_failure_with_zero_products_matches():
    # An edge colored by its two endpoints' values is fixed by B_1(v) at
    # both incident edges, so most products are zero (the loop breaks
    # early).  A node fails iff its whole radius-1 ball agrees: 2/32.
    def make():
        return EdgeAlgorithm(2, 1, 1, 4, lambda dim, a: (a[0], a[1]), name="endpoints")

    exact = edge_local_failure(make(), method="exact").probability
    assert exact == old_edge_failure(make()) == Fraction(1, 16)


# ----------------------------------------------------------------------
# Frequent color sets
# ----------------------------------------------------------------------
def old_frequent_colors(evaluate, total_size, known, unknown, values, threshold):
    dist = fraction_distribution(evaluate, known, unknown, total_size, values)
    return frozenset(color for color, p in dist.items() if p >= threshold)


THRESHOLDS = (
    0, Fraction(1, 16), Fraction(1, 8), Fraction(3, 16), Fraction(1, 4),
    Fraction(1, 2), Fraction(773444160, 916733179), 1, 0.25, 0.3,
)


@pytest.mark.parametrize("index", range(len(default_seeds(2))))
def test_frequent_colors_match_the_scatter_loop(index):
    # Every known subset of up to two ball positions, every value on it,
    # and thresholds on and between the attainable frequencies.
    alg = default_seeds(2)[index]
    size, values = alg.ball.size, alg.values
    for known_size in range(3):
        for positions in itertools.combinations(range(size), known_size):
            unknown = [p for p in range(size) if p not in positions]
            for fixed in itertools.product(range(values), repeat=known_size):
                known = dict(zip(positions, fixed))
                for threshold in THRESHOLDS:
                    assert _frequent_colors(
                        alg.evaluate_many, size, list(known.items()), values, Fraction(threshold)
                    ) == old_frequent_colors(
                        alg.evaluate, size, known, unknown, values, threshold
                    )
