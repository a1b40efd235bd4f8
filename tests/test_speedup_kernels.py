"""The batched speedup kernels are *exact* — trials, streams, and all.

``src/repro/speedup/trial_kernel.py`` claims that the ``layout="kernel"``
paths of the finite runner and the Monte Carlo failure estimators are
indistinguishable from the reference scalar loops except in speed.  This
suite turns that claim into properties:

* **trial parity** — ``estimate_global_success(layout="kernel")``
  returns the same estimate, fires the same per-trial ``on_trial``
  sequence, and leaves the caller's ``rng`` in the same state as the
  scalar loop, on hypothesis-generated tori / algorithms / seeds;
* **stream parity** — :func:`~repro.speedup.trial_kernel.
  draw_randrange_block` produces exactly the values ``rng.randrange``
  would, restores the identical post-draw state mid-stream, and a
  declined batch never touches the rng;
* **decline exactness** — assignments too wide to encode in an int64
  key fall back to the scalar loop bit-identically;
* **engine parity** — ``finite`` requests through the explicit
  ``layout="kernel"`` path reproduce the reference report (outputs,
  failing nodes, and ``info`` markers);
* **failure parity** — ``node_local_failure`` / ``edge_local_failure``
  and the full speedup pipeline produce identical estimates and rng
  streams under ``layout="kernel"``;
* **observability** — finite kernel runs populate the ``kernel_*``
  metrics counters.

The golden draw-order pins live in ``tests/test_seed_stability.py``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import SimRequest
from repro.core.direct import DirectEngine
from repro.graphs.generators import toroidal_grid
from repro.graphs.orientation import orient_torus
from repro.instrumentation.metrics import MetricsTracer
from repro.instrumentation.tracer import Tracer
from repro.speedup.algorithms import (
    local_maximum_coloring,
    parity_coloring,
    smaller_count_coloring,
    zero_round_uniform,
)
from repro.speedup.failure import edge_local_failure, node_local_failure
from repro.speedup.finite_runner import (
    estimate_global_success,
    resolve_ball_tables,
)
from repro.speedup.pipeline import run_speedup_pipeline
from repro.speedup.transform import first_speedup
from repro.speedup import trial_kernel as tk

# ----------------------------------------------------------------------
# Strategies: radius-<=1 algorithms on oriented tori (the finite
# runner's sound domain), small trial budgets, arbitrary seeds.
# ----------------------------------------------------------------------

ALGORITHM_FACTORIES = {
    "local-maximum": lambda bits: local_maximum_coloring(2, bits),
    "smaller-count": lambda bits: smaller_count_coloring(2, bits),
    "parity": lambda bits: parity_coloring(2, bits),
    "uniform": lambda bits: zero_round_uniform(2, 2, bits=bits),
}

algorithms = st.tuples(
    st.sampled_from(sorted(ALGORITHM_FACTORIES)), st.integers(1, 3)
).map(lambda t: ALGORITHM_FACTORIES[t[0]](t[1]))

tori = st.tuples(st.integers(3, 6), st.integers(3, 6))


class TrialRecorder(Tracer):
    """Records the ``on_trial`` stream plus the run envelope."""

    def __init__(self):
        self.events = []

    def on_run_start(self, engine, algorithm, n, **info):
        self.events.append(("start", engine, algorithm, n, info))

    def on_trial(self, index, succeeded, failing_nodes):
        self.events.append(("trial", index, succeeded, failing_nodes))

    def on_run_end(self, rounds):
        self.events.append(("end", rounds))


def _oriented(rows, cols):
    graph = toroidal_grid(rows, cols)
    return graph, orient_torus(graph, rows, cols)


# ----------------------------------------------------------------------
# Trial parity (the tentpole claim)
# ----------------------------------------------------------------------

@given(alg=algorithms, shape=tori, trials=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_estimate_global_success_trial_parity(alg, shape, trials, seed):
    graph, orientation = _oriented(*shape)
    ref_tracer, ker_tracer = TrialRecorder(), TrialRecorder()
    ref_rng, ker_rng = random.Random(seed), random.Random(seed)
    reference = estimate_global_success(
        alg, graph, orientation, trials, rng=ref_rng, tracer=ref_tracer
    )
    batched = estimate_global_success(
        alg, graph, orientation, trials, rng=ker_rng, tracer=ker_tracer,
        layout="kernel",
    )
    assert batched == reference
    assert ker_tracer.events == ref_tracer.events
    assert ker_rng.getstate() == ref_rng.getstate()


@given(shape=tori, trials=st.integers(1, 12), seed=st.integers(0, 2**16))
@settings(deadline=None, max_examples=15)
def test_wide_encoding_declines_to_identical_scalar_run(shape, trials, seed):
    # 13 bits over a 5-word radius-1 ball needs 65 > 62 key bits: the
    # batch must decline before drawing, leaving the scalar fallback
    # bit-identical to a run that never tried.
    alg = local_maximum_coloring(2, bits=13)
    assert tk.encode_reason(alg.values, len(alg.ball.words)) is not None
    graph, orientation = _oriented(*shape)
    ref_tracer, ker_tracer = TrialRecorder(), TrialRecorder()
    ref_rng, ker_rng = random.Random(seed), random.Random(seed)
    reference = estimate_global_success(
        alg, graph, orientation, trials, rng=ref_rng, tracer=ref_tracer
    )
    fallback = estimate_global_success(
        alg, graph, orientation, trials, rng=ker_rng, tracer=ker_tracer,
        layout="kernel",
    )
    assert fallback == reference
    assert ker_tracer.events == ref_tracer.events
    assert ker_rng.getstate() == ref_rng.getstate()


# ----------------------------------------------------------------------
# Stream parity: the batched randrange draws
# ----------------------------------------------------------------------

@given(bound=st.sampled_from([1, 2, 3, 5, 8, 12, 100, 2**20 + 7,
                              2**31 + 11]),
       count=st.integers(0, 400), seed=st.integers(0, 2**32 - 1),
       warmup=st.integers(0, 17))
@settings(deadline=None, max_examples=40)
def test_draw_randrange_block_matches_scalar_stream(bound, count, seed,
                                                    warmup):
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(warmup):  # start mid-stream, not at a fresh state
        fast.randrange(7)
        slow.randrange(7)
    block = tk.draw_randrange_block(fast, bound, count)
    expected = [slow.randrange(bound) for _ in range(count)]
    assert block.tolist() == expected
    assert fast.getstate() == slow.getstate()
    # The post-draw tails stay locked together.
    assert [fast.randrange(997) for _ in range(8)] == [
        slow.randrange(997) for _ in range(8)
    ]


def test_encode_reason_boundaries():
    # 62 bits fits an int64 key, 63 does not; zero-length always fits.
    assert tk.encode_reason(1 << 31, 2) is None
    assert tk.encode_reason(1 << 21, 3) is not None
    assert tk.encode_reason(1 << 62, 0) is None


# ----------------------------------------------------------------------
# Engine parity: the "finite" request kind through both paths
# ----------------------------------------------------------------------

@given(alg=algorithms, shape=tori, seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=25)
def test_finite_kernel_backend_parity(alg, shape, seed):
    graph, orientation = _oriented(*shape)
    rng = random.Random(seed)
    values = [rng.randrange(alg.values) for _ in graph.nodes()]
    request = SimRequest(
        kind="finite", graph=graph, algorithm=alg,
        orientation=orientation, values=values,
    )
    reference = DirectEngine().run(request)
    kernel = DirectEngine().run(replace(request, layout="kernel"))
    assert kernel.identity() == reference.identity()
    assert "kernel" not in reference.info  # "auto" default: clean info
    assert kernel.info["kernel"] == "vectorized"


def test_finite_kernel_output_length_mismatch_is_an_error():
    from repro.local_model.kernels import register_finite_kernel
    from repro.speedup.algorithms import NodeAlgorithm

    class _ShortAlgorithm(NodeAlgorithm):
        pass

    @register_finite_kernel(_ShortAlgorithm)
    def _short_kernel(algorithm, graph, values, tables):
        return [0], []

    honest = local_maximum_coloring(2, 1)
    alg = _ShortAlgorithm(2, 1, 1, 2, honest.fn, name="short")
    graph, orientation = _oriented(3, 3)
    request = SimRequest(
        kind="finite", graph=graph, algorithm=alg,
        orientation=orientation, values=[0] * graph.n, layout="kernel",
    )
    try:
        DirectEngine().run(request)
    except RuntimeError as exc:
        assert "returned 1 outputs for 9 nodes" in str(exc)
    else:  # pragma: no cover - the assertion is the test
        raise AssertionError("short kernel output was not rejected")


# ----------------------------------------------------------------------
# Failure-estimator and pipeline parity
# ----------------------------------------------------------------------

@given(bits=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       samples=st.integers(1, 400))
@settings(deadline=None, max_examples=15)
def test_node_and_edge_mc_failure_parity(bits, seed, samples):
    node = local_maximum_coloring(2, bits)
    ref_rng, ker_rng = random.Random(seed), random.Random(seed)
    reference = node_local_failure(node, method="monte_carlo",
                                   samples=samples, rng=ref_rng)
    batched = node_local_failure(node, method="monte_carlo",
                                 samples=samples, rng=ker_rng,
                                 layout="kernel")
    assert batched == reference
    assert ker_rng.getstate() == ref_rng.getstate()

    edge = first_speedup(node, Fraction(1, 4))
    ref_rng, ker_rng = random.Random(seed), random.Random(seed)
    reference = edge_local_failure(edge, method="monte_carlo",
                                   samples=samples, rng=ref_rng)
    batched = edge_local_failure(edge, method="monte_carlo",
                                 samples=samples, rng=ker_rng,
                                 layout="kernel")
    assert batched == reference
    assert ker_rng.getstate() == ref_rng.getstate()


def test_pipeline_kernel_layout_reproduces_reference_stages():
    start = local_maximum_coloring(2, 1)
    reference = run_speedup_pipeline(start, method="monte_carlo",
                                     samples=300, base_seed=7)
    start = local_maximum_coloring(2, 1)
    batched = run_speedup_pipeline(start, method="monte_carlo",
                                   samples=300, base_seed=7,
                                   layout="kernel")
    assert len(batched.stages) == len(reference.stages)
    for got, want in zip(batched.stages, reference.stages):
        assert (got.kind, got.radius, got.name) == (
            want.kind, want.radius, want.name
        )
        assert got.measured_failure == want.measured_failure
        assert got.lemma_bound == want.lemma_bound
        assert got.threshold == want.threshold


# ----------------------------------------------------------------------
# Observability: kernel_* metrics of finite kernel runs
# ----------------------------------------------------------------------

def _finite_request(seed=11):
    alg = local_maximum_coloring(2, 1)
    graph, orientation = _oriented(4, 5)
    rng = random.Random(seed)
    values = [rng.randrange(alg.values) for _ in graph.nodes()]
    return SimRequest(kind="finite", graph=graph, algorithm=alg,
                      orientation=orientation, values=values)


def test_engine_counts_finite_kernel_runs():
    tracer = MetricsTracer()
    request = _finite_request()
    reference = DirectEngine().run(request)
    report = DirectEngine().run(replace(request, layout="kernel"), tracer=tracer)
    assert report.identity() == reference.identity()
    assert tracer.metrics.kernel_runs == 1
    assert tracer.metrics.kernel_vectorized == 1


# ----------------------------------------------------------------------
# Kernel building blocks: distinct-assignment evaluation
# ----------------------------------------------------------------------

@given(shape=tori, trials=st.integers(1, 10), seed=st.integers(0, 2**16))
@settings(deadline=None, max_examples=15)
def test_assignment_codes_match_per_node_evaluation(shape, trials, seed):
    alg = smaller_count_coloring(2, 1)
    graph, orientation = _oriented(*shape)
    tables = resolve_ball_tables(alg, graph, orientation)
    rng = random.Random(seed)
    matrix = np.array(
        [[rng.randrange(alg.values) for _ in graph.nodes()]
         for _ in range(trials)],
        dtype=np.int64,
    )
    codes, outputs, inverse = tk.assignment_codes(alg, matrix, tables)
    expected = np.empty(matrix.shape, dtype=np.int64)
    for t in range(trials):
        for v in graph.nodes():
            want = alg.evaluate(tuple(int(matrix[t, u]) for u in tables[v]))
            assert outputs[inverse[t, v]] == want
            expected[t, v] = want
    # The equality codes partition cells exactly like output equality.
    assert np.array_equal(codes == codes[0, 0], expected == expected[0, 0])
