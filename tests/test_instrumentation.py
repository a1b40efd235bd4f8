"""Tests for the instrumentation layer and the experiments CLI contract.

Covers the tentpole guarantees:

* message counts obey the handshake lemma on known graphs (every
  broadcast round moves exactly ``2m`` messages);
* the ``NullTracer`` path is byte-identical to the untraced path;
* metrics and trace exports round-trip through JSON;
* retired ``python -m repro.experiments`` flags are usage errors.
"""

import json
import random

import pytest

from repro.algorithms.message_passing import LubyMIS, RandomizedWeakColoring
from repro.graphs.generators import balanced_regular_tree, cycle, star
from repro.instrumentation import (
    MetricsTracer,
    MultiTracer,
    NullTracer,
    RunMetrics,
    TraceRecorder,
    Tracer,
    constant_size,
    effective_tracer,
    estimate_size,
)
from repro.local_model import (
    EdgeViewAlgorithm,
    LocalAlgorithm,
    ViewAlgorithm,
    run_edge_view_algorithm,
    run_local,
    run_view_algorithm,
)


class Broadcast(LocalAlgorithm):
    """Every node broadcasts on every port for ``total_rounds`` rounds."""

    name = "broadcast"

    def __init__(self, total_rounds: int = 3):
        self.total_rounds = total_rounds

    def send(self, ctx):
        return {port: ("hello", ctx.round_number) for port in range(ctx.degree)}

    def receive(self, ctx, messages):
        if ctx.round_number >= self.total_rounds:
            ctx.halt(len(messages))


class ConstantView(ViewAlgorithm):
    name = "constant-view"
    radius = 1

    def output(self, view):
        return view.node_count


class TestHandshakeLemma:
    """Sum-of-degrees accounting: a full broadcast round sends 2m messages."""

    @pytest.mark.parametrize(
        "graph",
        [cycle(10), balanced_regular_tree(3, 3), star(7)],
        ids=["cycle10", "tree3x3", "star7"],
    )
    def test_messages_per_round_is_twice_m(self, graph):
        rounds = 3
        tracer = MetricsTracer()
        run_local(graph, Broadcast(rounds), tracer=tracer)
        m = tracer.metrics
        assert m.rounds == rounds
        assert m.messages_sent == rounds * 2 * graph.m
        # Nobody halts until the last round's receive, so every message
        # found a listening receiver.
        assert m.messages_delivered == m.messages_sent
        for per_round in m.per_round:
            assert per_round.messages_sent == 2 * graph.m
            assert per_round.active == graph.n

    def test_halt_histogram_accounts_every_node(self):
        graph = cycle(12)
        tracer = MetricsTracer()
        result = run_local(graph, Broadcast(2), tracer=tracer)
        hist = tracer.metrics.halt_histogram
        assert sum(hist.values()) == graph.n
        assert hist == {2: graph.n}
        assert result.all_halted()

    def test_dropped_messages_counted_but_not_delivered(self):
        class HaltEarlyEven(Broadcast):
            """Even nodes halt a round earlier; odd nodes still send to them."""

            def receive(self, ctx, messages):
                early = ctx.identifier % 2 == 0
                if ctx.round_number >= (self.total_rounds - 1 if early else self.total_rounds):
                    ctx.halt(None)

        graph = cycle(8)
        tracer = MetricsTracer()
        run_local(
            graph, HaltEarlyEven(3), ids=list(range(graph.n)), tracer=tracer
        )
        m = tracer.metrics
        # Final round: 4 odd nodes send 2 messages each, all to halted
        # even neighbors.
        assert m.messages_sent - m.messages_delivered == 8


class TestZeroOverheadPath:
    def test_null_tracer_is_collapsed(self):
        assert effective_tracer(None) is None
        assert effective_tracer(NullTracer()) is None
        assert effective_tracer(MultiTracer()) is None
        assert effective_tracer(MultiTracer(NullTracer(), None)) is None
        keep = MetricsTracer()
        assert effective_tracer(keep) is keep

    @pytest.mark.parametrize("algorithm_cls", [LubyMIS, RandomizedWeakColoring])
    def test_null_tracer_execution_identical(self, algorithm_cls):
        graph = balanced_regular_tree(3, 4)
        runs = []
        for tracer in (None, NullTracer(), MetricsTracer(), TraceRecorder()):
            result = run_local(
                graph, algorithm_cls(), rng=random.Random(123), tracer=tracer
            )
            runs.append((result.outputs, result.halt_rounds, result.rounds))
        assert all(r == runs[0] for r in runs[1:])

    def test_view_engine_identical_under_tracing(self):
        graph = cycle(9)
        plain = run_view_algorithm(graph, ConstantView())
        traced = run_view_algorithm(graph, ConstantView(), tracer=MetricsTracer())
        assert plain.outputs == traced.outputs
        assert plain.rounds == traced.rounds


class TestViewEngines:
    def test_view_events_cover_every_node(self):
        graph = cycle(7)
        tracer = MetricsTracer()
        run_view_algorithm(graph, ConstantView(), tracer=tracer)
        assert tracer.metrics.engine == "view"
        assert tracer.metrics.views_gathered == graph.n
        # Radius-1 ball in a cycle: 3 nodes, 2 edges — per node.
        assert tracer.metrics.view_nodes == 3 * graph.n
        assert tracer.metrics.view_edges == 2 * graph.n

    def test_edge_engine_traces_every_edge(self):
        graph = cycle(6)
        tracer = MetricsTracer()
        alg = EdgeViewAlgorithm(rounds=1, output_fn=lambda view: view.node_count)
        run_edge_view_algorithm(graph, alg, tracer=tracer)
        assert tracer.metrics.engine == "edge"
        assert tracer.metrics.views_gathered == graph.m


class TestSizeEstimation:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(0) == 1
        assert estimate_size(255) == 8
        assert estimate_size(-4) == 4
        assert estimate_size(2.5) == 64
        assert estimate_size("ab") == 16

    def test_containers_and_fallback(self):
        assert estimate_size((1, 1)) == 2 * (2 + 1)
        assert estimate_size({"a": 1}) == 4 + 8 + 1

        class Obj:
            def __repr__(self):
                return "xy"

        assert estimate_size(Obj()) == 16

    def test_pluggable_constant_estimator(self):
        graph = cycle(5)
        tracer = MetricsTracer(message_size=constant_size(1))
        run_local(graph, Broadcast(2), tracer=tracer)
        assert tracer.metrics.bits_sent == tracer.metrics.messages_sent


class TestJsonRoundTrips:
    def test_from_dict_ignores_unknown_keys(self):
        # An artifact written by a newer version (extra counters), or by
        # an older one that still carried the retired service_*, delta_*,
        # process-pool, kernel-layout or layout counters, must load on
        # this one rather than raise TypeError.
        graph = cycle(12)
        tracer = MetricsTracer()
        run_local(graph, Broadcast(2), tracer=tracer)
        newer = tracer.metrics.to_dict()
        newer["counter_from_the_future"] = 42
        newer["per_round"] = [
            {**r, "novel_round_field": 1} for r in newer["per_round"]
        ]
        older = {
            **tracer.metrics.to_dict(),
            "service_requests": 3,
            "service_table_hits": 2,
            "service_table_misses": 1,
            "service_graph_hits": 2,
            "service_graph_misses": 1,
            "service_evictions": 0,
            "service_bytes": 4096,
            "delta_applies": 2,
            "delta_footprint": 17,
            "delta_classes_invalidated": 3,
            "delta_cache_survivors": 5,
            "delta_changed_nodes": 4,
            "subruns": 3,
            "shards": 2,
            "degradations": 1,
            "degraded_reasons": ["unpicklable"],
            "layout_kernel_runs": 1,
            "layout_fallbacks": 0,
            "layout_classes": 4,
            "layout_dict_runs": 1,
            "layout_csr_runs": 1,
            "layout_entities": 12,
            "kernel_runs": 1,
            "kernel_vectorized": 1,
            "kernel_fallbacks": 0,
            "kernel_entities": 12,
            "kernel_classes": 4,
        }
        for data in (newer, older):
            restored = RunMetrics.from_dict(data)
            assert restored == tracer.metrics

    def test_cache_counters_round_trip(self):
        from repro.core import SimRequest, simulate
        from repro.graphs import orient_torus, toroidal_grid
        from repro.speedup import local_maximum_coloring

        # Finite runs report their algorithm's memo lookups (on_cache).
        graph = toroidal_grid(5, 5)
        alg = local_maximum_coloring(2)
        rng = random.Random(5)
        values = [rng.randrange(alg.values) for _ in graph.nodes()]
        tracer = MetricsTracer(per_round=False)
        request = SimRequest(kind="finite", graph=graph, algorithm=alg,
                             orientation=orient_torus(graph, 5, 5),
                             values=values)
        simulate(request, tracer=tracer)
        data = json.loads(json.dumps(tracer.metrics.to_dict()))
        restored = RunMetrics.from_dict(data)
        assert restored.cache_lookups == tracer.metrics.cache_lookups == graph.n
        assert restored.cache_hits == tracer.metrics.cache_hits
        assert restored.cache_misses == tracer.metrics.cache_misses
        assert restored.cache_distinct_classes == (
            tracer.metrics.cache_distinct_classes
        )
        assert restored.cache_hit_rate == tracer.metrics.cache_hit_rate

    def test_metrics_round_trip(self):
        graph = balanced_regular_tree(3, 3)
        tracer = MetricsTracer()
        run_local(graph, Broadcast(2), tracer=tracer)
        report = tracer.report()
        restored = RunMetrics.from_dict(json.loads(json.dumps(report)))
        assert restored == tracer.metrics
        assert restored.to_dict() == report

    def test_recorder_json_and_jsonl_round_trip(self):
        graph = cycle(5)
        recorder = TraceRecorder()
        run_local(graph, Broadcast(2), tracer=recorder)
        as_json = TraceRecorder.load_events(recorder.to_json())
        as_jsonl = TraceRecorder.load_events(recorder.to_jsonl())
        assert as_json == as_jsonl
        assert len(as_json) == len(recorder.events)
        assert as_json[0]["kind"] == "run_start"
        assert as_json[-1]["kind"] == "run_end"
        assert [e["seq"] for e in as_json] == list(range(len(as_json)))

    def test_recorder_save_and_reload(self, tmp_path):
        graph = cycle(4)
        recorder = TraceRecorder(record_payloads=False)
        run_local(graph, Broadcast(1), tracer=recorder)
        path = tmp_path / "trace.jsonl"
        recorder.save(str(path))
        events = TraceRecorder.load_events(path.read_text())
        assert len(events) == len(recorder.events)
        assert all("payload" not in e for e in events if e["kind"] == "message")

    def test_unjsonable_payloads_do_not_break_export(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        class SendsObjects(Broadcast):
            def send(self, ctx):
                return {port: Opaque() for port in range(ctx.degree)}

        recorder = TraceRecorder()
        run_local(cycle(4), SendsObjects(1), tracer=recorder)
        events = TraceRecorder.load_events(recorder.to_jsonl())
        payloads = [e["payload"] for e in events if e["kind"] == "message"]
        assert payloads and all(p == "<opaque>" for p in payloads)


class TestSpeedupTracing:
    def test_pipeline_emits_stages(self):
        from repro.experiments.speedup_figures import default_seeds
        from repro.speedup.pipeline import run_speedup_pipeline

        recorder = TraceRecorder()
        result = run_speedup_pipeline(
            default_seeds()[0], method="exact", tracer=recorder
        )
        stages = recorder.of_kind("stage")
        assert len(stages) == len(result.stages)
        assert [e.data["stage_kind"] for e in stages] == [
            s.kind for s in result.stages
        ]

    def test_finite_runner_trials(self):
        from repro.graphs.generators import toroidal_grid
        from repro.graphs.orientation import orient_torus
        from repro.speedup.finite_runner import estimate_global_success
        from repro.experiments.speedup_figures import default_seeds

        alg = default_seeds()[0]
        graph = toroidal_grid(4, 4)
        orientation = orient_torus(graph, 4, 4)
        tracer = MetricsTracer()
        rate = estimate_global_success(
            alg, graph, orientation, trials=20, rng=random.Random(0), tracer=tracer
        )
        assert tracer.metrics.trials == 20
        assert tracer.metrics.trial_successes == round(rate * 20)


class TestCliContract:
    def test_usage_error_exit_code_2(self):
        from repro.experiments.__main__ import main

        # The retired cell runner's pool and seed flags, the retired
        # backend and cache flags, and the retired implicit-scale mode
        # with its options.
        for argv in (["--jobs", "not-a-number"], ["--jobs", "2"],
                     ["--seed", "3"], ["--engine", "sharded"],
                     ["--engine", "cached", "--quick"],
                     ["--view-cache", "--quick"],
                     ["classification", "--implicit"],
                     ["--n", "1000000"], ["--rss-limit-mb", "256"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
