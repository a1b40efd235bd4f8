"""Tests for the instrumentation layer and the experiments CLI contract.

Covers the tentpole guarantees:

* message counts obey the handshake lemma on known graphs (every
  broadcast round moves exactly ``2m`` messages);
* every traced entry point returns what its untraced run returns;
* metrics and trace exports round-trip through JSON;
* retired ``python -m repro.experiments`` flags are usage errors.
"""

import json
import random

import pytest

from repro.algorithms.message_passing import LubyMIS, RandomizedWeakColoring
from repro.core import SimRequest, simulate
from repro.experiments.speedup_figures import default_seeds
from repro.graphs import orient_torus, toroidal_grid
from repro.graphs.generators import balanced_regular_tree, cycle, star
from repro.instrumentation import (
    MetricsTracer,
    MultiTracer,
    NullTracer,
    RoundMetrics,
    RunMetrics,
    Tracer,
    TraceRecorder,
    effective_tracer,
    estimate_size,
)
from repro.local_model import EdgeViewAlgorithm, LocalAlgorithm, ViewAlgorithm
from repro.speedup import local_maximum_coloring
from repro.speedup.finite_runner import estimate_global_success, resolve_ball_tables
from repro.speedup.pipeline import run_speedup_pipeline


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
        simulate(SimRequest(kind="local", graph=graph, algorithm=Broadcast(rounds)), tracer=tracer)
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
        request = SimRequest(kind="local", graph=graph, algorithm=Broadcast(2))
        result = simulate(request, tracer=tracer)
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
        request = SimRequest(
            kind="local", graph=graph, algorithm=HaltEarlyEven(3), ids=list(range(graph.n)),
        )
        simulate(request, tracer=tracer)
        m = tracer.metrics
        # Final round: 4 odd nodes send 2 messages each, all to halted
        # even neighbors.
        assert m.messages_sent - m.messages_delivered == 8


def _view(tracer):
    request = SimRequest(kind="view", graph=cycle(9), algorithm=ConstantView())
    result = simulate(request, tracer=tracer)
    return result.outputs, result.rounds


def _edge_view(tracer):
    alg = EdgeViewAlgorithm(rounds=1, output_fn=lambda view: min(view.randomness))
    request = SimRequest(
        kind="edge", graph=cycle(8), algorithm=alg, randomness=[v % 3 for v in range(8)],
    )
    result = simulate(request, tracer=tracer)
    return result.outputs, result.rounds


def _torus():
    graph = toroidal_grid(3, 3)
    return graph, orient_torus(graph, 3, 3)


def _finite_run(tracer):
    graph, orientation = _torus()
    alg = local_maximum_coloring(2)
    rng = random.Random(3)
    values = [rng.randrange(alg.values) for _ in graph.nodes()]
    request = SimRequest(
        kind="finite", graph=graph, algorithm=alg, values=values,
        tables=resolve_ball_tables(alg, graph, orientation),
    )
    result = simulate(request, tracer=tracer)
    return result.outputs, result.failing_nodes


def _global_success(tracer):
    graph, orientation = _torus()
    rng = random.Random(7)
    estimate = estimate_global_success(
        local_maximum_coloring(2, bits=3), graph, orientation, trials=40, rng=rng,
        tracer=tracer,
    )
    return estimate, rng.getstate()


def _pipeline(tracer):
    return run_speedup_pipeline(default_seeds()[0], method="exact", tracer=tracer).stages


#: Every traced run beyond the ``local`` kind, as a function of the
#: tracer returning everything its result (and its rng) ends in.
ENTRY_POINTS = {
    "view": _view,
    "edge": _edge_view,
    "finite": _finite_run,
    "global_success": _global_success,
    "pipeline": _pipeline,
}


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
            request = SimRequest(
                kind="local", graph=graph, algorithm=algorithm_cls(), rng=random.Random(123),
            )
            result = simulate(request, tracer=tracer)
            runs.append((result.outputs, result.halt_rounds, result.rounds))
        assert all(r == runs[0] for r in runs[1:])

    @pytest.mark.parametrize("tracer_cls", [MetricsTracer, TraceRecorder])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point_identical_under_tracing(self, entry, tracer_cls):
        run = ENTRY_POINTS[entry]
        tracer = tracer_cls()
        assert run(tracer) == run(None)
        seen = tracer.events if tracer_cls is TraceRecorder else tracer.metrics.engine
        assert seen  # the tracer was handed the run's events

    def test_traced_global_success_scans_every_node(self):
        # The traced batch counts every failing node of a trial; the
        # untraced one stops at the first, yet both draw and estimate alike.
        recorder = TraceRecorder()
        _global_success(recorder)
        failing = [e.data["failing_nodes"] for e in recorder.of_kind("trial")]
        assert max(failing) > 1 and 0 in failing


class TestTracerProtocol:
    def test_multi_tracer_fans_each_event_out_in_order(self):
        class Kinds(Tracer):
            def __init__(self):
                self.kinds = []

            def on_event(self, kind, **info):
                self.kinds.append(kind)

        recorder, kinds = TraceRecorder(), Kinds()
        request = SimRequest(kind="local", graph=cycle(4), algorithm=Broadcast(1))
        simulate(request, tracer=MultiTracer(recorder, NullTracer(), kinds))
        assert kinds.kinds == [e.kind for e in recorder.events]
        assert kinds.kinds[0] == "run_start" and kinds.kinds[-1] == "run_end"


class TestViewEngines:
    def test_view_events_cover_every_node(self):
        graph = cycle(7)
        tracer = MetricsTracer()
        simulate(SimRequest(kind="view", graph=graph, algorithm=ConstantView()), tracer=tracer)
        assert tracer.metrics.engine == "view"
        assert tracer.metrics.views_gathered == graph.n
        # Radius-1 ball in a cycle: 3 nodes, 2 edges — per node.
        assert tracer.metrics.view_nodes == 3 * graph.n
        assert tracer.metrics.view_edges == 2 * graph.n

    def test_edge_engine_traces_every_edge(self):
        graph = cycle(6)
        tracer = MetricsTracer()
        alg = EdgeViewAlgorithm(rounds=1, output_fn=lambda view: view.node_count)
        simulate(SimRequest(kind="edge", graph=graph, algorithm=alg), tracer=tracer)
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

    def test_message_events_carry_the_payload_size(self):
        recorder = TraceRecorder()
        simulate(SimRequest(kind="local", graph=cycle(5), algorithm=Broadcast(2)), tracer=recorder)
        messages = recorder.of_kind("message")
        assert messages and all(
            e.data["bits"] == estimate_size(e.data["payload"]) for e in messages
        )


class TestJsonRoundTrips:
    def test_metrics_dict_keeps_its_key_order(self):
        # The artifact schema: the fields in declaration order, the
        # derived hit rate right after the cache counters, and the halt
        # histogram keyed by sorted round strings.
        metrics = RunMetrics(halt_histogram={10: 1, 2: 3, 0: 1},
                             per_round=[RoundMetrics(round=1, active=4)])
        report = metrics.to_dict()
        assert list(report) == [
            "engine", "algorithm", "n", "rounds", "messages_sent",
            "messages_delivered", "bits_sent", "views_gathered", "view_nodes",
            "view_edges", "trials", "trial_successes", "cache_lookups",
            "cache_hits", "cache_misses", "cache_distinct_classes",
            "cache_hit_rate", "wall_seconds", "halt_histogram", "per_round",
        ]
        assert list(report["halt_histogram"].items()) == [("0", 1), ("2", 3), ("10", 1)]
        assert report["per_round"] == [{
            "round": 1, "active": 4, "messages_sent": 0, "messages_delivered": 0,
            "bits_sent": 0, "halts": 0, "wall_seconds": 0.0,
        }]
        assert list(report["per_round"][0]) == [
            "round", "active", "messages_sent", "messages_delivered",
            "bits_sent", "halts", "wall_seconds",
        ]
        assert json.loads(json.dumps(report)) == report

    def test_cache_counters_round_trip(self):
        # Finite runs report their algorithm's memo lookups (a cache event).
        graph = toroidal_grid(5, 5)
        alg = local_maximum_coloring(2)
        rng = random.Random(5)
        values = [rng.randrange(alg.values) for _ in graph.nodes()]
        tracer = MetricsTracer()
        tables = resolve_ball_tables(alg, graph, orient_torus(graph, 5, 5))
        request = SimRequest(kind="finite", graph=graph, algorithm=alg,
                             tables=tables, values=values)
        simulate(request, tracer=tracer)
        report = tracer.metrics.to_dict()
        data = json.loads(json.dumps(report))
        assert data == report
        assert data["cache_lookups"] == tracer.metrics.cache_lookups == graph.n
        assert data["cache_hits"] == tracer.metrics.cache_hits
        assert data["cache_misses"] == tracer.metrics.cache_misses
        assert data["cache_distinct_classes"] == (
            tracer.metrics.cache_distinct_classes
        )
        assert data["cache_hit_rate"] == tracer.metrics.cache_hit_rate

    def test_metrics_round_trip(self):
        graph = balanced_regular_tree(3, 3)
        tracer = MetricsTracer()
        simulate(SimRequest(kind="local", graph=graph, algorithm=Broadcast(2)), tracer=tracer)
        report = tracer.report()
        assert report == tracer.metrics.to_dict()
        assert len(report["per_round"]) == tracer.metrics.rounds == 2
        assert json.loads(json.dumps(report)) == report

    def test_recorder_jsonl_round_trip(self):
        graph = cycle(5)
        recorder = TraceRecorder()
        simulate(SimRequest(kind="local", graph=graph, algorithm=Broadcast(2)), tracer=recorder)
        events = [json.loads(line) for line in recorder.to_jsonl().splitlines()]
        assert events == [e.to_dict() for e in recorder.events]
        assert events[0]["kind"] == "run_start"
        assert events[-1]["kind"] == "run_end"
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_unjsonable_payloads_do_not_break_export(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        class SendsObjects(Broadcast):
            def send(self, ctx):
                return {port: Opaque() for port in range(ctx.degree)}

        recorder = TraceRecorder()
        request = SimRequest(kind="local", graph=cycle(4), algorithm=SendsObjects(1))
        simulate(request, tracer=recorder)
        events = [json.loads(line) for line in recorder.to_jsonl().splitlines()]
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

    def test_pipeline_reports_radius_and_stages(self):
        # The ladder's run_start carries the seed's radius and its run_end
        # the rung count; MetricsTracer reads neither as n or rounds.
        recorder, metrics = TraceRecorder(), MetricsTracer()
        seed = default_seeds()[0]
        result = run_speedup_pipeline(
            seed, method="exact", tracer=MultiTracer(recorder, metrics)
        )
        ends = [(e.kind, e.data) for e in recorder.events if e.kind in ("run_start", "run_end")]
        assert ends == [
            ("run_start", {"engine": "pipeline", "algorithm": seed.name, "radius": seed.t}),
            ("run_end", {"stages": len(result.stages)}),
        ]
        assert (seed.t, len(result.stages)) == (1, 3)
        report = metrics.report()
        assert report.pop("wall_seconds") > 0
        expected = RunMetrics(engine="pipeline", algorithm=seed.name).to_dict()
        del expected["wall_seconds"]
        assert report == expected  # n and rounds stay 0

    def test_other_engines_must_report_n_and_rounds(self):
        metrics = MetricsTracer()
        with pytest.raises(KeyError):
            metrics.on_event("run_start", engine="view", algorithm="x")
        metrics.on_event("run_start", engine="view", algorithm="x", n=3)
        with pytest.raises(KeyError):
            metrics.on_event("run_end", stages=1)

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

    def test_global_success_event_stream(self):
        # The batched run gets no tracer: a traced estimate sees its
        # own start and end and one trial event each, no ball views and
        # no cache event.
        from repro.graphs.generators import toroidal_grid
        from repro.graphs.orientation import orient_torus
        from repro.speedup import local_maximum_coloring
        from repro.speedup.finite_runner import estimate_global_success

        graph = toroidal_grid(6, 6)
        recorder = TraceRecorder()
        estimate_global_success(
            local_maximum_coloring(2, bits=2),
            graph,
            orient_torus(graph, 6, 6),
            trials=7,
            rng=random.Random(0),
            tracer=recorder,
        )
        events = recorder.events
        assert [e.kind for e in events] == ["run_start"] + ["trial"] * 7 + ["run_end"]
        assert events[0].data["engine"] == "finite"
        assert events[0].data["trials"] == 7
        assert [e.data["index"] for e in events[1:-1]] == list(range(7))


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
