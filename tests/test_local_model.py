"""Tests for the synchronous LOCAL execution engine."""

import random

import pytest

from repro.core import SimRequest, simulate
from repro.graphs import balanced_regular_tree, cycle, path, sequential_ids
from repro.graphs.graph import edge_key
from repro.local_model import (
    LocalAlgorithm,
    ViewAlgorithm,
    EdgeViewAlgorithm,
)


class HaltImmediately(LocalAlgorithm):
    """Every node outputs its degree in round 0."""

    name = "halt-immediately"

    def init(self, ctx):
        ctx.halt(ctx.degree)

    def send(self, ctx):  # pragma: no cover - never called
        return {}

    def receive(self, ctx, messages):  # pragma: no cover - never called
        pass


class FloodMinimum(LocalAlgorithm):
    """Flood the minimum identifier; halt when it stabilizes for ecc rounds.

    Nodes know n, so they run exactly n rounds and output the minimum —
    a deliberately simple O(n) global algorithm.
    """

    name = "flood-minimum"

    def init(self, ctx):
        ctx.state["best"] = ctx.identifier

    def send(self, ctx):
        return {port: ctx.state["best"] for port in range(ctx.degree)}

    def receive(self, ctx, messages):
        for value in messages.values():
            ctx.state["best"] = min(ctx.state["best"], value)
        if ctx.round_number >= ctx.n:
            ctx.halt(ctx.state["best"])


class CountNeighbors(LocalAlgorithm):
    """One round: output how many messages arrived."""

    name = "count-neighbors"

    def send(self, ctx):
        return {port: "ping" for port in range(ctx.degree)}

    def receive(self, ctx, messages):
        ctx.halt(len(messages))


class UsesRandomness(LocalAlgorithm):
    name = "uses-randomness"

    def send(self, ctx):
        return {}

    def receive(self, ctx, messages):
        ctx.halt(ctx.rng.getrandbits(8))


class NeverHalts(LocalAlgorithm):
    name = "never-halts"

    def send(self, ctx):
        return {}

    def receive(self, ctx, messages):
        pass


class TestMessagePassing:
    def test_zero_round_algorithm(self):
        g = balanced_regular_tree(3, 2)
        result = simulate(SimRequest(kind="local", graph=g, algorithm=HaltImmediately()))
        assert result.rounds == 0
        assert result.outputs == [g.degree(v) for v in g.nodes()]
        assert result.halt_rounds == [0] * g.n
        assert result.all_halted()

    def test_flood_minimum_finds_global_min(self):
        g = cycle(9)
        ids = [50, 3, 77, 12, 9, 31, 25, 60, 41]
        result = simulate(SimRequest(kind="local", graph=g, algorithm=FloodMinimum(), ids=ids))
        assert set(result.outputs) == {3}
        assert result.rounds == g.n

    def test_messages_arrive_on_correct_ports(self):
        g = path(4)
        result = simulate(SimRequest(kind="local", graph=g, algorithm=CountNeighbors()))
        assert result.outputs == [1, 2, 2, 1]
        assert result.rounds == 1

    def test_deterministic_run_forbids_randomness(self):
        g = path(2)
        with pytest.raises(RuntimeError, match="deterministic"):
            simulate(SimRequest(
                kind="local", graph=g, algorithm=UsesRandomness(), deterministic=True,
            ))

    def test_randomized_runs_reproducible_by_seed(self):
        g = path(4)
        a = simulate(SimRequest(
            kind="local", graph=g, algorithm=UsesRandomness(), rng=random.Random(5),
        ))
        b = simulate(SimRequest(
            kind="local", graph=g, algorithm=UsesRandomness(), rng=random.Random(5),
        ))
        assert a.outputs == b.outputs

    def test_randomness_is_private(self):
        g = path(16)
        result = simulate(SimRequest(
            kind="local", graph=g, algorithm=UsesRandomness(), rng=random.Random(1),
        ))
        assert len(set(result.outputs)) > 1

    def test_runaway_algorithm_raises(self):
        g = path(3)
        with pytest.raises(RuntimeError, match="still running"):
            simulate(SimRequest(kind="local", graph=g, algorithm=NeverHalts(), max_rounds=10))

    def test_id_length_validation(self):
        g = path(3)
        with pytest.raises(ValueError):
            simulate(SimRequest(kind="local", graph=g, algorithm=HaltImmediately(), ids=[1, 2]))

    def test_labeling_includes_unset_for_non_halting(self):
        g = path(2)

        class OneHalts(LocalAlgorithm):
            name = "one-halts"

            def send(self, ctx):
                return {}

            def receive(self, ctx, messages):
                if ctx.identifier == 1:
                    ctx.halt("done")

        with pytest.raises(RuntimeError):
            simulate(SimRequest(
                kind="local", graph=g, algorithm=OneHalts(), ids=[1, 2], max_rounds=5,
            ))

    def test_halted_nodes_stop_sending(self):
        g = path(3)

        class MiddleListens(LocalAlgorithm):
            """Ends halt in round 1; middle reports messages in round 2."""

            name = "middle-listens"

            def send(self, ctx):
                return {port: "hi" for port in range(ctx.degree)}

            def receive(self, ctx, messages):
                if ctx.degree == 1:
                    ctx.halt("end")
                elif ctx.round_number == 2:
                    ctx.halt(len(messages))

        result = simulate(SimRequest(kind="local", graph=g, algorithm=MiddleListens()))
        assert result.outputs[1] == 0  # both ends were silent in round 2


class TestViewAlgorithms:
    def test_view_algorithm_runs_at_declared_radius(self):
        class DegreeSum(ViewAlgorithm):
            name = "degree-sum"
            radius = 1

            def output(self, view):
                return sum(view.degrees)

        g = path(4)
        result = simulate(SimRequest(kind="view", graph=g, algorithm=DegreeSum()))
        assert result.rounds == 1
        assert result.outputs == [3, 5, 5, 3]

    def test_view_algorithm_with_ids(self):
        class MaxId(ViewAlgorithm):
            name = "max-id"
            radius = 2

            def output(self, view):
                return max(view.identifiers)

        g = path(5)
        result = simulate(SimRequest(
            kind="view", graph=g, algorithm=MaxId(), ids=sequential_ids(g),
        ))
        assert result.outputs == [3, 4, 5, 5, 5]


class TestEdgeModel:
    def test_edge_outputs_keyed_canonically(self):
        alg = EdgeViewAlgorithm(1, lambda view: view.node_count, name="size")
        g = path(4)
        result = simulate(SimRequest(kind="edge", graph=g, algorithm=alg))
        assert result.rounds == 1
        assert result.outputs[edge_key(0, 1)] == 2  # radius 0 balls at both ends
        assert result.outputs[edge_key(1, 0)] == result.outputs[edge_key(0, 1)]

    def test_edge_view_radius_convention(self):
        # rounds = t means endpoint balls of radius t - 1.
        alg = EdgeViewAlgorithm(2, lambda view: view.node_count)
        g = path(5)
        result = simulate(SimRequest(kind="edge", graph=g, algorithm=alg))
        assert result.outputs[edge_key(2, 3)] == 4  # B_1(2) ∪ B_1(3) in a path

    def test_rounds_zero_allowed(self):
        alg = EdgeViewAlgorithm(0, lambda view: "x")
        result = simulate(SimRequest(kind="edge", graph=path(3), algorithm=alg))
        assert result.rounds == 0

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            EdgeViewAlgorithm(-1, lambda view: None)
