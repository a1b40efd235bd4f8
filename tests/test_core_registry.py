"""Unit tests for the :mod:`repro.core` registry and engine seam.

Two surfaces:

* the :class:`~repro.core.Registry` mechanics — decorator registration,
  duplicate handling, error messages, and builtin population;
* the :func:`~repro.core.simulate` facade plumbing — request
  validation, seed derivation, the one-engine signature, and the
  retired second surface staying gone.
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.core import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    KINDS,
    PROBLEMS,
    DirectEngine,
    Registry,
    RegistryError,
    SimReport,
    SimRequest,
    derive_seed,
    ensure_builtins,
    simulate,
)
from repro.graphs import cycle


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------

class TestRegistry:
    def test_register_and_create(self):
        reg = Registry("widget")

        @reg.register("box", size=3)
        class Box:
            """A box."""

            def __init__(self, lid=False):
                self.lid = lid

        entry = reg.get("box")
        assert entry.name == "box"
        assert entry.metadata["size"] == 3
        assert entry.description == "A box."
        assert isinstance(reg.create("box", lid=True), Box)
        assert reg.create("box", lid=True).lid is True
        assert "box" in reg
        assert reg.names() == ("box",)

    def test_duplicate_name_rejected_unless_replace(self):
        reg = Registry("widget")
        reg.add("x", factory=lambda: 1)
        with pytest.raises(RegistryError):
            reg.add("x", factory=lambda: 2)
        reg.add("x", factory=lambda: 2, replace=True)
        assert reg.create("x") == 2

    def test_unknown_name_error_lists_known_names(self):
        reg = Registry("widget")
        reg.add("alpha", factory=lambda: 1)
        reg.add("beta", factory=lambda: 2)
        with pytest.raises(RegistryError) as exc:
            reg.get("gamma")
        message = str(exc.value)
        assert "gamma" in message
        assert "alpha" in message and "beta" in message

    def test_registry_error_is_a_key_error(self):
        # Callers that guarded string dispatch with KeyError keep working.
        assert issubclass(RegistryError, KeyError)

    def test_unknown_kwarg_error_names_valid_parameters(self):
        reg = Registry("widget")
        reg.add("crate", factory=lambda size=1, lid=False: (size, lid))
        with pytest.raises(RegistryError) as exc:
            reg.create("crate", colour="red")
        message = str(exc.value)
        assert "crate" in message
        assert "colour" in message
        assert "valid parameters: size, lid" in message  # signature order

    def test_type_error_raised_inside_factory_body_propagates(self):
        # Only *signature* mismatches become RegistryError; a factory
        # that itself raises TypeError must not be mislabeled.
        def exploding(size=1):
            raise TypeError("boom from the body")

        reg = Registry("widget")
        reg.add("bomb", factory=exploding)
        with pytest.raises(TypeError, match="boom from the body"):
            reg.create("bomb", size=2)

    def test_uninspectable_factory_still_creates(self):
        # Builtins like dict defeat inspect.signature on some versions;
        # create() must fall through to a plain call, not crash.
        reg = Registry("widget")
        reg.add("mapping", factory=dict)
        assert reg.create("mapping", a=1) == {"a": 1}

    def test_entries_are_sorted_by_name(self):
        reg = Registry("widget")
        reg.add("zeta", factory=lambda: 1)
        reg.add("alpha", factory=lambda: 2)
        assert [e.name for e in reg.entries()] == ["alpha", "zeta"]


class TestBuiltins:
    def test_builtin_algorithms_present(self):
        ensure_builtins()
        names = set(ALGORITHMS.names())
        assert {"local-max", "random-priority", "ball-signature",
                "degree-profile"} <= names
        assert {"luby-mis", "cole-vishkin-mp",
                "randomized-weak-coloring"} <= names

    def test_builtin_graph_families_present(self):
        ensure_builtins()
        assert {"cycle", "path", "tree", "torus", "star", "caterpillar",
                "clique", "hypercube"} <= set(GRAPH_FAMILIES.names())

    def test_builtin_problems_present(self):
        ensure_builtins()
        assert {"weak-coloring", "proper-coloring", "mis",
                "weak-edge-coloring", "sinkless-orientation",
                "maximal-matching"} <= set(PROBLEMS.names())

    def test_algorithm_metadata_drives_cell_resolution(self):
        ensure_builtins()
        entry = ALGORITHMS.get("luby-mis")
        assert entry.metadata["kind"] == "local"
        assert entry.metadata["needs"] == "ids"
        problem_name, problem_kwargs = entry.metadata["solves"]
        assert problem_name == "mis"
        assert PROBLEMS.create(problem_name, **problem_kwargs) is not None


# ----------------------------------------------------------------------
# Engine seam plumbing
# ----------------------------------------------------------------------

class TestEngineSeam:
    def test_resolve_engine(self):
        # One engine: simulate takes no backend choice at all, and the
        # retired resolver and names are gone from the package.
        assert list(inspect.signature(simulate).parameters) == [
            "request", "tracer",
        ]
        request = SimRequest(kind="view", graph=cycle(4), algorithm=None)
        for retired in ("cached", "direct", "sharded", DirectEngine()):
            with pytest.raises(TypeError, match="engine"):
                simulate(request, engine=retired)
        import repro.core

        for name in ("resolve_engine", "ENGINE_NAMES", "Engine",
                     "CachedEngine"):
            assert not hasattr(repro.core, name), name

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")
        assert 0 <= derive_seed(0, "a") < 2 ** 64

    def test_request_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SimRequest(kind="quantum", graph=cycle(4), algorithm=None)

    def test_request_rejects_layout_on_local_and_finite(self):
        # Every kind has one evaluation path and SimRequest has no
        # layout field: ``layout=`` is a TypeError on every kind, not a
        # knob quietly accepted or ignored.
        for kind in KINDS:
            for layout in ("auto", "dict", "csr", "kernel"):
                with pytest.raises(TypeError, match="layout"):
                    SimRequest(kind=kind, graph=cycle(4), algorithm=None,
                               layout=layout)

    def test_retired_kernel_layout_is_gone(self):
        # ``layout="kernel"`` on a view or edge request is a TypeError
        # like any layout; the speedup entry points take no layout,
        # reports carry no info dict, the tracer's one hook is on_event
        # (no kernel or layout hook), and the kernel, CSR, batch-view,
        # implicit and entity-adapter modules are gone.
        import importlib.util

        from repro.algorithms.view_rules import BallSignatureColoring
        from repro.instrumentation import Tracer
        from repro.local_model import EdgeViewAlgorithm
        from repro.speedup import (
            edge_local_failure,
            estimate_global_success,
            node_local_failure,
            run_speedup_pipeline,
        )

        for kind, algorithm in (
            ("view", BallSignatureColoring(radius=1)),
            ("edge", EdgeViewAlgorithm(1, len, name="edge-len")),
        ):
            with pytest.raises(TypeError, match="layout"):
                SimRequest(kind=kind, graph=cycle(6), algorithm=algorithm,
                           layout="kernel")
        for fn in (node_local_failure, edge_local_failure,
                   estimate_global_success, run_speedup_pipeline):
            assert "layout" not in inspect.signature(fn).parameters, fn
        report = simulate(SimRequest(
            kind="view", graph=cycle(6),
            algorithm=BallSignatureColoring(radius=1),
        ))
        assert not hasattr(report, "info")
        hooks = [name for name in vars(Tracer) if name.startswith("on_")]
        assert hooks == ["on_event"]
        for module in ("repro.local_model.kernels", "repro.algorithms.kernels",
                       "repro.speedup.trial_kernel", "repro.graphs.csr",
                       "repro.graphs.implicit",
                       "repro.local_model.batch_views",
                       "repro.core.entities"):
            assert importlib.util.find_spec(module) is None, module

    def test_paper_setup_does_not_import_numpy(self):
        # The paper benchmark's set-up -- import repro.experiments, then
        # register the built-ins -- runs in a fresh interpreter without
        # numpy: no module under repro imports it.
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.experiments\n"
            "from repro.core import ensure_builtins\n"
            "ensure_builtins()\n"
            "print('numpy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_finite_request_needs_tables(self):
        from dataclasses import replace

        from repro.graphs import orient_torus, toroidal_grid
        from repro.speedup import local_maximum_coloring
        from repro.speedup.finite_runner import resolve_ball_tables

        graph = toroidal_grid(3, 4)
        orientation = orient_torus(graph, 3, 4)
        alg = local_maximum_coloring(2, 1)
        request = SimRequest(kind="finite", graph=graph, algorithm=alg,
                             orientation=orientation,
                             values=[v % alg.values for v in graph.nodes()])
        # An orientation alone does not do: the balls come from the tables.
        with pytest.raises(
            ValueError, match=r"^finite requests need ball tables \(from resolve_ball_tables\)$"
        ):
            simulate(request)
        tables = resolve_ball_tables(alg, graph, orientation)
        assert simulate(replace(request, tables=tables)) == simulate(
            replace(request, orientation=None, tables=tables)
        )

    def test_resolved_rng_precedence(self):
        graph = cycle(4)
        explicit = random.Random(3)
        request = SimRequest(kind="view", graph=graph, algorithm=None,
                             rng=explicit, seed=5, label="x")
        assert request.resolved_rng() is explicit
        seeded = SimRequest(kind="view", graph=graph, algorithm=None,
                            seed=5, label="x")
        expected = random.Random(derive_seed(5, "x"))
        assert seeded.resolved_rng().random() == expected.random()

    def test_retired_run_surface_is_gone(self):
        # simulate() is the one way to run an algorithm: the run
        # adapters, their result types, the report converters and the
        # engine-name diagnostic are gone, and so is the module that
        # held the message-passing adapters.  A report's own == compares
        # every field it has.
        import dataclasses
        import importlib
        import importlib.util

        assert importlib.util.find_spec("repro.local_model.network") is None
        retired = ("run_local", "run_view_algorithm", "run_edge_view_algorithm",
                   "run_node_algorithm_on_oriented_graph", "ExecutionResult",
                   "EdgeExecutionResult", "FiniteRunResult")
        for module in ("repro.core", "repro.local_model",
                       "repro.local_model.edge_model", "repro.speedup",
                       "repro.speedup.finite_runner"):
            exported = importlib.import_module(module)
            for name in retired:
                assert not hasattr(exported, name), (module, name)
                assert name not in getattr(exported, "__all__", ()), (module, name)
        for name in ("to_execution_result", "to_edge_result",
                     "to_finite_result", "identity", "backend"):
            assert not hasattr(SimReport, name), name
        assert [field.name for field in dataclasses.fields(SimReport)] == [
            "kind", "outputs", "rounds", "halt_rounds", "failing_nodes",
        ]
        assert not hasattr(DirectEngine, "name")

    def test_retired_memo_surface_is_gone(self):
        # The speedup memo is a plain dict on each algorithm: the
        # counting cache module is gone, the reference key lives beside
        # OrientedBall, RunMetrics has no loader, and the second
        # iterated logarithm and the rule-factory wrappers are gone.
        import importlib
        import importlib.util

        from repro.instrumentation import RunMetrics
        from repro.speedup import local_maximum_coloring

        assert importlib.util.find_spec("repro.local_model.cache") is None
        retired = {
            "repro.local_model": ("KeyedCache", "CacheStats", "ball_assignment_key"),
            "repro.algorithms": ("log_star", "make_view_rule", "VIEW_RULE_NAMES"),
            "repro.algorithms.cole_vishkin": ("log_star",),
            "repro.algorithms.view_rules": ("make_view_rule", "VIEW_RULE_NAMES"),
            "repro.algorithms.edge_rules": ("make_edge_rule", "EDGE_RULE_NAMES"),
        }
        for module, names in retired.items():
            exported = importlib.import_module(module)
            for name in names:
                assert not hasattr(exported, name), (module, name)
                assert name not in getattr(exported, "__all__", ()), (module, name)
        assert not hasattr(RunMetrics, "from_dict")
        alg = local_maximum_coloring(2)
        assert type(alg.memo) is dict and not hasattr(alg, "cache")

    def test_retired_ball_surface_is_gone(self):
        # Each kind of ball is built one way: views through one
        # exploration, the speedup's placements through one overlap.
        # The copies, the per-view adjacency and the pipeline's fixed
        # threshold are gone.
        import inspect

        from repro.local_model.views import View
        from repro.speedup import EdgeBall, run_speedup_pipeline
        from repro.speedup import failure

        assert not hasattr(EdgeBall, "shift_map_from")
        for name in ("local_neighbors", "neighbor_in_direction", "_local_adj"):
            assert not hasattr(View, name), name
        for name in ("_split_positions", "_edge_layouts"):
            assert not hasattr(failure, name), name
        assert "threshold_override" not in inspect.signature(run_speedup_pipeline).parameters
