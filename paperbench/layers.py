"""Outside-in layer trace for the paper benchmark.

Each layer of ``repro`` is named by the public entry points that the
exhibits call into it.  :func:`install` replaces every entry point, in
every ``repro.*`` module that bound it by name (and on the class, for
methods), with a wrapper that pushes a span for its layer.  Nothing
under ``src/`` changes; the wrappers live only in the traced process.

A span stack gives three numbers per layer:

* ``busy_s`` -- wall time during which at least one span of the layer is
  open (re-entrant nesting is not counted twice);
* ``self_s`` -- wall time during which the layer's span is the innermost
  one (busy minus the spans of other layers it called);
* ``calls`` -- entry-point invocations, nested ones included.

Four layers also count the work their entry points did (vertices
searched, nodes verified, nodes built, Monte Carlo trials).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

#: layer -> entry points, as ``module:qualname``.
LAYERS = {
    "lowerbounds": (
        "repro.lowerbounds.linial:is_c_colorable",
        "repro.lowerbounds.linial:neighborhood_graph",
    ),
    "lcl": (
        "repro.lcl.problem:NodeLCL.verify",
        "repro.lcl.problem:EdgeLCL.verify",
    ),
    "graphs": (
        "repro.graphs.generators:balanced_regular_tree",
        "repro.graphs.generators:regular_tree_of_depth_at_least",
        "repro.graphs.generators:cycle",
        "repro.graphs.generators:toroidal_grid",
        "repro.graphs.generators:lemma18_pair",
        "repro.graphs.orientation:orient_tree",
        "repro.graphs.orientation:orient_torus",
        "repro.graphs.graph:Graph.bfs_distances",
        "repro.graphs.graph:Graph.diameter",
    ),
    "speedup": (
        "repro.speedup.pipeline:run_speedup_pipeline",
        "repro.speedup.failure:node_local_failure",
        "repro.speedup.finite_runner:estimate_global_success",
    ),
    "algorithms": (
        "repro.algorithms.naor_stockmeyer:odd_degree_weak_two_coloring",
        "repro.algorithms.weak_coloring:weak_two_coloring_from_ids",
        "repro.algorithms.weak_coloring:weak_two_coloring_from_weak_coloring",
        "repro.algorithms.two_coloring:proper_two_coloring",
        "repro.algorithms.proper_coloring:linial_coloring",
        "repro.algorithms.pointer_solver:solve_pstar",
        "repro.algorithms.sinkless:sinkless_from_pstar",
        "repro.algorithms.homogeneous_solver:solve_with_constant_label",
        "repro.algorithms.homogeneous_solver:solve_weak2_homogeneous",
        "repro.algorithms.homogeneous_solver:solve_all_pstar",
    ),
    "local_model": ("repro.local_model.views:gather_view",),
    # ``repro.core.engine.simulate`` is left out: no exhibit calls it.
    "core": ("repro.core.direct:DirectEngine.run",),
    "analysis": (
        "repro.analysis.independence:independent_execution_set",
        "repro.analysis.recurrence:lemma9_evaluate",
        "repro.analysis.recurrence:theorem13_crossover_height",
    ),
}


def _graph_arg(args, kwargs, position):
    return kwargs["graph"] if "graph" in kwargs else args[position]


def _graphs_in(result):
    items = result if isinstance(result, tuple) else (result,)
    return sum(item.n for item in items if hasattr(item, "n"))


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[3]


_GENERATORS = [e for e in LAYERS["graphs"] if e.startswith("repro.graphs.generators:")]

#: entry point -> (counter name, fn(args, kwargs, result) -> amount).
COUNTERS = {
    "repro.lowerbounds.linial:is_c_colorable": (
        "lowerbounds.graph_vertices",
        lambda args, kwargs, result: _graph_arg(args, kwargs, 0).n,
    ),
    # No exhibit passes ``nodes=``, so every verify sweeps the whole graph.
    "repro.lcl.problem:NodeLCL.verify": (
        "lcl.nodes_checked",
        lambda args, kwargs, result: _graph_arg(args, kwargs, 1).n,
    ),
    "repro.lcl.problem:EdgeLCL.verify": (
        "lcl.nodes_checked",
        lambda args, kwargs, result: _graph_arg(args, kwargs, 1).n,
    ),
    **{
        entry: ("graphs.nodes_built", lambda args, kwargs, result: _graphs_in(result))
        for entry in _GENERATORS
    },
    "repro.speedup.finite_runner:estimate_global_success": ("speedup.trials", _trials),
}

#: Workloads on which every entry point of the layer must be called.
#: ``paper-quick`` runs every exhibit, so it is home to every layer.  The
#: graph entry points split between paper-landscape (trees, cycles,
#: Lemma 18 pairs) and paper-speedup (tori, orientations).
HOME = {
    "lowerbounds": ("paper-search", "paper-quick"),
    "lcl": ("paper-landscape", "paper-quick"),
    "graphs": ("paper-quick",),
    "speedup": ("paper-speedup", "paper-quick"),
    "algorithms": ("paper-landscape", "paper-quick"),
    "local_model": ("paper-landscape", "paper-quick"),
    "core": ("paper-speedup", "paper-quick"),
    "analysis": ("paper-speedup", "paper-quick"),
}

COUNTER_NAMES = sorted({name for name, _ in COUNTERS.values()})


class LayerMapError(RuntimeError):
    """The layer map no longer matches the code it names."""


class LayerTrace:
    """Span stack that folds layer spans into busy, self and call totals."""

    def __init__(self):
        self.stack = []
        self.depth = Counter()
        self.opened = {}
        self.last = time.perf_counter()
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.calls = Counter()
        self.entry_calls = Counter()
        self.counts = Counter()

    def enter(self, layer, entry):
        now = time.perf_counter()
        if self.stack:
            self.self_s[self.stack[-1]] += now - self.last
        self.last = now
        self.stack.append(layer)
        if self.depth[layer] == 0:
            self.opened[layer] = now
        self.depth[layer] += 1
        self.calls[layer] += 1
        self.entry_calls[entry] += 1

    def exit(self):
        now = time.perf_counter()
        layer = self.stack.pop()
        self.self_s[layer] += now - self.last
        self.last = now
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.busy_s[layer] += now - self.opened[layer]

    def summary(self):
        return {
            "self_s": dict(self.self_s),
            "busy_s": dict(self.busy_s),
            "calls": dict(self.calls),
            "entry_calls": {e: self.entry_calls[e] for es in LAYERS.values() for e in es},
            "counts": {name: self.counts[name] for name in COUNTER_NAMES},
        }


def resolve(entry):
    """Return ``(owner, attribute, function)`` for ``module:qualname``."""
    module_name, _, qualname = entry.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        function = vars(owner)[attribute]
    except (ImportError, AttributeError, KeyError) as exc:
        raise LayerMapError(f"entry point {entry} does not resolve: {exc!r}") from None
    if not callable(function):
        raise LayerMapError(f"entry point {entry} is not a plain function")
    return owner, attribute, function


def _wrap(function, layer, entry, trace):
    counter = COUNTERS.get(entry)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        trace.enter(layer, entry)
        try:
            result = function(*args, **kwargs)
        finally:
            trace.exit()
        if counter is not None:
            trace.counts[counter[0]] += counter[1](args, kwargs, result)
        return result

    return traced


def install():
    """Wrap every entry point and return the :class:`LayerTrace` they feed."""
    trace = LayerTrace()
    resolved = [
        (layer, entry, *resolve(entry)) for layer, entries in LAYERS.items() for entry in entries
    ]
    modules = [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    for layer, entry, owner, attribute, function in resolved:
        wrapper = _wrap(function, layer, entry, trace)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is function:
                    setattr(module, name, wrapper)
    return trace


def check_calls(workload, entry_calls):
    """Entry points of the workload's home layers that were never called."""
    return [
        entry
        for layer, entries in LAYERS.items()
        if workload in HOME[layer]
        for entry in entries
        if entry_calls.get(entry, 0) == 0
    ]
