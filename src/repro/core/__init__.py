"""The unified simulation core: one Engine seam, one component Registry.

Two seams that the rest of the repository plugs into:

* :func:`simulate` runs a :class:`SimRequest` on an interchangeable
  backend — :class:`DirectEngine` (reference semantics) or
  :class:`CachedEngine` (canonical-view memoization) — and returns a
  :class:`SimReport`.  Both backends are bit-identical on
  :meth:`SimReport.identity`; choice is a pure performance knob.
* :class:`Registry` tables (:data:`GRAPH_FAMILIES`, :data:`ALGORITHMS`,
  :data:`PROBLEMS`, :data:`REPORTS`) map names to factories with
  declarative metadata, replacing per-layer string dispatch.

See ``docs/ARCHITECTURE.md`` for the layer diagram and
``docs/ENGINE.md`` for the backend matrix.
"""

from .engine import (
    ENGINE_NAMES,
    KINDS,
    Engine,
    SimReport,
    SimRequest,
    derive_seed,
    resolve_engine,
    simulate,
)
from .direct import DirectEngine
from .cached import CachedEngine
from .registry import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    PROBLEMS,
    REPORTS,
    Registry,
    RegistryEntry,
    RegistryError,
    build_graph,
    ensure_builtins,
    register_algorithm,
    register_graph_family,
    register_problem,
    register_report,
)

__all__ = [
    # engine seam
    "KINDS",
    "ENGINE_NAMES",
    "SimRequest",
    "SimReport",
    "Engine",
    "DirectEngine",
    "CachedEngine",
    "derive_seed",
    "resolve_engine",
    "simulate",
    # registry seam
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "GRAPH_FAMILIES",
    "ALGORITHMS",
    "PROBLEMS",
    "REPORTS",
    "register_graph_family",
    "register_algorithm",
    "register_problem",
    "register_report",
    "ensure_builtins",
    "build_graph",
]
