"""The unified simulation core: one engine seam, one component Registry.

Two seams that the rest of the repository plugs into:

* :func:`simulate` runs a :class:`SimRequest` on :class:`DirectEngine`
  and returns a :class:`SimReport`.
* :class:`Registry` tables (:data:`GRAPH_FAMILIES`, :data:`ALGORITHMS`,
  :data:`PROBLEMS`) map names to factories with declarative metadata,
  replacing per-layer string dispatch.

See ``docs/ARCHITECTURE.md`` for the layer diagram and
``docs/ENGINE.md`` for the request kinds.
"""

from .engine import (
    KINDS,
    SimReport,
    SimRequest,
    derive_seed,
    simulate,
)
from .direct import DirectEngine
from .registry import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    PROBLEMS,
    Registry,
    RegistryEntry,
    RegistryError,
    ensure_builtins,
    register_algorithm,
    register_graph_family,
    register_problem,
)

__all__ = [
    # engine seam
    "KINDS",
    "SimRequest",
    "SimReport",
    "DirectEngine",
    "derive_seed",
    "simulate",
    # registry seam
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "GRAPH_FAMILIES",
    "ALGORITHMS",
    "PROBLEMS",
    "register_graph_family",
    "register_algorithm",
    "register_problem",
    "ensure_builtins",
]
