"""The engine seam: one request/report pair, one engine.

Every execution model in the repository — message passing, node views,
edge views, and oriented-ball runs on finite graphs — is one *kind* of
:class:`SimRequest`, and every outcome is one :class:`SimReport`.
:class:`~repro.core.direct.DirectEngine` maps requests to reports with
one evaluation path per kind.

:func:`simulate` is the one way to run an algorithm.  One
:class:`~repro.instrumentation.Tracer` threads through every kind the
same way.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..instrumentation.tracer import Tracer

__all__ = [
    "KINDS",
    "SimRequest",
    "SimReport",
    "derive_seed",
    "simulate",
]

#: The four execution models the seam covers.
KINDS = ("local", "view", "edge", "finite")


def derive_seed(base_seed: int, label: str) -> int:
    """Deterministic 64-bit seed for one unit of work.

    The one seed-derivation scheme in the system:
    ``sha256(f"{base_seed}:{label}")``, shared by
    :meth:`SimRequest.resolved_rng` and the speedup pipeline's Monte
    Carlo defaults.  Stable across processes and Python versions.
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class SimRequest:
    """One simulation, fully described.

    ``kind`` selects the execution model; the remaining fields are the
    union of what the four models accept (a kind ignores the fields it
    does not read):

    * ``"local"`` — ``algorithm`` is a
      :class:`~repro.local_model.algorithm.LocalAlgorithm`; honors
      ``rng`` / ``seed`` / ``deterministic`` / ``max_rounds``.
    * ``"view"`` — ``algorithm`` is a
      :class:`~repro.local_model.algorithm.ViewAlgorithm`.
    * ``"edge"`` — ``algorithm`` is an
      :class:`~repro.local_model.edge_model.EdgeViewAlgorithm`.
    * ``"finite"`` — ``algorithm`` is a
      :class:`~repro.speedup.algorithms.NodeAlgorithm`; requires
      ``values`` (per-node random words) or a ``batch`` of them (one
      per-node list per trial), and the ball ``tables`` that
      :func:`~repro.speedup.finite_runner.resolve_ball_tables` returns
      (one row per node, each entry the node in ``0..n-1`` that one
      ball word reaches).
      ``first_failure_only`` stops each trial's failure scan at its
      first failing node.

    ``seed`` is the reproducible alternative to ``rng``: when set (and
    ``rng`` is not), the engine constructs
    ``random.Random(derive_seed(seed, label))``, so a seeded run is
    reproducible from ``(seed, label)`` alone.

    ``ids``, ``inputs`` and ``randomness`` need one entry per node
    wherever the kind reads them; the engine raises ``ValueError``
    otherwise.
    """

    kind: str
    graph: Any
    algorithm: Any
    ids: Optional[Sequence[int]] = None
    inputs: Optional[Sequence[Any]] = None
    randomness: Optional[Sequence[Any]] = None
    orientation: Optional[Any] = None
    # -- "local" kind ---------------------------------------------------
    rng: Optional[random.Random] = None
    seed: Optional[int] = None
    deterministic: bool = False
    max_rounds: Optional[int] = None
    # -- "finite" kind --------------------------------------------------
    values: Optional[Sequence[int]] = None
    batch: Optional[Sequence[Sequence[int]]] = None
    tables: Optional[List[List[int]]] = None
    first_failure_only: bool = False
    # -- bookkeeping ----------------------------------------------------
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r} (have {KINDS})")

    def resolved_rng(self) -> random.Random:
        """The run's master RNG.

        Priority: an explicit ``rng``; else ``seed`` through
        :func:`derive_seed`; else ``Random(0)``.
        """
        if self.rng is not None:
            return self.rng
        if self.seed is not None:
            return random.Random(derive_seed(self.seed, self.label))
        return random.Random(0)


@dataclass
class SimReport:
    """One simulation's outcome.

    ``outputs`` is a per-node list for ``local`` / ``view`` / ``finite``
    requests and an ``{edge: label}`` dict for ``edge`` requests.
    ``halt_rounds`` is populated by the node kinds (``local`` /
    ``view``), ``failing_nodes`` by ``finite`` (``None`` elsewhere).  A
    ``finite`` request with a ``batch`` reports one ``outputs`` list and
    one ``failing_nodes`` list per trial, in order; a request with
    ``values`` is the batch of one, unwrapped.  Two reports are equal
    when every field is: what the differential suites compare.
    """

    kind: str
    outputs: Any
    rounds: int
    halt_rounds: Optional[List[Optional[int]]] = None
    failing_nodes: Optional[List[int]] = None

    def all_halted(self) -> bool:
        """Whether every node halted (vacuously true for view kinds)."""
        if self.halt_rounds is None:
            return True
        return all(r is not None for r in self.halt_rounds)


def simulate(request: SimRequest, tracer: Optional[Tracer] = None) -> SimReport:
    """Run one request on :class:`~repro.core.direct.DirectEngine`.

    The one entry point every call site shares.  ``tracer`` threads
    through unchanged — instrumented runs produce the exact same report
    as uninstrumented ones.  The engine is imported at call time
    because :mod:`repro.core.direct` imports this module.
    """
    from .direct import DirectEngine

    return DirectEngine().run(request, tracer=tracer)
