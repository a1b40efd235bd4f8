"""Intentionally-broken registrations that the fuzzer must catch.

The conformance subsystem's own acceptance test: an algorithm whose
``solves`` claim is *false*, registered on demand (never by
``ensure_builtins``), so the pipeline fuzz -> catch -> shrink ->
artifact -> replay can be exercised end to end.

:data:`BROKEN_MIS` claims :class:`repro.algorithms.view_rules.
LocalMaximumRule` solves MIS.  The rule's 1-nodes *are* independent
(two adjacent local maxima would each have to beat the other), but
nothing makes the set maximal — on a path with ascending identifiers
only the last node is marked, so interior nodes violate domination.
The minimal counterexample is a 3-node path, well under the 8-node
shrink target.

:data:`BROKEN_IMPLICIT` is the implicit-family analogue: a *correct*
algorithm fuzzed over :data:`BROKEN_IMPLICIT_FAMILY`, a registered
graph family whose materialized factory is the honest cycle but whose
``implicit_builder`` swaps the two ports of every node except 0 —
still a valid port numbering of the same cycle, so every structural
query looks plausible, but the packed ball streams cannot match the
materialized ones.  The fuzzer's ``implicit-identity`` check must flag
the partition divergence even though the port-insensitive algorithm's
outputs agree — proving a wrong closed form cannot hide behind a
forgiving algorithm.
"""

from __future__ import annotations

from ..core.registry import ALGORITHMS

__all__ = [
    "BROKEN_MIS",
    "BROKEN_IMPLICIT",
    "BROKEN_IMPLICIT_FAMILY",
    "register_broken_fixture",
    "register_broken_implicit_fixture",
]

#: Registry name of the broken fixture algorithm.
BROKEN_MIS = "broken-mis-claim"

#: Registry name of the broken-implicit-family fixture algorithm.
BROKEN_IMPLICIT = "broken-implicit-views"

#: Graph-family registry name of the wrong-port implicit cycle.
BROKEN_IMPLICIT_FAMILY = "broken-implicit-cycle"


def _make_broken_mis(radius: int = 1):
    from ..algorithms.view_rules import LocalMaximumRule

    return LocalMaximumRule(radius=radius)


def register_broken_fixture() -> None:
    """Register :data:`BROKEN_MIS` (idempotent; flagged ``fixture``).

    :func:`repro.conformance.contracts.collect_contracts` skips
    ``fixture``-flagged entries unless asked for them, so registering
    the fixture never contaminates a production fuzz run.
    """
    if BROKEN_MIS in ALGORITHMS:
        return
    ALGORITHMS.add(
        BROKEN_MIS,
        _make_broken_mis,
        kind="view",
        needs="ids",
        solves=("mis", {}),
        domains=(
            {"graph": "path", "n": (6, 16)},
            {"graph": "cycle", "n": (6, 16)},
        ),
        invariances=("determinism", "port-permutation", "label-order"),
        fixture=True,
        description="FIXTURE: falsely claims local-max solves MIS",
    )


_BROKEN_IMPLICIT_CLASS = None


def _broken_implicit_cycle_class():
    """The wrong-port implicit cycle class, built once (lazy import)."""
    global _BROKEN_IMPLICIT_CLASS
    if _BROKEN_IMPLICIT_CLASS is None:
        from ..graphs.implicit import ImplicitCycle

        class _BrokenPortImplicitCycle(ImplicitCycle):
            """FIXTURE: ports swapped for every node except 0.

            The honest closed form gives node ``v >= 1`` the row
            ``(v-1, v+1 mod n)``; this one returns ``(v+1 mod n, v-1)``
            — the same cycle under a *different* (valid) port
            numbering, so only the packed ball streams betray it.
            """

            def _row(self, v):
                honest = super()._row(v)
                if v == 0:
                    return honest
                return (honest[1], honest[0])

        _BROKEN_IMPLICIT_CLASS = _BrokenPortImplicitCycle
    return _BROKEN_IMPLICIT_CLASS


def register_broken_implicit_fixture() -> None:
    """Register :data:`BROKEN_IMPLICIT` + its family (idempotent).

    The family's materialized factory is the honest
    :func:`repro.graphs.generators.cycle`; only its registered
    ``implicit_builder`` plants the wrong port numbering.  The
    algorithm is the correct port-insensitive local-max rule, so the
    reports agree and *only* the ``implicit-identity`` partition
    comparison can catch the drift.  Flagged ``fixture`` like
    :data:`BROKEN_MIS`, so production fuzz runs never see it.
    """
    from ..core.registry import GRAPH_FAMILIES

    if BROKEN_IMPLICIT_FAMILY not in GRAPH_FAMILIES:
        from ..graphs.generators import cycle

        GRAPH_FAMILIES.add(
            BROKEN_IMPLICIT_FAMILY,
            cycle,
            params=("n",),
            implicit=True,
            implicit_builder=_broken_implicit_cycle_class(),
            fixture=True,
            description="FIXTURE: implicit cycle with swapped ports",
        )
    if BROKEN_IMPLICIT in ALGORITHMS:
        return
    ALGORITHMS.add(
        BROKEN_IMPLICIT,
        _make_broken_mis,
        kind="view",
        needs="ids",
        domains=(
            {"graph": BROKEN_IMPLICIT_FAMILY, "n": (6, 16)},
        ),
        fixture=True,
        description="FIXTURE: graph family whose implicit twin swaps ports",
    )
