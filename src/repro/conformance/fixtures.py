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
"""

from __future__ import annotations

from ..core.registry import ALGORITHMS

__all__ = [
    "BROKEN_MIS",
    "register_broken_fixture",
]

#: Registry name of the broken fixture algorithm.
BROKEN_MIS = "broken-mis-claim"


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
