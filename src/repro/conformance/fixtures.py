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

:data:`BROKEN_KERNEL` is the layout analogue (see
``docs/KERNELS.md``): a subclass of the honest rule whose *registered
view kernel* inverts every class output, declared with
``layouts=("dict", "kernel")`` — so the ``layout-identity`` check must
flag the divergence between the reference path and the kernel layout.
Kernel registration resolves along the MRO (the subclass's planted
kernel shadows the parent's honest one), which is exactly the override
point a real kernel author would use.

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

:data:`BROKEN_TRIAL` is the finite-kind analogue: a
:class:`~repro.speedup.algorithms.NodeAlgorithm` subclass whose honest
``evaluate`` is the radius-1 local-maximum starter but whose
*registered finite kernel* silently flips one trial's success — it
runs the honest distinct-assignment kernel, then drops the last
failing node (or invents one when the trial succeeded).  Declared with
the finite layout axis ``("kernel",)``, so the fuzzer's
``layout-identity`` check must flag the divergence between the batched
kernel and the reference per-node loop — proving a kernel that
miscounts even one trial cannot survive the pipeline.
"""

from __future__ import annotations

import numpy as np

from ..core.registry import ALGORITHMS

__all__ = [
    "BROKEN_MIS",
    "BROKEN_KERNEL",
    "BROKEN_IMPLICIT",
    "BROKEN_IMPLICIT_FAMILY",
    "BROKEN_TRIAL",
    "register_broken_fixture",
    "register_broken_kernel_fixture",
    "register_broken_implicit_fixture",
    "register_broken_trial_fixture",
]

#: Registry name of the broken fixture algorithm.
BROKEN_MIS = "broken-mis-claim"

#: Registry name of the broken-view-kernel fixture algorithm.
BROKEN_KERNEL = "broken-kernel-views"

#: Registry name of the broken-implicit-family fixture algorithm.
BROKEN_IMPLICIT = "broken-implicit-views"

#: Graph-family registry name of the wrong-port implicit cycle.
BROKEN_IMPLICIT_FAMILY = "broken-implicit-cycle"

#: Registry name of the trial-flipping finite-kernel fixture algorithm.
BROKEN_TRIAL = "broken-trial-kernel"


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


_INVERTED_RULE_CLASS = None


def _inverted_kernel_rule_class():
    """The planted-kernel rule class, built (and registered) once.

    Lazy like :func:`_make_broken_mis` so importing this module never
    pulls the algorithms package in; the class body is where the MRO
    shadowing happens — the subclass's registered kernel wins the
    lookup over :class:`LocalMaximumRule`'s honest one.
    """
    global _INVERTED_RULE_CLASS
    if _INVERTED_RULE_CLASS is None:
        from ..algorithms.view_rules import LocalMaximumRule
        from ..local_model.kernels import register_view_kernel

        class _InvertedKernelRule(LocalMaximumRule):
            """Honest ``output``; deliberately wrong registered kernel."""

        @register_view_kernel(_InvertedKernelRule)
        def _inverted_kernel(algorithm, rows):
            honest = rows.segment_max("ids") == rows.center("ids")
            return (~honest).astype(np.int64).tolist()

        _INVERTED_RULE_CLASS = _InvertedKernelRule
    return _INVERTED_RULE_CLASS


def _make_broken_kernel(radius: int = 1):
    return _inverted_kernel_rule_class()(radius=radius)


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
    comparison can catch the drift.  Flagged ``fixture`` like the
    others, so production fuzz runs never see it.
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


_BROKEN_TRIAL_CLASS = None


def _broken_trial_algorithm_class():
    """The trial-flipping algorithm class, built (and registered) once.

    Lazy like :func:`_inverted_kernel_rule_class`; the finite-kernel
    registration on the subclass MRO-shadows the honest default kernel
    registered on :class:`~repro.speedup.algorithms.NodeAlgorithm` —
    the same override point a real finite-kernel author would use.
    """
    global _BROKEN_TRIAL_CLASS
    if _BROKEN_TRIAL_CLASS is None:
        from ..algorithms.kernels import node_algorithm_finite_kernel
        from ..local_model.kernels import register_finite_kernel
        from ..speedup.algorithms import NodeAlgorithm

        class _TrialFlippingAlgorithm(NodeAlgorithm):
            """Honest ``evaluate``; deliberately wrong finite kernel."""

        @register_finite_kernel(_TrialFlippingAlgorithm)
        def _flipping_kernel(algorithm, graph, values, tables):
            outputs, failing = node_algorithm_finite_kernel(
                algorithm, graph, values, tables
            )
            # Flip the trial's success: a failing run sheds its last
            # witness (possibly becoming "successful"), a successful
            # one gains a phantom.
            return outputs, (failing[:-1] if failing else [0])

        _BROKEN_TRIAL_CLASS = _TrialFlippingAlgorithm
    return _BROKEN_TRIAL_CLASS


def _make_broken_trial(k: int = 2, bits: int = 1):
    from ..speedup.algorithms import local_maximum_coloring

    honest = local_maximum_coloring(k, bits)
    return _broken_trial_algorithm_class()(
        k, 1, bits, 2, honest.fn, name=BROKEN_TRIAL
    )


def register_broken_trial_fixture() -> None:
    """Register :data:`BROKEN_TRIAL` (idempotent; flagged ``fixture``).

    The contract mirrors the production finite contracts (oriented
    tori, ``k`` pinned to 2); only the registered finite kernel is
    broken, so the ``layout-identity`` check's kernel-versus-reference
    comparison is what must catch it.
    """
    if BROKEN_TRIAL in ALGORITHMS:
        return
    _broken_trial_algorithm_class()
    ALGORITHMS.add(
        BROKEN_TRIAL,
        _make_broken_trial,
        kind="finite",
        domains=({"graph": "torus", "rows": (3, 5), "cols": (3, 5)},),
        fuzz_params={"k": 2, "bits": (1, 2)},
        layouts=("kernel",),
        fixture=True,
        description="FIXTURE: registered finite kernel flips one trial",
    )


def register_broken_kernel_fixture() -> None:
    """Register :data:`BROKEN_KERNEL` (idempotent; flagged ``fixture``).

    The reference ``output`` is the honest local-max rule, so the
    ``"dict"`` layout computes correct results; the ``"kernel"`` layout
    runs the planted inverted kernel instead, and the fuzzer's
    ``layout-identity`` check must flag the divergence — proving a
    wrong registered kernel cannot survive the pipeline.
    """
    if BROKEN_KERNEL in ALGORITHMS:
        return
    _inverted_kernel_rule_class()
    ALGORITHMS.add(
        BROKEN_KERNEL,
        _make_broken_kernel,
        kind="view",
        needs="ids",
        domains=(
            {"graph": "path", "n": (6, 16)},
            {"graph": "cycle", "n": (6, 16)},
        ),
        layouts=("dict", "kernel"),
        fixture=True,
        description="FIXTURE: registered view kernel inverts the rule",
    )
