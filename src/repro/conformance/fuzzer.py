"""The fuzz driver: sample cases from contracts, check every claim.

A *case* is one fully-described execution: an algorithm, a graph (by
family + parameters, or — after shrinking — by explicit adjacency), a
seed, and explicit labelings.  :func:`run_case` runs it through
:func:`~repro.core.engine.simulate` and checks:

``halts``
    Every node committed an output (view kinds halt by construction).
``verifier``
    The declared LCL verifier accepts the output labeling — the paper's
    "solution = locally verifiable labeling" made executable.
``determinism``
    Re-running the same request bit-reproduces the report
    (:meth:`~repro.core.SimReport.identity`).
``port-permutation`` (when the contract declares it)
    Outputs are unchanged when every node's ports are shuffled — the
    LOCAL model's port numbering is adversarial, so an algorithm that
    does not read ports must not depend on them.
``label-order`` (when the contract declares it)
    Outputs are unchanged under a strictly monotone remapping of
    identifiers and randomness — the Naor–Stockmeyer order-invariance
    property for algorithms that only *compare* labels.

Any exception inside a case is reported as a ``crash`` failure, never
propagated: a fuzzer that dies on the first broken case cannot shrink
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.engine import SimRequest, derive_seed, simulate
from ..core.registry import ALGORITHMS, GRAPH_FAMILIES, ensure_builtins
from ..graphs.graph import Graph
from ..graphs.identifiers import random_permutation_ids
from .contracts import Contract, sample_range

__all__ = [
    "CHECK_NAMES",
    "CaseSpec",
    "CheckFailure",
    "CaseResult",
    "sample_cases",
    "materialize_case",
    "explicit_case",
    "run_case",
]

#: Every check :func:`run_case` can run; the CLI's ``--checks`` flag
#: validates against this set (``crash`` is a failure kind, not a
#: selectable check).
CHECK_NAMES = (
    "halts", "verifier", "determinism", "port-permutation", "label-order",
)


@dataclass
class CaseSpec:
    """One sampled (or shrunk) conformance case, JSON-serializable.

    Either ``graph_family``/``graph_params`` name a registered family,
    or ``adjacency`` gives the port-numbered graph explicitly (the
    shrinker's output).  ``ids``/``randomness``, when set, override the
    seed-derived labelings — shrinking *projects* the original labels
    instead of re-deriving them, so each shrink step changes exactly
    one thing.
    """

    algorithm: str
    seed: int
    graph_family: str = ""
    graph_params: Dict[str, Any] = field(default_factory=dict)
    algorithm_params: Dict[str, Any] = field(default_factory=dict)
    adjacency: Optional[List[List[int]]] = None
    ids: Optional[List[int]] = None
    randomness: Optional[List[int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "graph_family": self.graph_family,
            "graph_params": dict(self.graph_params),
            "algorithm_params": dict(self.algorithm_params),
            "adjacency": self.adjacency,
            "ids": self.ids,
            "randomness": self.randomness,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CaseSpec":
        return cls(
            algorithm=data["algorithm"],
            seed=data["seed"],
            graph_family=data.get("graph_family", ""),
            graph_params=dict(data.get("graph_params", {})),
            algorithm_params=dict(data.get("algorithm_params", {})),
            adjacency=data.get("adjacency"),
            ids=data.get("ids"),
            randomness=data.get("randomness"),
        )


@dataclass(frozen=True)
class CheckFailure:
    """One failed conformance check."""

    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


@dataclass
class CaseResult:
    """Outcome of one case: empty ``failures`` means conformant."""

    contract: Contract
    case: CaseSpec
    failures: List[CheckFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_checks(self) -> Set[str]:
        return {f.check for f in self.failures}


def sample_cases(
    contracts: Sequence[Contract],
    count: int,
    base_seed: int,
) -> List[Tuple[Contract, CaseSpec]]:
    """``count`` cases, round-robin over contracts, fully seed-derived.

    Case ``i`` draws its graph domain, family parameters, and algorithm
    parameters from ``Random(derive_seed(base_seed, f"case-{i}"))`` —
    the repository's one seed scheme — so a (base_seed, i) pair is a
    complete reproduction recipe.
    """
    cases = []
    for i in range(count):
        contract = contracts[i % len(contracts)]
        rng = random.Random(derive_seed(base_seed, f"case-{i}"))
        domain = contract.domains[rng.randrange(len(contract.domains))]
        graph_params = {
            key: sample_range(spec, rng)
            for key, spec in domain.items()
            if key != "graph"
        }
        algorithm_params = {
            key: sample_range(spec, rng)
            for key, spec in contract.fuzz_params.items()
        }
        cases.append((contract, CaseSpec(
            algorithm=contract.algorithm,
            seed=derive_seed(base_seed, f"case-{i}:labels"),
            graph_family=domain["graph"],
            graph_params=graph_params,
            algorithm_params=algorithm_params,
        )))
    return cases


def materialize_case(
    contract: Contract, case: CaseSpec
) -> Tuple[Graph, Optional[List[int]], Optional[List[int]]]:
    """Build the concrete ``(graph, ids, randomness)`` a case describes.

    Labelings not pinned on the spec are derived from ``case.seed`` —
    deterministically, so two materializations agree exactly.
    """
    ensure_builtins()
    if case.adjacency is not None:
        graph = Graph.from_adjacency(case.adjacency).freeze()
    else:
        graph = GRAPH_FAMILIES.create(case.graph_family, **case.graph_params)
    rng = random.Random(derive_seed(case.seed, "conformance-labels"))
    ids = case.ids
    if ids is None and contract.needs_ids:
        ids = random_permutation_ids(graph, rng)
    randomness = case.randomness
    if randomness is None and contract.needs_randomness:
        randomness = [rng.getrandbits(32) for _ in graph.nodes()]
    return graph, ids, randomness


def explicit_case(contract: Contract, case: CaseSpec) -> CaseSpec:
    """The same case with graph and labelings pinned explicitly.

    This is the shrinker's starting point (and the repro artifact's
    payload): adjacency rows capture the exact port numbering, and
    ids/randomness are frozen so later projections never re-derive
    them.
    """
    graph, ids, randomness = materialize_case(contract, case)
    return CaseSpec(
        algorithm=case.algorithm,
        seed=case.seed,
        graph_family=case.graph_family,
        graph_params=dict(case.graph_params),
        algorithm_params=dict(case.algorithm_params),
        adjacency=[list(graph.neighbors(v)) for v in graph.nodes()],
        ids=list(ids) if ids is not None else None,
        randomness=list(randomness) if randomness is not None else None,
    )


def _build_request(
    contract: Contract,
    case: CaseSpec,
    graph: Graph,
    ids: Optional[List[int]],
    randomness: Optional[List[int]],
) -> SimRequest:
    algorithm = ALGORITHMS.create(case.algorithm, **case.algorithm_params)
    if contract.kind == "finite":
        # Finite requests run oriented-tree algorithms, so the case must
        # come from an orientable family: the orientation is rebuilt
        # from the graph parameters, and the per-node random values are
        # seed-derived (one draw per node, in evaluation order) so every
        # materialization of the same case agrees exactly.
        if case.adjacency is not None or case.graph_family != "torus":
            raise ValueError(
                "finite conformance cases must come from the 'torus' "
                "family (the orientation is derived from rows/cols)"
            )
        from ..graphs.orientation import orient_torus

        orientation = orient_torus(
            graph, case.graph_params["rows"], case.graph_params["cols"]
        )
        rng = random.Random(derive_seed(case.seed, "conformance-values"))
        values = [rng.randrange(algorithm.values) for _ in graph.nodes()]
        return SimRequest(
            kind="finite",
            graph=graph,
            algorithm=algorithm,
            orientation=orientation,
            values=values,
            seed=case.seed,
            label=f"conformance:{case.algorithm}",
        )
    return SimRequest(
        kind=contract.kind,
        graph=graph,
        algorithm=algorithm,
        ids=ids,
        randomness=randomness,
        seed=case.seed,
        label=f"conformance:{case.algorithm}",
    )


def _monotone(value: int) -> int:
    """A strictly increasing integer map (order kept, values changed)."""
    return 3 * value + 17


def _run_port_permuted(
    contract: Contract,
    case: CaseSpec,
    graph: Graph,
    ids: Optional[List[int]],
    randomness: Optional[List[int]],
) -> Any:
    rng = random.Random(derive_seed(case.seed, "port-permutation"))
    rows = [list(graph.neighbors(v)) for v in graph.nodes()]
    for row in rows:
        rng.shuffle(row)
    permuted = Graph.from_adjacency(rows).freeze()
    request = _build_request(contract, case, permuted, ids, randomness)
    return simulate(request)


def _run_label_mapped(
    contract: Contract,
    case: CaseSpec,
    graph: Graph,
    ids: Optional[List[int]],
    randomness: Optional[List[int]],
) -> Optional[Any]:
    mapped_ids = [_monotone(x) for x in ids] if ids is not None else None
    mapped_rand = (
        [_monotone(x) for x in randomness] if randomness is not None else None
    )
    if mapped_ids is None and mapped_rand is None:
        return None  # nothing to remap: the invariance is vacuous
    request = _build_request(contract, case, graph, mapped_ids, mapped_rand)
    return simulate(request)


def run_case(
    contract: Contract,
    case: CaseSpec,
    checks: Optional[Set[str]] = None,
) -> CaseResult:
    """Run one case; return every check failure (empty = conformant).

    ``checks`` restricts which checks run (the shrinker re-tests only
    the originally-failing ones); ``None`` runs them all.
    """
    failures: List[CheckFailure] = []

    def enabled(name: str) -> bool:
        return checks is None or name in checks

    try:
        graph, ids, randomness = materialize_case(contract, case)
        request = _build_request(contract, case, graph, ids, randomness)
        base = simulate(request)

        if enabled("halts") and not base.all_halted():
            stuck = [
                v for v, r in enumerate(base.halt_rounds or []) if r is None
            ]
            failures.append(CheckFailure(
                "halts", f"nodes never halted: {stuck[:8]}"
            ))
        if enabled("verifier") and contract.solves is not None:
            verifier = contract.verifier(graph)
            violations = verifier.verify(graph, base.outputs)
            if violations:
                summary = "; ".join(str(v) for v in violations[:4])
                failures.append(CheckFailure(
                    "verifier", f"{verifier.name}: {summary}"
                ))
        if enabled("determinism"):
            again = simulate(request)
            if again.identity() != base.identity():
                failures.append(CheckFailure(
                    "determinism", "same request, new outputs"
                ))
        if (
            enabled("port-permutation")
            and "port-permutation" in contract.invariances
        ):
            permuted = _run_port_permuted(
                contract, case, graph, ids, randomness
            )
            if permuted.outputs != base.outputs:
                failures.append(CheckFailure(
                    "port-permutation",
                    "outputs changed under a port renumbering",
                ))
        if enabled("label-order") and "label-order" in contract.invariances:
            mapped = _run_label_mapped(contract, case, graph, ids, randomness)
            if mapped is not None and mapped.outputs != base.outputs:
                failures.append(CheckFailure(
                    "label-order",
                    "outputs changed under a monotone label remapping",
                ))
    except Exception as exc:  # a crash is a finding, not a fuzzer abort
        failures.append(CheckFailure(
            "crash", f"{type(exc).__name__}: {exc}"
        ))
    return CaseResult(contract=contract, case=case, failures=failures)
