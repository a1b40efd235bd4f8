"""The contract layer: what each registered algorithm claims to do.

Every entry in :data:`repro.core.registry.ALGORITHMS` that declares
``domains`` metadata is a *contract*: a claim of the paper's shape
"algorithm A solves LCL P on graph family F" (Rozhoň's framing —
a solution *is* a locally verifiable labeling), plus the metamorphic
invariances the implementation promises.  The conformance fuzzer
samples randomized cases from those declarations and checks every
claim; this module only reads and normalizes the metadata.

Declaration vocabulary (registry metadata keys):

``solves=(problem_name, kwargs)``
    The LCL in :data:`repro.core.registry.PROBLEMS` whose verifier
    judges the output (``verifier`` is the accepted legacy spelling).
    Kwarg values of the form ``"auto:max-degree+1"`` are resolved
    against the concrete sampled graph.
``domains=({...}, ...)``
    Valid graph sampling domains.  Each dict names a registered graph
    family under ``"graph"``; every other key is a family parameter
    given either as a fixed value or as an inclusive integer range
    ``(lo, hi)`` / ``(lo, hi, step)``.
``fuzz_params={...}``
    Algorithm-constructor parameters to sample, same range syntax.
``invariances=(...)``
    Checks from :data:`KNOWN_INVARIANCES` this entry promises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.registry import ALGORITHMS, PROBLEMS, ensure_builtins

__all__ = [
    "KNOWN_INVARIANCES",
    "Contract",
    "collect_contracts",
    "contract_for",
    "sample_range",
    "resolve_auto",
]

#: Metamorphic checks an entry may promise.  ``determinism`` is
#: checked for every contract regardless; ``port-permutation`` and
#: ``label-order`` only when declared.
KNOWN_INVARIANCES = (
    "determinism",
    "port-permutation",
    "label-order",
)


@dataclass(frozen=True)
class Contract:
    """One fuzzable claim, normalized from registry metadata."""

    algorithm: str
    kind: str  # "local" | "view" | "edge" | "finite"
    needs_ids: bool
    needs_randomness: bool
    solves: Optional[Tuple[str, Mapping[str, Any]]]
    domains: Tuple[Mapping[str, Any], ...]
    fuzz_params: Mapping[str, Any] = field(default_factory=dict)
    invariances: Tuple[str, ...] = ("determinism",)

    def verifier(self, graph: Any) -> Optional[Any]:
        """The LCL verifier instance judging outputs on ``graph``.

        ``None`` when the contract declares no ``solves`` (the fuzzer
        then checks only halting, determinism, and invariances — which is
        all an edge rule *can* promise; no constant-round edge rule
        solves the paper's edge LCLs).
        """
        if self.solves is None:
            return None
        name, kwargs = self.solves
        resolved = {k: resolve_auto(v, graph) for k, v in kwargs.items()}
        return PROBLEMS.create(name, **resolved)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (embedded in repro artifacts)."""
        return {
            "algorithm": self.algorithm,
            "kind": self.kind,
            "needs_ids": self.needs_ids,
            "needs_randomness": self.needs_randomness,
            "solves": [self.solves[0], dict(self.solves[1])]
            if self.solves
            else None,
            "invariances": list(self.invariances),
        }


def resolve_auto(value: Any, graph: Any) -> Any:
    """Resolve an ``"auto:..."`` verifier kwarg against a concrete graph."""
    if not (isinstance(value, str) and value.startswith("auto:")):
        return value
    rule = value[len("auto:"):]
    if rule == "max-degree+1":
        return graph.max_degree() + 1
    raise ValueError(f"unknown auto verifier parameter {value!r}")


def sample_range(spec: Any, rng: random.Random) -> Any:
    """One value from a domain/fuzz-param spec.

    Tuples/lists are inclusive integer ranges ``(lo, hi)`` or
    ``(lo, hi, step)``; anything else is a fixed value.
    """
    if isinstance(spec, (tuple, list)):
        if len(spec) == 2:
            lo, hi = spec
            return rng.randrange(lo, hi + 1)
        if len(spec) == 3:
            lo, hi, step = spec
            return rng.choice(range(lo, hi + 1, step))
        raise ValueError(f"range spec must be (lo, hi[, step]), got {spec!r}")
    return spec


def _contract_from_entry(entry: Any) -> Optional[Contract]:
    metadata = entry.metadata
    domains = tuple(metadata.get("domains", ()))
    if not domains:
        return None  # not fuzzable (e.g. cole-vishkin-mp needs inputs)
    kind = metadata.get("kind")
    needs = metadata.get("needs", "")
    solves = metadata.get("solves", metadata.get("verifier"))
    invariances = tuple(metadata.get("invariances", ("determinism",)))
    unknown = [i for i in invariances if i not in KNOWN_INVARIANCES]
    if unknown:
        raise ValueError(
            f"algorithm {entry.name!r} declares unknown invariances "
            f"{unknown} (known: {KNOWN_INVARIANCES})"
        )
    return Contract(
        algorithm=entry.name,
        kind=kind,
        needs_ids=bool(metadata.get("needs_ids")) or needs == "ids",
        needs_randomness=(needs == "randomness"),
        solves=(solves[0], dict(solves[1])) if solves else None,
        domains=domains,
        fuzz_params=dict(metadata.get("fuzz_params", {})),
        invariances=invariances,
    )


def collect_contracts(include_fixtures: bool = False) -> List[Contract]:
    """Every fuzzable contract currently registered, sorted by name.

    Registered test fixtures (entries flagged ``fixture=True``, see
    :func:`repro.conformance.fixtures.register_broken_fixture`) are
    skipped unless ``include_fixtures`` — a self-test's intentionally
    broken claim must never contaminate a production fuzz run.
    """
    ensure_builtins()
    contracts = []
    for entry in ALGORITHMS.entries():
        if entry.metadata.get("fixture") and not include_fixtures:
            continue
        contract = _contract_from_entry(entry)
        if contract is not None:
            contracts.append(contract)
    return contracts


def contract_for(algorithm: str) -> Contract:
    """The contract of one registered algorithm, by name."""
    ensure_builtins()
    contract = _contract_from_entry(ALGORITHMS.get(algorithm))
    if contract is None:
        raise ValueError(
            f"algorithm {algorithm!r} declares no conformance domains"
        )
    return contract
