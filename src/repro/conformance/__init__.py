"""Conformance subsystem: registry-driven fuzzing of algorithm contracts.

Every algorithm registry entry that declares ``solves=`` and
``domains=`` metadata is a testable claim — "algorithm A solves LCL P
on family F" — and this package checks all of them mechanically:

* :mod:`~repro.conformance.contracts` reads the declarations;
* :mod:`~repro.conformance.fuzzer` samples randomized cases and checks
  halting, the LCL verifier, determinism, and declared metamorphic
  invariances;
* :mod:`~repro.conformance.shrink` delta-debugs failures to minimal
  counterexamples;
* :mod:`~repro.conformance.artifact` writes/replays JSON repro files;
* ``python -m repro.conformance`` drives it all (see
  ``docs/CONFORMANCE.md``).
"""

from .artifact import (
    REPRO_SCHEMA,
    load_repro_artifact,
    replay_artifact,
    write_repro_artifact,
)
from .contracts import (
    KNOWN_INVARIANCES,
    Contract,
    collect_contracts,
    contract_for,
)
from .fixtures import BROKEN_MIS, register_broken_fixture
from .fuzzer import (
    CaseResult,
    CaseSpec,
    CheckFailure,
    explicit_case,
    materialize_case,
    run_case,
    sample_cases,
)
from .shrink import ShrinkResult, minimal_repro, shrink_case

__all__ = [
    "BROKEN_MIS",
    "KNOWN_INVARIANCES",
    "REPRO_SCHEMA",
    "CaseResult",
    "CaseSpec",
    "CheckFailure",
    "Contract",
    "ShrinkResult",
    "collect_contracts",
    "contract_for",
    "explicit_case",
    "load_repro_artifact",
    "materialize_case",
    "minimal_repro",
    "register_broken_fixture",
    "replay_artifact",
    "run_case",
    "sample_cases",
    "shrink_case",
    "write_repro_artifact",
]
