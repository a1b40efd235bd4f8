"""``python -m repro.conformance``: the conformance CLI.

Examples
--------
Fuzz every registered contract, 200 cases, fixed seed::

    python -m repro.conformance --cases 200 --seed 0

Shrink failures and write replayable artifacts::

    python -m repro.conformance --cases 200 --shrink --report artifacts

Self-test the pipeline end to end (broken fixture caught -> shrunk ->
artifact -> replayed)::

    python -m repro.conformance --self-test

Smoke just the finite kind (determinism)::

    python -m repro.conformance --cases 100 --seed 2 --kind finite

Exit status is 0 iff every requested pass succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .artifact import replay_artifact, write_repro_artifact
from .contracts import collect_contracts, contract_for
from .fixtures import BROKEN_MIS, register_broken_fixture
from .fuzzer import CHECK_NAMES, run_case, sample_cases
from .shrink import shrink_case

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Fuzz registered algorithm contracts.",
    )
    parser.add_argument("--cases", type=int, default=200,
                        help="number of fuzz cases, 0 to skip fuzzing "
                             "(default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; cases derive from it (default 0)")
    parser.add_argument("--shrink", action="store_true",
                        help="delta-debug failing cases to minimal repros")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the pipeline catches a broken fixture")
    parser.add_argument("--report", metavar="DIR", default=None,
                        help="directory for repro artifacts + summary.json")
    parser.add_argument("--list", action="store_true",
                        help="list fuzzable contracts and exit")
    parser.add_argument("--max-shrink-evals", type=int, default=400,
                        help="evaluation budget per shrink (default 400)")
    parser.add_argument("--checks", metavar="NAMES", default=None,
                        help="comma-separated checks to run (default: all); "
                             f"known: {', '.join(CHECK_NAMES)}")
    parser.add_argument("--kind", metavar="KIND", default=None,
                        choices=("local", "view", "edge", "finite"),
                        help="fuzz only contracts of one request kind "
                             "(default: all kinds)")
    return parser


def _parse_checks(spec: Optional[str]) -> Optional[set]:
    """``--checks a,b`` -> a validated set, ``None`` -> run everything."""
    if spec is None:
        return None
    names = {name.strip() for name in spec.split(",") if name.strip()}
    unknown = names - set(CHECK_NAMES)
    if unknown:
        raise SystemExit(
            f"unknown check name(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(CHECK_NAMES)})"
        )
    return names


def _list_contracts() -> int:
    for contract in collect_contracts():
        solves = (
            f"solves {contract.solves[0]}" if contract.solves else "no LCL"
        )
        print(
            f"{contract.algorithm:32s} kind={contract.kind:5s} {solves:28s} "
            f"domains={len(contract.domains)} "
            f"invariances={','.join(contract.invariances)}"
        )
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    contracts = collect_contracts()
    if args.kind:
        contracts = [c for c in contracts if c.kind == args.kind]
    if not contracts:
        print("no fuzzable contracts registered"
              + (f" for kind {args.kind!r}" if args.kind else ""))
        return 1
    checks = _parse_checks(args.checks)
    cases = sample_cases(contracts, args.cases, args.seed)
    failures = []
    for i, (contract, case) in enumerate(cases):
        result = run_case(contract, case, checks=checks)
        if result.ok:
            continue
        failures.append((i, result))
        for failure in result.failures:
            print(f"FAIL case {i} ({contract.algorithm}): {failure}")
        if args.shrink:
            shrunk = shrink_case(
                contract, case, result.failed_checks(),
                max_evaluations=args.max_shrink_evals,
            )
            print(f"  {shrunk.summary()}")
            if args.report:
                path = write_repro_artifact(
                    args.report, contract, shrunk.case, shrunk.failures
                )
                print(f"  repro artifact: {path}")
    scope = f" (checks: {', '.join(sorted(checks))})" if checks else ""
    print(
        f"conformance: {len(cases) - len(failures)}/{len(cases)} cases "
        f"passed across {len(contracts)} contracts{scope}"
    )
    return 1 if failures else 0


def _run_self_test(args: argparse.Namespace) -> int:
    """Prove the pipeline catches, shrinks, and replays a planted bug."""
    register_broken_fixture()
    contract = contract_for(BROKEN_MIS)
    caught = None
    for _, case in sample_cases([contract], 20, args.seed):
        result = run_case(contract, case)
        if "verifier" in result.failed_checks():
            caught = (case, result)
            break
    if caught is None:
        print("self-test FAIL: broken fixture was never caught")
        return 1
    case, result = caught
    shrunk = shrink_case(
        contract, case, {"verifier"},
        max_evaluations=args.max_shrink_evals,
    )
    if shrunk.nodes > 8:
        print(f"self-test FAIL: shrunk to {shrunk.nodes} nodes (> 8)")
        return 1
    directory = args.report or "conformance-artifacts"
    path = write_repro_artifact(
        directory, contract, shrunk.case, shrunk.failures
    )
    replayed = replay_artifact(path)
    if "verifier" not in replayed.failed_checks():
        print(f"self-test FAIL: artifact {path} does not reproduce")
        return 1
    print(
        f"self-test ok: fixture caught, shrunk to {shrunk.nodes} nodes, "
        f"replayed from {path}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.cases < 0:
        parser.error(f"--cases must be >= 0, got {args.cases}")
    if args.list:
        return _list_contracts()
    codes = [_run_fuzz(args)] if args.cases > 0 else []
    if args.self_test:
        codes.append(_run_self_test(args))
    if args.report:
        os.makedirs(args.report, exist_ok=True)
        summary = {
            "cases": args.cases,
            "seed": args.seed,
            "exit_code": max(codes) if codes else 0,
        }
        with open(os.path.join(args.report, "conformance-summary.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return max(codes) if codes else 0


if __name__ == "__main__":
    sys.exit(main())
