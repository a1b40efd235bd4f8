"""Tests for the conformance subsystem (contracts, fuzzer, shrinker, CLI).

Covers the contract layer, case sampling/materialization, the check
battery on known-good algorithms, shrinking of the planted broken
fixture, repro artifacts, and the ``python -m repro.conformance`` entry
point.
"""

import json
import random

import pytest

from repro.conformance import (
    BROKEN_MIS,
    CaseSpec,
    collect_contracts,
    contract_for,
    explicit_case,
    load_repro_artifact,
    materialize_case,
    minimal_repro,
    register_broken_fixture,
    replay_artifact,
    run_case,
    sample_cases,
    shrink_case,
    write_repro_artifact,
)
from repro.conformance.contracts import resolve_auto, sample_range
from repro.conformance.fuzzer import CheckFailure
from repro.conformance.__main__ import main as conformance_main
from repro.core.engine import derive_seed
from repro.graphs.generators import path

EXPECTED_CONTRACTS = {
    "luby-mis",
    "greedy-sequential-coloring",
    "randomized-weak-coloring",
    "flood-leader-parity",
    "local-max",
    "random-priority",
    "ball-signature",
    "degree-profile",
    "edge-profile",
    "edge-parity",
    "finite-local-maximum",
    "finite-smaller-count",
}


def _path_adjacency(n):
    graph = path(n)
    return [list(graph.neighbors(v)) for v in graph.nodes()]


def _broken_case(n=10):
    # Ascending ids on a path: only the last node is a local maximum,
    # so the false "solves MIS" claim fails at every interior node.
    return CaseSpec(
        algorithm=BROKEN_MIS,
        seed=derive_seed(0, "broken-case"),
        adjacency=_path_adjacency(n),
        ids=list(range(1, n + 1)),
    )


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------


class TestContracts:
    def test_collect_contracts_matches_registry(self):
        names = {c.algorithm for c in collect_contracts()}
        assert names == EXPECTED_CONTRACTS

    def test_entries_without_domains_are_not_fuzzable(self):
        names = {c.algorithm for c in collect_contracts()}
        assert "cole-vishkin-mp" not in names  # needs an input coloring
        with pytest.raises(ValueError, match="no conformance domains"):
            contract_for("cole-vishkin-mp")

    def test_fixtures_are_excluded_unless_asked(self):
        register_broken_fixture()
        assert BROKEN_MIS not in {c.algorithm for c in collect_contracts()}
        with_fixtures = {
            c.algorithm for c in collect_contracts(include_fixtures=True)
        }
        assert BROKEN_MIS in with_fixtures

    def test_register_broken_fixture_is_idempotent(self):
        register_broken_fixture()
        register_broken_fixture()
        assert contract_for(BROKEN_MIS).solves[0] == "mis"

    def test_contract_shape(self):
        contract = contract_for("luby-mis")
        assert contract.kind == "local"
        assert contract.solves == ("mis", {})
        assert contract.domains
        assert set(contract.invariances) <= {
            "determinism", "port-permutation", "label-order",
        }

    def test_contract_snapshot_keys(self):
        # The artifact snapshot names exactly the axes the fuzzer runs.
        assert set(contract_for("ball-signature").to_dict()) == {
            "algorithm", "kind", "needs_ids", "needs_randomness",
            "solves", "invariances",
        }

    def test_auto_verifier_kwarg_resolves_against_graph(self):
        contract = contract_for("greedy-sequential-coloring")
        verifier = contract.verifier(path(4))  # max degree 2
        assert verifier.colors == 3

    def test_resolve_auto(self):
        assert resolve_auto("auto:max-degree+1", path(5)) == 3
        assert resolve_auto(7, path(5)) == 7
        assert resolve_auto("plain-string", path(5)) == "plain-string"
        with pytest.raises(ValueError, match="unknown auto"):
            resolve_auto("auto:chromatic-number", path(5))

    def test_sample_range(self):
        rng = random.Random(0)
        assert all(2 <= sample_range((2, 5), rng) <= 5 for _ in range(20))
        assert all(sample_range((4, 16, 2), rng) % 2 == 0 for _ in range(20))
        assert sample_range("cycle", rng) == "cycle"
        with pytest.raises(ValueError, match="range spec"):
            sample_range((1, 2, 3, 4), rng)


# ---------------------------------------------------------------------------
# sampling + materialization
# ---------------------------------------------------------------------------


class TestSampling:
    def test_sample_cases_is_seed_deterministic(self):
        contracts = collect_contracts()
        a = sample_cases(contracts, 12, base_seed=7)
        b = sample_cases(contracts, 12, base_seed=7)
        assert [case.to_dict() for _, case in a] == [
            case.to_dict() for _, case in b
        ]
        c = sample_cases(contracts, 12, base_seed=8)
        assert [case.to_dict() for _, case in a] != [
            case.to_dict() for _, case in c
        ]

    def test_sample_cases_round_robins_contracts(self):
        contracts = collect_contracts()
        cases = sample_cases(contracts, 2 * len(contracts), base_seed=0)
        seen = [contract.algorithm for contract, _ in cases]
        assert seen == 2 * [c.algorithm for c in contracts]

    def test_sampled_params_respect_the_domain(self):
        contract = contract_for("flood-leader-parity")
        for _, case in sample_cases([contract], 30, base_seed=3):
            if case.graph_family == "cycle":
                assert case.graph_params["n"] % 2 == 0  # bipartite only

    def test_materialize_is_deterministic(self):
        contract = contract_for("luby-mis")
        (_, case), = sample_cases([contract], 1, base_seed=5)
        g1, ids1, rand1 = materialize_case(contract, case)
        g2, ids2, rand2 = materialize_case(contract, case)
        rows = [list(g1.neighbors(v)) for v in g1.nodes()]
        assert rows == [list(g2.neighbors(v)) for v in g2.nodes()]
        assert ids1 == ids2
        assert rand1 == rand2

    def test_explicit_case_pins_everything(self):
        contract = contract_for("luby-mis")
        (_, case), = sample_cases([contract], 1, base_seed=5)
        pinned = explicit_case(contract, case)
        assert pinned.adjacency is not None
        assert pinned.ids is not None
        graph, ids, randomness = materialize_case(contract, case)
        pg, pids, prand = materialize_case(contract, pinned)
        assert [list(pg.neighbors(v)) for v in pg.nodes()] == [
            list(graph.neighbors(v)) for v in graph.nodes()
        ]
        assert pids == ids
        assert prand == randomness

    def test_case_spec_json_round_trip(self):
        case = _broken_case(4)
        again = CaseSpec.from_dict(
            json.loads(json.dumps(case.to_dict()))
        )
        assert again.to_dict() == case.to_dict()


# ---------------------------------------------------------------------------
# run_case
# ---------------------------------------------------------------------------


class TestRunCase:
    def test_known_good_contracts_pass(self):
        contracts = collect_contracts()
        for contract, case in sample_cases(contracts, len(contracts), 0):
            result = run_case(contract, case)
            assert result.ok, (contract.algorithm, result.failures)

    def test_broken_fixture_fails_the_verifier(self):
        register_broken_fixture()
        result = run_case(contract_for(BROKEN_MIS), _broken_case())
        assert "verifier" in result.failed_checks()
        assert not result.ok

    def test_checks_subset_restricts_what_runs(self):
        register_broken_fixture()
        result = run_case(
            contract_for(BROKEN_MIS), _broken_case(),
            checks={"determinism"},
        )
        assert result.ok  # the verifier bug is invisible to this check

    def test_crash_is_a_finding_not_an_abort(self):
        contract = contract_for("luby-mis")
        bad = CaseSpec(algorithm="luby-mis", seed=0,
                       graph_family="no-such-family")
        result = run_case(contract, bad)
        assert result.failed_checks() == {"crash"}

    def test_check_failure_formatting(self):
        failure = CheckFailure("verifier", "node 3 violates mis")
        assert str(failure) == "[verifier] node 3 violates mis"


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


class TestShrink:
    def test_broken_fixture_shrinks_to_three_node_path(self):
        register_broken_fixture()
        contract = contract_for(BROKEN_MIS)
        shrunk = shrink_case(contract, _broken_case(), {"verifier"})
        # 1- and 2-node graphs always satisfy the claim (an isolated or
        # top-id node is a local maximum), so 3 nodes / 2 edges is the
        # true minimum — the shrinker must reach it, not approximate it.
        assert shrunk.nodes == 3
        assert shrunk.edges == 2
        assert {f.check for f in shrunk.failures} == {"verifier"}
        replay = run_case(contract, shrunk.case)
        assert "verifier" in replay.failed_checks()

    def test_shrink_respects_evaluation_budget(self):
        register_broken_fixture()
        shrunk = shrink_case(
            contract_for(BROKEN_MIS), _broken_case(), {"verifier"},
            max_evaluations=3,
        )
        assert shrunk.evaluations <= 3
        assert shrunk.nodes >= 3  # best-so-far, not necessarily minimal

    def test_shrink_of_passing_case_returns_immediately(self):
        contract = contract_for("luby-mis")
        (_, case), = sample_cases([contract], 1, base_seed=0)
        shrunk = shrink_case(contract, case, {"verifier"})
        assert shrunk.evaluations == 1
        assert shrunk.failures == []

    def test_minimal_repro_convenience(self):
        register_broken_fixture()
        assert minimal_repro(contract_for(BROKEN_MIS), _broken_case())
        contract = contract_for("degree-profile")
        (_, good), = sample_cases([contract], 1, base_seed=0)
        assert minimal_repro(contract, good) is None

    def test_shrink_summary_mentions_size(self):
        register_broken_fixture()
        shrunk = shrink_case(
            contract_for(BROKEN_MIS), _broken_case(), {"verifier"}
        )
        assert "3 nodes" in shrunk.summary()


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_write_load_replay_round_trip(self, tmp_path):
        register_broken_fixture()
        contract = contract_for(BROKEN_MIS)
        shrunk = shrink_case(contract, _broken_case(), {"verifier"})
        artifact = write_repro_artifact(
            str(tmp_path), contract, shrunk.case, shrunk.failures
        )
        payload, case = load_repro_artifact(artifact)
        assert payload["contract"]["algorithm"] == BROKEN_MIS
        assert payload["failures"][0]["check"] == "verifier"
        assert case.adjacency == shrunk.case.adjacency
        replayed = replay_artifact(artifact)
        assert "verifier" in replayed.failed_checks()

    def test_artifact_from_the_delta_era_still_replays(self, tmp_path):
        # Artifacts written while the delta-identity axis, the cached
        # backend, the layout axis or the implicit families existed
        # carry a ``deltas`` key, a ``backend-identity`` invariance (and
        # failed check), a ``layouts`` list or a failed
        # ``implicit-identity`` check in their snapshot; replay reads
        # only the case spec and re-runs the live contract's checks, so
        # they keep reproducing their finding.
        register_broken_fixture()
        contract = contract_for(BROKEN_MIS)
        artifact = write_repro_artifact(
            str(tmp_path), contract, _broken_case(4),
            [CheckFailure("verifier", "planted"),
             CheckFailure("backend-identity", "direct vs cached"),
             CheckFailure("implicit-identity", "closed-form drift")],
        )
        with open(artifact, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["contract"]["deltas"] = 2
        payload["contract"]["invariances"].insert(1, "backend-identity")
        payload["contract"]["layouts"] = ["dict", "csr", "kernel"]
        with open(artifact, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        replayed = replay_artifact(artifact)
        assert replayed.failed_checks() == {"verifier"}

    def test_unknown_schema_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ValueError, match="unknown schema"):
            load_repro_artifact(str(bad))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_list_exits_clean(self, capsys):
        assert conformance_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_CONTRACTS:
            assert name in out

    def test_small_fuzz_run_passes(self, capsys):
        assert conformance_main(["--cases", "10", "--seed", "0"]) == 0
        assert "10/10 cases passed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--cases", "-5"],
        ["--faults"],  # the retired fault-injection suite
    ], ids=["negative-cases", "retired-faults"])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            conformance_main(argv)
        assert exc.value.code == 2

    def test_retired_delta_check_is_an_unknown_name(self):
        for retired in ("delta-identity", "backend-identity",
                        "layout-identity", "implicit-identity"):
            with pytest.raises(
                SystemExit, match=f"unknown check name\\(s\\): {retired}"
            ):
                conformance_main(["--cases", "1", "--checks", retired])

    def test_self_test_catches_shrinks_and_replays(self, tmp_path, capsys):
        code = conformance_main([
            "--cases", "0", "--self-test", "--report", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # One stage, for the one planted fixture: the MIS claim.
        assert out.count("self-test ok") == 1
        summary = json.loads(
            (tmp_path / "conformance-summary.json").read_text()
        )
        assert summary["exit_code"] == 0
        artifacts = list(tmp_path.glob("conformance-repro-*.json"))
        assert artifacts, "self-test must leave a replayable artifact"
