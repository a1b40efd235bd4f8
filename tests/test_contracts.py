"""Every registered algorithm contract, checked as a hypothesis property.

An ``ALGORITHMS`` entry that declares ``domains`` claims something of
the paper's shape: "algorithm A solves LCL P on graph family F".  An
LCL solution is a locally verifiable labeling, so the claim is checked
by running P's verifier; port numbering in the LOCAL model is
adversarial, so an entry promising ``port-permutation`` must not read
it.  One row per such entry draws a domain, its family parameters, the
entry's ``fuzz_params`` and the labelings it ``needs``, runs
:func:`~repro.core.simulate`, and checks (each assertion message names
its check):

``halts``
    every node committed an output;
``verifier``
    the ``solves`` LCL accepts the outputs, with
    ``"auto:max-degree+1"`` resolved against the drawn graph;
``determinism``
    the same request reproduces :meth:`~repro.core.SimReport.identity`;
``port-permutation`` (when declared)
    shuffling every adjacency row keeps the outputs;
``label-order`` (when declared)
    a strictly increasing map of ids and randomness keeps the outputs
    (Naor–Stockmeyer order-invariance).

Hypothesis generates the cases, shrinks them (graph parameters and
labels alike) and replays a failure from its example database.  CI's
derandomized ``ci`` profile (``tests/conftest.py``) pins the example
sequence, so exporting ``HYPOTHESIS_PROFILE=ci`` reproduces a red build.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.view_rules import LocalMaximumRule
from repro.core import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    PROBLEMS,
    RegistryEntry,
    SimRequest,
    ensure_builtins,
    simulate,
)
from repro.graphs import Graph
from repro.graphs.orientation import orient_torus

ensure_builtins()

#: Invariances an entry may declare; ``determinism`` is checked always.
KNOWN_INVARIANCES = ("determinism", "port-permutation", "label-order")

#: The labelings a local, view or edge entry may declare it ``needs``.
KNOWN_NEEDS = ("ids", "randomness", "none")

ROWS = [entry for entry in ALGORITHMS.entries() if entry.metadata.get("domains")]

WORDS = st.integers(0, 2**32 - 1)


def _draw_spec(draw, spec):
    """A fixed value, or one of the inclusive range ``(lo, hi[, step])``."""
    if not isinstance(spec, tuple):
        return spec
    lo, hi, *step = spec
    return draw(st.sampled_from(range(lo, hi + 1, *step)))


def _monotone(labels):
    """A strictly increasing map: order kept, every value changed."""
    return None if labels is None else [3 * x + 17 for x in labels]


def check_contract(entry, data):
    """Draw one case of ``entry``'s contract and check every claim."""
    meta, draw = entry.metadata, data.draw
    kind = meta["kind"]
    domain = draw(st.sampled_from(meta["domains"]))
    params = {k: _draw_spec(draw, s) for k, s in domain.items() if k != "graph"}
    graph = GRAPH_FAMILIES.create(domain["graph"], **params)
    fuzz = {k: _draw_spec(draw, s) for k, s in meta.get("fuzz_params", {}).items()}
    n = graph.n
    ids = randomness = None
    if meta.get("needs") == "ids":
        ids = draw(st.permutations(range(1, n + 1)))
    if meta.get("needs") == "randomness":
        randomness = draw(st.lists(WORDS, min_size=n, max_size=n))
    extra = {}
    if kind == "local":
        extra["seed"] = draw(WORDS)
    if kind == "finite":
        words = st.integers(0, entry.factory(**fuzz).values - 1)
        extra["orientation"] = orient_torus(graph, params["rows"], params["cols"])
        extra["values"] = draw(st.lists(words, min_size=n, max_size=n))

    def run(graph, ids=ids, randomness=randomness):
        return simulate(SimRequest(
            kind=kind, graph=graph, algorithm=entry.factory(**fuzz),
            ids=ids, randomness=randomness, **extra,
        ))

    report = run(graph)
    stuck = [v for v, r in enumerate(report.halt_rounds or ()) if r is None]
    assert not stuck, f"[halts] {entry.name}: nodes {stuck} never halted"
    if "solves" in meta:
        problem, kwargs = meta["solves"]
        auto = {"auto:max-degree+1": graph.max_degree() + 1}
        verifier = PROBLEMS.create(
            problem, **{k: auto.get(v, v) for k, v in kwargs.items()}
        )
        violations = verifier.verify(graph, report.outputs)
        assert not violations, (
            f"[verifier] {entry.name} does not solve {verifier.name}: "
            + "; ".join(str(v) for v in violations[:4])
        )
    assert run(graph).identity() == report.identity(), (
        f"[determinism] {entry.name}: the same request gave a new report"
    )
    invariances = meta.get("invariances", ())
    if "port-permutation" in invariances:
        rng = draw(st.randoms(use_true_random=True))
        rows = [rng.sample(row, len(row)) for row in graph.adjacency_rows()]
        shuffled = run(Graph.from_adjacency(rows).freeze())
        assert shuffled.outputs == report.outputs, (
            f"[port-permutation] {entry.name}: outputs changed under a "
            "port renumbering"
        )
    if "label-order" in invariances and (ids, randomness) != (None, None):
        mapped = run(graph, _monotone(ids), _monotone(randomness))
        assert mapped.outputs == report.outputs, (
            f"[label-order] {entry.name}: outputs changed under a strictly "
            "increasing map of the labels"
        )


@pytest.mark.parametrize("entry", ROWS, ids=[entry.name for entry in ROWS])
@given(data=st.data())
def test_registered_contract_holds(entry, data):
    check_contract(entry, data)


def test_rows_are_exactly_the_declared_contracts():
    assert [entry.name for entry in ROWS] == [
        "ball-signature",
        "degree-profile",
        "edge-parity",
        "edge-profile",
        "finite-local-maximum",
        "finite-smaller-count",
        "flood-leader-parity",
        "greedy-sequential-coloring",
        "local-max",
        "luby-mis",
        "random-priority",
        "randomized-weak-coloring",
    ]


def test_entries_without_domains_have_no_row():
    # cole-vishkin-mp needs an input coloring, so it declares no domains.
    assert not ALGORITHMS.get("cole-vishkin-mp").metadata.get("domains")
    assert "cole-vishkin-mp" not in {entry.name for entry in ROWS}


def test_row_declarations_resolve():
    # Every row names a registered LCL and graph family, and every
    # range spec is a non-empty (lo, hi[, step]).
    for entry in ROWS:
        meta = entry.metadata
        if "solves" in meta:
            assert meta["solves"][0] in PROBLEMS, entry.name
        specs = list(meta.get("fuzz_params", {}).values())
        for domain in meta["domains"]:
            assert domain["graph"] in GRAPH_FAMILIES, entry.name
            specs += [s for k, s in domain.items() if k != "graph"]
        for spec in filter(lambda s: isinstance(s, tuple), specs):
            lo, hi, *step = spec
            assert len(step) <= 1 and range(lo, hi + 1, *step), (entry.name, spec)


def test_declarations_use_the_known_vocabulary():
    # A typo'd invariance would silently skip its check, and a typo'd
    # need would silently run without the labeling.
    for entry in ALGORITHMS.entries():
        meta = entry.metadata
        unknown = set(meta.get("invariances", ())) - set(KNOWN_INVARIANCES)
        assert not unknown, f"{entry.name} declares unknown invariances {unknown}"
        if meta["kind"] != "finite":
            assert meta.get("needs") in KNOWN_NEEDS, entry.name


#: The false claim "local-max solves MIS", built here and never
#: registered.  Two adjacent local maxima would each beat the other, so
#: the 1-nodes are independent; but nothing makes them dominating (a
#: path with ascending ids marks only its last node).
FALSE_MIS = RegistryEntry("false-mis-claim", LocalMaximumRule, {
    "kind": "view",
    "needs": "ids",
    "solves": ("mis", {}),
    "domains": ({"graph": "path", "n": (2, 16)}, {"graph": "cycle", "n": (3, 16)}),
    "invariances": KNOWN_INVARIANCES,
})


def test_false_mis_claim_fails_its_verifier_check():
    @given(data=st.data())
    def false_claim(data):
        check_contract(FALSE_MIS, data)

    with pytest.raises(AssertionError, match=r"\[verifier\] false-mis-claim"):
        false_claim()


class _Recorded:
    """A ``data`` stand-in that keeps every value drawn through it."""

    def __init__(self, data):
        self.data, self.values = data, []

    def draw(self, strategy):
        self.values.append(self.data.draw(strategy))
        return self.values[-1]


def test_false_mis_claim_shrinks_to_the_three_node_path():
    # Paths of 1 and 2 nodes satisfy the claim (the top id is a local
    # maximum and dominates the rest), so 3 nodes with ids in path order
    # is the true minimum.  Hypothesis replays that example last.
    last = []

    @given(data=st.data())
    def false_claim(data):
        recorded = _Recorded(data)
        last[:] = [recorded.values]
        check_contract(FALSE_MIS, recorded)

    with pytest.raises(AssertionError, match=r"\[verifier\] false-mis-claim"):
        false_claim()
    domain, n, ids = last[0]
    assert (domain["graph"], n, ids) == ("path", 3, [1, 2, 3])
