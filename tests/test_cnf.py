"""The clause-learning prover and its RUP checker (repro.lowerbounds.cnf).

Every proof the prover emits must pass both the hinted checker and the
reference checker of ``tests/rup_reference.py``, which re-derives each
lemma by propagating the whole formula and reads no hints.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import Graph, cycle
from repro.lowerbounds import cnf, neighborhood_graph
from repro.lowerbounds.linial import _coloring_cnf, _greedy_clique

from .rup_reference import check_by_propagation, lemmas_of


def _satisfiable(num_vars, clauses):
    """Exhaustive oracle over all ``2**num_vars`` assignments."""
    return any(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)
        for bits in itertools.product((False, True), repeat=num_vars)
    )


@st.composite
def formulas(draw):
    num_vars = draw(st.integers(1, 7))
    clause = st.lists(st.integers(1, num_vars), min_size=1, max_size=4, unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    )
    return num_vars, draw(st.lists(clause, max_size=30))


@st.composite
def learning_formulas(draw):
    """Denser formulas without unit clauses: their refutations need
    conflict analysis, so their steps carry hints (``formulas`` are
    mostly refuted by root propagation alone)."""
    num_vars = draw(st.integers(4, 9))
    clause = st.lists(st.integers(1, num_vars), min_size=2, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    )
    return num_vars, draw(st.lists(clause, min_size=3 * num_vars, max_size=6 * num_vars))


def with_hints(proof, index, hints):
    """``proof`` with the hints of step ``index`` replaced."""
    planted = list(proof)
    planted[index] = (planted[index][0], hints)
    return planted


@given(st.one_of(formulas(), learning_formulas()))
def test_solve_matches_oracle(formula):
    num_vars, clauses = formula
    model, proof = cnf.solve(num_vars, clauses)
    assert (model is not None) == _satisfiable(num_vars, clauses)
    if model is not None:
        assert proof is None
        assert all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in clauses)
    else:
        assert proof[-1] == ((), ())
        assert cnf.check_rup(num_vars, clauses, proof)
        assert check_by_propagation(num_vars, clauses, lemmas_of(proof))
        assert not cnf.check_rup(num_vars, clauses, proof[:-1])


@given(learning_formulas())
def test_every_hint_is_needed(formula):
    # A hint names the reason of a literal that a later hinted clause
    # reads as false, or the conflict clause itself, so the replay
    # breaks wherever one is dropped.
    num_vars, clauses = formula
    model, proof = cnf.solve(num_vars, clauses)
    if model is not None:
        return
    for i, (_, hints) in enumerate(proof):
        for j in range(len(hints)):
            dropped = with_hints(proof, i, hints[:j] + hints[j + 1 :])
            assert not cnf.check_rup(num_vars, clauses, dropped), (i, j)


def test_empty_formula_and_empty_clause():
    assert cnf.solve(2, []) == ([False, True, True], None)
    model, proof = cnf.solve(1, [(1,), ()])
    assert model is None and proof == [((), ())]
    assert cnf.check_rup(1, [(1,), (-1,)], [((), ())])
    assert not cnf.check_rup(1, [(1,)], [((), ())])
    assert not cnf.check_rup(1, [(1,), (-1,)], [])


@pytest.fixture(scope="module")
def n1_7():
    """``N_1(7)``'s 3-coloring CNF and the prover's refutation of it."""
    g, _ = neighborhood_graph(7, 1)
    _, clauses = _coloring_cnf(g, 3, _greedy_clique(g))
    model, proof = cnf.solve(g.n * 3, clauses)
    assert model is None
    return g.n * 3, clauses, proof


class TestPlantedDefects:
    """A checker that accepted these would certify a false refutation.

    The prover is deterministic, so each plant is a fixed instance.
    """

    def test_valid_proof_is_accepted(self, n1_7):
        num_vars, clauses, proof = n1_7
        assert cnf.check_rup(num_vars, clauses, proof)
        assert check_by_propagation(num_vars, clauses, lemmas_of(proof))

    def test_dropped_lemma(self, n1_7):
        # Before its last lemma, the prover's root propagated without a
        # conflict, so the empty clause cannot follow from the others.
        num_vars, clauses, proof = n1_7
        assert not cnf.check_rup(num_vars, clauses, proof[:-2] + proof[-1:])

    def test_flipped_literal(self, n1_7):
        # The prover's first lemma follows from the formula by unit
        # propagation; with its first literal flipped it does not, by its
        # hints or by any others.  Taken as given, the flipped lemmas
        # still propagate to the empty clause, so only the per-lemma test
        # rejects the proof.
        num_vars, clauses, proof = n1_7
        first, hints = proof[0]
        flipped = [((-first[0],) + first[1:], hints)] + proof[1:]
        assert not cnf.check_rup(num_vars, clauses, flipped)
        assert not check_by_propagation(num_vars, clauses, lemmas_of(flipped))
        given = list(clauses) + lemmas_of(flipped[:-1])
        assert cnf.check_rup(num_vars, given, [((), ())])

    def test_missing_empty_clause(self, n1_7):
        num_vars, clauses, proof = n1_7
        assert not cnf.check_rup(num_vars, clauses, proof[:-1])

    def test_literal_out_of_range(self, n1_7):
        num_vars, clauses, proof = n1_7
        assert not cnf.check_rup(num_vars, clauses, [((num_vars + 1,), ())] + proof)
        assert not cnf.check_rup(num_vars, clauses, [((0,), ())] + proof)
        # With one variable, literal 2 would share the slot of -1, and the
        # satisfiable x1 and x2 would read as a contradiction.
        assert not cnf.check_rup(1, [(1,), (2,)], [((), ())])

    def test_dropped_hint(self, n1_7):
        # Each of the first lemma's 16 hints is needed: without a reason,
        # the clause that reads its literal has two open literals, and
        # without the conflict clause nothing is falsified.
        num_vars, clauses, proof = n1_7
        hints = proof[0][1]
        assert len(hints) == 16
        for j in range(len(hints)):
            dropped = with_hints(proof, 0, hints[:j] + hints[j + 1 :])
            assert not cnf.check_rup(num_vars, clauses, dropped), j

    def test_reordered_hints(self, n1_7):
        # Independent unit steps may swap, but the conflict clause is
        # falsified only after the reasons before it have run.
        num_vars, clauses, proof = n1_7
        hints = proof[0][1]
        assert cnf.check_rup(num_vars, clauses, with_hints(proof, 0, hints))
        for reordered in (hints[::-1], hints[-1:] + hints[:-1]):
            assert not cnf.check_rup(num_vars, clauses, with_hints(proof, 0, reordered))

    def test_hint_naming_its_own_or_a_later_lemma(self, n1_7):
        # Negated, a lemma falsifies itself, and so does the final empty
        # clause: a checker that read either would accept anything.
        num_vars, clauses, proof = n1_7
        own = len(clauses) + 5
        for hint in (own, own + 1, len(clauses) + len(proof) - 1):
            assert not cnf.check_rup(num_vars, clauses, with_hints(proof, 5, (hint,)))

    def test_hint_out_of_range(self, n1_7):
        # The first lemma's last hint is its conflict clause; ``-back``
        # would index that clause from the end of the known clauses.
        num_vars, clauses, proof = n1_7
        hints = proof[0][1]
        back = len(clauses) - hints[-1]
        for hint in (len(clauses) + len(proof), -back):
            planted = with_hints(proof, 0, hints[:-1] + (hint,))
            assert not cnf.check_rup(num_vars, clauses, planted), hint

    def test_satisfied_hint(self, n1_7):
        # The formula's last clause fixes a clique vertex's color: it is
        # true at the root, so as a hint it is satisfied, not unit.
        num_vars, clauses, proof = n1_7
        assert len(clauses[-1]) == 1
        hints = proof[0][1]
        planted = with_hints(proof, 0, (len(clauses) - 1,) + hints)
        assert not cnf.check_rup(num_vars, clauses, planted)

    def test_edge_clause_removed(self):
        # The Groetzsch graph (Mycielski's C_5) is 4-chromatic and
        # triangle-free.  Drop one edge clause at a time from its
        # 3-coloring CNF: the checker must reject the proof whenever the
        # weakened formula is satisfiable, and some of them are.
        g = Graph(11)
        for u, v in cycle(5).edges():
            g.add_edge(u, v)
            g.add_edge(u, 5 + v)
            g.add_edge(v, 5 + u)
        for v in range(5):
            g.add_edge(5 + v, 10)
        _, clauses = _coloring_cnf(g, 3, _greedy_clique(g))
        model, proof = cnf.solve(33, clauses)
        assert model is None and cnf.check_rup(33, clauses, proof)
        assert check_by_propagation(33, clauses, lemmas_of(proof))
        satisfiable = 0
        for i, clause in enumerate(clauses):
            if len(clause) != 2:
                continue
            weakened = clauses[:i] + clauses[i + 1 :]
            if cnf.solve(33, weakened)[0] is not None:
                satisfiable += 1
                assert not cnf.check_rup(33, weakened, proof), clause
        assert satisfiable > 0
