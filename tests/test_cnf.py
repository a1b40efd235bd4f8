"""The clause-learning prover and its RUP checker (repro.lowerbounds.cnf)."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import Graph, cycle
from repro.lowerbounds import cnf, neighborhood_graph
from repro.lowerbounds.linial import _coloring_cnf, _greedy_clique


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


@given(formulas())
def test_solve_matches_oracle(formula):
    num_vars, clauses = formula
    model, lemmas = cnf.solve(num_vars, clauses)
    assert (model is not None) == _satisfiable(num_vars, clauses)
    if model is not None:
        assert lemmas is None
        assert all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in clauses)
    else:
        assert lemmas[-1] == ()
        assert cnf.check_rup(num_vars, clauses, lemmas)
        assert not cnf.check_rup(num_vars, clauses, lemmas[:-1])


def test_empty_formula_and_empty_clause():
    assert cnf.solve(2, []) == ([False, True, True], None)
    assert cnf.solve(1, [(1,), ()]) == (None, [()])
    assert cnf.check_rup(1, [(1,), (-1,)], [()])
    assert not cnf.check_rup(1, [(1,)], [()])
    assert not cnf.check_rup(1, [(1,), (-1,)], [])


@pytest.fixture(scope="module")
def n1_7():
    """``N_1(7)``'s 3-coloring CNF and the prover's refutation of it."""
    g, _ = neighborhood_graph(7, 1)
    _, clauses = _coloring_cnf(g, 3, _greedy_clique(g))
    model, lemmas = cnf.solve(g.n * 3, clauses)
    assert model is None
    return g.n * 3, clauses, lemmas


class TestPlantedDefects:
    """A checker that accepted these would certify a false refutation."""

    def test_valid_proof_is_accepted(self, n1_7):
        assert cnf.check_rup(*n1_7)

    def test_dropped_lemma(self, n1_7):
        # Before its last lemma, the prover's root propagated without a
        # conflict, so the empty clause cannot follow from the others.
        num_vars, clauses, lemmas = n1_7
        assert not cnf.check_rup(num_vars, clauses, lemmas[:-2] + lemmas[-1:])

    def test_flipped_literal(self, n1_7):
        # The prover's first lemma follows from the formula by unit
        # propagation; with its first literal flipped it does not (the
        # prover is deterministic, so the instance is fixed).  Taken as
        # given, the flipped lemmas still propagate to the empty clause,
        # so only the per-lemma test rejects the proof.
        num_vars, clauses, lemmas = n1_7
        first = lemmas[0]
        flipped = [(-first[0],) + first[1:]] + lemmas[1:]
        assert not cnf.check_rup(num_vars, clauses, flipped)
        assert cnf.check_rup(num_vars, list(clauses) + flipped[:-1], [()])

    def test_missing_empty_clause(self, n1_7):
        num_vars, clauses, lemmas = n1_7
        assert not cnf.check_rup(num_vars, clauses, lemmas[:-1])

    def test_literal_out_of_range(self, n1_7):
        num_vars, clauses, lemmas = n1_7
        assert not cnf.check_rup(num_vars, clauses, [(num_vars + 1,)] + lemmas)
        assert not cnf.check_rup(num_vars, clauses, [(0,)] + lemmas)
        # With one variable, literal 2 would share the slot of -1, and the
        # satisfiable x1 and x2 would read as a contradiction.
        assert not cnf.check_rup(1, [(1,), (2,)], [()])

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
        model, lemmas = cnf.solve(33, clauses)
        assert model is None and cnf.check_rup(33, clauses, lemmas)
        satisfiable = 0
        for i, clause in enumerate(clauses):
            if len(clause) != 2:
                continue
            weakened = clauses[:i] + clauses[i + 1 :]
            if cnf.solve(33, weakened)[0] is not None:
                satisfiable += 1
                assert not cnf.check_rup(33, weakened, lemmas), clause
        assert satisfiable > 0
