"""The reference RUP checker that every proof the prover emits must also pass.

:func:`check_by_propagation` re-derives each lemma by propagating the
whole formula and every earlier lemma, and reads no hints.  It is the
checker :mod:`repro.lowerbounds.cnf` used before its proofs carried
hints, kept here so that a hinted proof is held to both: the hints'
replay in :func:`repro.lowerbounds.cnf.check_rup`, and full propagation.
"""

from itertools import chain


def lemmas_of(proof):
    """The clauses of a hinted proof, without their hints."""
    return [lemma for lemma, _ in proof]


def check_by_propagation(num_vars, clauses, lemmas):
    """Whether ``lemmas`` is a RUP refutation of ``clauses``.

    Each lemma must follow by unit propagation: asserting the negation
    of its literals, on top of the formula and every earlier lemma, must
    propagate to a falsified clause.  The last lemma must be the empty
    clause, which follows only when the formula and the lemmas alone
    propagate to a conflict.  A literal outside ``±1..±num_vars`` rejects
    the proof.
    """
    size = 2 * num_vars + 1
    true = [False] * size
    forced = [[] for _ in range(size)]  # p true forces each q
    watch = [[] for _ in range(size)]
    trail = []

    def assign(lit):
        if true[-lit]:
            return False
        if not true[lit]:
            true[lit] = True
            trail.append(lit)
        return True

    def conflict_from(head):
        while head < len(trail):
            p = trail[head]
            head += 1
            for q in forced[p]:
                if not true[q]:
                    if true[-q]:
                        return True
                    true[q] = True
                    trail.append(q)
            pending, watch[-p] = watch[-p], []
            for i, clause in enumerate(pending):
                if clause[0] == -p:
                    clause[0], clause[1] = clause[1], -p
                if not true[clause[0]]:
                    k = 2
                    while k < len(clause) and true[-clause[k]]:
                        k += 1
                    if k < len(clause):
                        clause[1], clause[k] = clause[k], -p
                        watch[clause[1]].append(clause)
                        continue
                watch[-p].append(clause)
                if not assign(clause[0]):
                    watch[-p] += pending[i + 1 :]
                    return True
        return False

    def add(new):
        """Record clauses; ``False`` if one of them is already falsified."""
        for clause in new:
            if len(clause) == 2:
                a, b = clause
                forced[-a].append(b)
                forced[-b].append(a)
            elif len(clause) > 2:
                clause = list(clause)
                watch[clause[0]].append(clause)
                watch[clause[1]].append(clause)
            elif not clause or not assign(clause[0]):
                return False
        return True

    def literals():
        return chain.from_iterable(chain(clauses, lemmas))

    if 0 in literals() or max(map(abs, literals()), default=0) > num_vars:
        return False
    consistent = add(clauses) and not conflict_from(0)
    for lemma in lemmas:
        if consistent:
            root = len(trail)
            refuted = not all(assign(-lit) for lit in lemma) or conflict_from(root)
            for lit in trail[root:]:
                true[lit] = False
            del trail[root:]
            if not refuted:
                return False
            # Literals false at the root drop out, so both watches are open.
            consistent = add([[lit for lit in lemma if not true[-lit]]]) and not conflict_from(root)
    return bool(lemmas) and not lemmas[-1]
