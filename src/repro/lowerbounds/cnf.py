"""A small clause-learning SAT prover and an independent RUP proof checker.

Formulas are in DIMACS form: the variables are ``1..num_vars``, a
literal is ``v`` or ``-v``, and a clause is a sequence of literals (their
disjunction).  Clause ids number the formula's clauses from 0 in input
order and then the learnt clauses after them.  :func:`solve` either
finds a model or refutes the formula, logging every clause it learns
with its *hints*: the ids of the clauses its conflict analysis resolved.
A refutation's log ends in the empty clause and is a proof in the RUP
format (*reverse unit propagation*: each clause follows from the
formula and the clauses before it by unit propagation alone), with the
hints naming the unit steps, as in LRAT without deletions.
:func:`check_rup` replays each lemma's hints with its own loop and
shares nothing with the search, so an "unsatisfiable" verdict rests on
the short checker, not on the prover that found it.

Both functions index per-literal lists of length ``2 * num_vars + 1`` by
the signed literal itself: ``a[-v]`` is ``a[2 * num_vars + 1 - v]``, a
slot that no positive literal uses.
"""

from __future__ import annotations

import struct
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["solve", "check_rup"]

#: One proof step: a learnt clause and its hints, the ids of the clauses
#: that derive it (see :func:`check_rup`).
Step = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: VSIDS: each conflict multiplies the activity increment by 1 / DECAY.
_DECAY = 0.95


def solve(
    num_vars: int, clauses: Sequence[Sequence[int]]
) -> Tuple[Optional[List[bool]], Optional[List[Step]]]:
    """Decide a CNF formula: ``(model, None)`` or ``(None, proof)``.

    ``model[v]`` is the value of variable ``v`` (``model[0]`` is unused).
    For an unsatisfiable formula, ``proof`` lists the learnt clauses in
    the order they were learnt, each as a step ``(lemma, hints)``, and
    ends in the empty clause: a hinted RUP refutation for
    :func:`check_rup`.  A lemma's hints are the ids of the reasons of
    the literals its analysis resolved, in trail order, then of the
    conflict clause; reasons of literals assigned at the root level are
    left out, since the checker's root propagation assigns them too.
    The empty clause has no hints.  No clause may repeat a variable.

    Conflict-driven clause learning: binary clauses are kept as
    per-literal implication lists and longer ones are watched on two
    literals; each conflict is analysed to its first unique implication
    point, and the learnt clause sends the search back to the second
    highest level in it.  Branching takes the unassigned variable of
    highest VSIDS activity (ties go to the smallest index) in its saved
    phase (initially true).  There are no restarts and no clause
    deletion, so the search is deterministic and every learnt clause
    stays in the proof.  Activities are not rescaled: after about
    13,800 conflicts the bumped ones reach infinity and tie, so the
    smallest index decides among them; the search stays complete (the
    instances here need hundreds of conflicts).
    """
    size = 2 * num_vars + 1
    value = [0] * size  # value[lit]: 1 true, -1 false, 0 unassigned
    implied: List[List[int]] = [[] for _ in range(size)]  # p -> q for clause (-p, q)
    watches: List[List[List[int]]] = [[] for _ in range(size)]
    longs: List[List[int]] = []  # the watched copies, in input order
    trail: List[int] = []
    for clause in clauses:
        width = len(clause)
        if width == 2:
            a, b = clause
            implied[-a].append(b)
            implied[-b].append(a)
        elif width > 2:
            clause = list(clause)
            longs.append(clause)
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)
        elif width == 0 or value[clause[0]] < 0:
            return None, [((), ())]
        elif not value[clause[0]]:
            lit = clause[0]
            value[lit], value[-lit] = 1, -1
            trail.append(lit)

    level = [0] * (num_vars + 1)
    # reason[v]: the clause that forced v, as its list (v's literal
    # first) or, for a binary clause, as the other (false) literal.
    reason: List[object] = [None] * (num_vars + 1)
    activity = [0.0] * (num_vars + 1)
    phase = [True] * (num_vars + 1)
    seen = [False] * (num_vars + 1)
    # A lazy max-heap of (-activity, v); heap_key[v] is the key of v's
    # newest entry still in the heap (None once popped), older ones are
    # stale.  Every unassigned variable has a current entry.
    heap = [(0.0, v) for v in range(1, num_vars + 1)]
    heap_key: List[Optional[float]] = [0.0] * (num_vars + 1)
    increment = 1.0
    trail_lim: List[int] = []
    proof: List[Step] = []
    # Clause ids for the hints, numbered at the first conflict: a search
    # without one pays nothing for them, and no id is allocated among the
    # watch lists the load loop fills (which slowed the m = 9 window
    # search by a fifth).  The first ``counts[p]`` entries of
    # ``implied[p]`` are the formula's, and ``learnt_ids[p]`` lists the
    # lemmas behind the rest; ``long_ids`` maps ``id()`` of each watched
    # clause to its clause id.
    learnt_ids: Dict[int, List[int]] = {}

    def binary_id(q: int, r: int) -> int:
        """The id of the binary clause ``(q, r)``, entry ``q`` of ``implied[-r]``."""
        k = implied[-r].index(q)
        if k < counts[-r]:
            return binary_ids[starts[-r] + k]
        return learnt_ids[-r][k - counts[-r]]

    qhead = 0
    depth = 0

    while True:
        conflict = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            for q in implied[p]:
                if value[q]:
                    if value[q] < 0:
                        conflict = [q, -p]
                        break
                    continue
                value[q], value[-q] = 1, -1
                v = q if q > 0 else -q
                level[v] = depth
                reason[v] = -p
                trail.append(q)
            if conflict is not None:
                break
            false_lit = -p
            ws = watches[false_lit]
            if not ws:
                continue
            i = j = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                i += 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0], clause[1] = first, false_lit
                if value[first] > 0:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] >= 0:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if value[first] < 0:
                        conflict = clause
                        break
                    value[first], value[-first] = 1, -1
                    v = first if first > 0 else -first
                    level[v] = depth
                    reason[v] = clause
                    trail.append(first)
            del ws[j:i]
            if conflict is not None:
                break

        if conflict is None:
            # Decide: the unassigned variable of highest activity.
            while heap:
                key, v = heappop(heap)
                if key == heap_key[v]:
                    heap_key[v] = None
                    if not value[v]:
                        break
            else:
                return [False] + [value[v] > 0 for v in range(1, num_vars + 1)], None
            lit = v if phase[v] else -v
            depth += 1
            trail_lim.append(len(trail))
            value[lit], value[-lit] = 1, -1
            level[v] = depth
            reason[v] = None
            trail.append(lit)
            continue

        if not depth:
            proof.append(((), ()))
            return None, proof
        if not proof:
            counts, starts, binary_ids, long_ids = _number_clauses(clauses, implied, longs)
            del longs

        # First-UIP analysis: resolve the conflict with the reasons of
        # its current-level literals, latest first, until one is left.
        # ``used`` collects the ids of those reasons in the same order.
        learnt = [0]
        used: List[int] = []
        pending = 0
        index = len(trail) - 1
        lits: Sequence[int] = conflict
        while True:
            for lit in lits:
                v = lit if lit > 0 else -lit
                if not seen[v] and level[v]:
                    seen[v] = True
                    activity[v] += increment
                    if level[v] == depth:
                        pending += 1
                    else:
                        learnt.append(lit)
            while True:
                p = trail[index]
                index -= 1
                v = p if p > 0 else -p
                if seen[v]:
                    break
            seen[v] = False
            pending -= 1
            if not pending:
                break
            r = reason[v]
            if r.__class__ is int:
                lits = (r,)
                used.append(binary_id(p, r))
            else:
                lits = r[1:]
                used.append(long_ids[id(r)])
        learnt[0] = -p
        back = 0
        for k in range(1, len(learnt)):
            u = learnt[k]
            u = u if u > 0 else -u
            seen[u] = False
            if level[u] > back:
                back = level[u]
                learnt[1], learnt[k] = learnt[k], learnt[1]
        used.reverse()
        used.append(binary_id(*conflict) if len(conflict) == 2 else long_ids[id(conflict)])
        proof.append((tuple(learnt), tuple(used)))
        increment /= _DECAY

        # Back-jump to the second highest level of the learnt clause.
        start = trail_lim[back] if back < depth else len(trail)
        for k in range(len(trail) - 1, start - 1, -1):
            lit = trail[k]
            v = lit if lit > 0 else -lit
            value[lit] = value[-lit] = 0
            phase[v] = lit > 0
            key = -activity[v]
            if heap_key[v] != key:
                heap_key[v] = key
                heappush(heap, (key, v))
        del trail[start:]
        del trail_lim[back:]
        qhead = start
        depth = back
        if len(heap) > 2 * num_vars:  # drop the stale entries
            heap = [entry for entry in heap if entry[0] == heap_key[entry[1]]]
            heapify(heap)

        # The learnt clause is unit here: assert its first literal.
        asserted = learnt[0]
        v = asserted if asserted > 0 else -asserted
        lemma_id = len(clauses) + len(proof) - 1
        if len(learnt) == 1:
            reason[v] = None
        elif len(learnt) == 2:
            implied[-asserted].append(learnt[1])
            learnt_ids.setdefault(-asserted, []).append(lemma_id)
            implied[-learnt[1]].append(asserted)
            learnt_ids.setdefault(-learnt[1], []).append(lemma_id)
            reason[v] = learnt[1]
        else:
            long_ids[id(learnt)] = lemma_id
            watches[asserted].append(learnt)
            watches[learnt[1]].append(learnt)
            reason[v] = learnt
        value[asserted], value[-asserted] = 1, -1
        level[v] = depth
        trail.append(asserted)


def _number_clauses(
    clauses: Sequence[Sequence[int]], implied: List[List[int]], longs: List[List[int]]
) -> Tuple[List[int], memoryview, memoryview, Dict[int, int]]:
    """Number the formula's clauses where :func:`solve` reads them.

    Returns ``(counts, starts, ids, long_ids)``: ``implied[p]`` holds
    ``counts[p]`` entries from the formula, and its entry ``k <
    counts[p]`` comes from clause ``ids[starts[p] + k]``; ``long_ids``
    maps ``id()`` of each watched copy in ``longs`` to its clause id.
    ``implied`` and ``longs`` must hold the formula's clauses alone, in
    input order: the formula is walked backwards, filling each literal's
    block of ``ids`` from its end.  ``starts`` and ``ids`` are packed C
    ints, which hold no int objects; ``counts`` holds small ints.
    """
    counts = list(map(len, implied))
    starts = list(accumulate(counts))
    ids = [0] * starts[-1]
    long_ids = {}
    copies = reversed(longs)
    for clause_id, clause in zip(range(len(clauses) - 1, -1, -1), reversed(clauses)):
        if len(clause) == 2:
            a, b = clause
            k = starts[-a] - 1
            starts[-a] = k
            ids[k] = clause_id
            k = starts[-b] - 1
            starts[-b] = k
            ids[k] = clause_id
        elif len(clause) > 2:
            long_ids[id(next(copies))] = clause_id
    return counts, _packed(starts), _packed(ids), long_ids


def _packed(values: Sequence[int]) -> memoryview:
    """``values`` as C ints: a compact sequence that holds no int objects."""
    return memoryview(struct.pack(f"{len(values)}i", *values)).cast("i")


def check_rup(
    num_vars: int, clauses: Sequence[Sequence[int]], proof: Sequence[Step]
) -> bool:
    """Whether ``proof``, steps ``(lemma, hints)``, is a RUP refutation of ``clauses``.

    The checker keeps the *root assignment*: what the formula and the
    lemmas checked so far propagate to.  Each lemma is checked by
    asserting the negation of its literals on top of it and replaying
    its hints in order: each hinted clause must be unit, and its open
    literal is asserted, until one is falsified, which shows the lemma.
    A hinted clause that is satisfied or has two open literals, hints
    that run out first, or a hint that is not the id of a formula clause
    or an earlier lemma (the lemma itself, a later one, or out of range)
    rejects the proof.  The empty clause is decided by the root
    propagation instead: it follows only when the formula and the lemmas
    before it propagate to a conflict, and its hints are not read.  The
    last lemma must be the empty clause.  A literal outside
    ``±1..±num_vars`` rejects the proof.  A hint can only fail a check,
    never pass one: every accepted lemma is implied by the formula, so
    an accepted proof shows that the formula is unsatisfiable.
    """
    size = 2 * num_vars + 1
    true = [False] * size
    forced: List[List[int]] = [[] for _ in range(size)]  # p true forces each q
    watch: List[List[List[int]]] = [[] for _ in range(size)]
    trail: List[int] = []

    def assign(lit: int) -> bool:
        if true[-lit]:
            return False
        if not true[lit]:
            true[lit] = True
            trail.append(lit)
        return True

    def conflict_from(head: int) -> bool:
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

    def add(new: Iterable[Sequence[int]]) -> bool:
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

    def replay(lemma: Sequence[int], hints: Sequence[int]) -> bool:
        """Whether the hints, asserted on the negated lemma, falsify a clause."""
        if not all(assign(-lit) for lit in lemma):
            return True  # a literal of the lemma is already true
        for h in hints:
            if not 0 <= h < len(known):
                return False
            unit = 0
            for lit in known[h]:
                if not true[-lit]:
                    if unit or true[lit]:
                        return False
                    unit = lit
            if not unit:
                return True
            true[unit] = True
            trail.append(unit)
        return False

    def literals() -> Iterable[int]:
        return chain.from_iterable(chain(clauses, (lemma for lemma, _ in proof)))

    if 0 in literals() or max(map(abs, literals()), default=0) > num_vars:
        return False
    known = list(clauses)  # clause id -> clause; each lemma joins once checked
    consistent = add(clauses) and not conflict_from(0)
    for lemma, hints in proof:
        if consistent:
            root = len(trail)
            holds = bool(lemma) and replay(lemma, hints)
            for lit in trail[root:]:
                true[lit] = False
            del trail[root:]
            if not holds:
                return False
            # Literals false at the root drop out, so both watches are open.
            consistent = add([[lit for lit in lemma if not true[-lit]]]) and not conflict_from(root)
        known.append(lemma)
    return bool(proof) and not proof[-1][0]
