"""The DPLL route: an iterative trail search over the integer clauses.

Nothing here reuses the term engine or the cover search: the routes'
agreement is the correctness argument, so each decides on its own.  The
truth table and the exact matrix backend that the tests compare against
live in tests/oracle_reference.py.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush

from .cnf import Assignment, CnfFormula, ResourceLimitError


def dpll(
    f: CnfFormula, decision_budget: int | None = None
) -> tuple[bool, Assignment | None, dict[str, int]]:
    """(unsatisfiable, model, counters) by unit propagation, pure-literal
    elimination, then branching on the lowest still-occurring variable
    trying True first.  A returned model is re-verified by direct
    evaluation.  The counters are ``decisions`` and ``propagations``
    (literals set by unit clauses).  More than ``decision_budget``
    branchings raise ResourceLimitError; None means unbounded."""
    if f.has_empty_clause:
        return True, None, {"decisions": 0, "propagations": 0}
    search = _TrailSearch(f.n, f.clauses)
    found = search.solve(decision_budget)
    counters = {"decisions": search.decisions, "propagations": search.propagations}
    if not found:
        return True, None, counters
    # a variable the search never set reads True
    model = Assignment(tuple(search.value[v] >= 0 for v in range(1, f.n + 1)))
    if not model.satisfies(f):
        raise RuntimeError("solver produced a non-model; this is a defect")
    return False, model, counters


class _TrailSearch:
    """Iterative DPLL over integer clauses, undone by popping a trail.

    Per-literal lists are indexed by the signed literal itself (``-v`` lands
    in the upper half of a list of 2n+1 slots).  ``value[l]`` is 1, -1 or 0
    (unset); a literal is set when it goes on the trail, and its clauses are
    updated when the propagation reaches it (``head``).  Per clause, ``free``
    counts its literals not reached false.  That alone finds conflicts and
    units: a clause at ``free`` 0 has no true literal, and one at ``free`` 1
    is unit only if its last literal is unset.

    ``sat`` marks the clauses with a true literal in ``trail[:swept]``, and
    ``count[l]`` is the number of unmarked clauses containing l.  Both are
    updated by a sweep over the rest of the trail, which runs after a
    propagation ends without conflict, so a branch that ends in a conflict
    never touches them.  The sweep puts a clause on ``satisfied`` when it
    marks it, and the undo unmarks and takes off the clauses added since the
    branching, so at a decision point the list holds exactly the satisfied
    clauses and the counts are exact: a variable still occurs while either
    polarity's count is positive and is pure while exactly one is.  Every
    variable that turns pure is pushed on ``pure``, a heap whose entries are
    checked when popped.  A decision is taken only when no variable is pure,
    and backtracking restores that state, so it clears the heap.
    """

    def __init__(self, n: int, clauses: Sequence[tuple[int, ...]]):
        self.clauses = clauses
        self.occurs: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.count = [0] * (2 * n + 1)
        for i, clause in enumerate(clauses):
            for lit in clause:
                self.occurs[lit].append(i)
                self.count[lit] += 1
        self.value = [0] * (2 * n + 1)
        self.sat = [False] * len(clauses)
        self.free = [len(c) for c in clauses]
        self.satisfied: list[int] = []
        self.trail: list[int] = []
        self.head = 0
        self.swept = 0
        self.pure = [
            v for v in range(1, n + 1) if (self.count[v] > 0) != (self.count[-v] > 0)
        ]
        self.decisions = 0
        self.propagations = 0

    def _set(self, lit: int) -> bool:
        """Set lit true and propagate unit clauses to fixpoint; False on a
        conflict.  A literal already set true is a no-op, one set false a
        conflict."""
        value = self.value
        if value[lit]:
            return value[lit] > 0
        trail, free, clauses, occurs = self.trail, self.free, self.clauses, self.occurs
        value[lit] = 1
        value[-lit] = -1
        trail.append(lit)
        head, ok = self.head, True
        while ok and head < len(trail):
            lit = trail[head]
            head += 1
            for c in occurs[-lit]:
                left = free[c] - 1
                free[c] = left
                if left == 1:
                    # at most one literal is unset; none if the last one
                    # is already on the trail, true or unreached
                    for x in clauses[c]:
                        if not value[x]:
                            value[x] = 1
                            value[-x] = -1
                            trail.append(x)
                            self.propagations += 1
                            break
                elif not left:
                    ok = False
        self.head = head
        return ok

    def _undo(self, mark: int, satisfied_mark: int) -> None:
        """Pop the trail back to ``mark`` and ``satisfied`` back to
        ``satisfied_mark``, the lengths both had at a branching, reversing
        the counters of the literals the propagation reached and the marks
        and counts of the clauses satisfied since."""
        trail, value, count, free = self.trail, self.value, self.count, self.free
        sat, clauses, occurs = self.sat, self.clauses, self.occurs
        satisfied = self.satisfied
        for lit in trail[self.head:]:
            value[lit] = value[-lit] = 0
        for lit in trail[mark : self.head]:
            value[lit] = value[-lit] = 0
            for c in occurs[-lit]:
                free[c] += 1
        for c in satisfied[satisfied_mark:]:
            sat[c] = False
            for x in clauses[c]:
                count[x] += 1
        del trail[mark:]
        del satisfied[satisfied_mark:]
        self.head = self.swept = mark
        self.pure.clear()

    def _sweep(self) -> None:
        """Mark the clauses that ``trail[swept:]`` satisfies and lower the
        counts of their literals, pushing each variable that turns pure."""
        sat, count, value, clauses = self.sat, self.count, self.value, self.clauses
        occurs, satisfied, pure = self.occurs, self.satisfied, self.pure
        trail = self.trail
        for lit in trail[self.swept:]:
            for c in occurs[lit]:
                if not sat[c]:
                    sat[c] = True
                    satisfied.append(c)
                    for x in clauses[c]:
                        count[x] -= 1
                        if not count[x] and count[-x] and not value[x]:
                            heappush(pure, abs(x))
        self.swept = len(trail)

    def _lowest_pure(self) -> int:
        """The pure literal of the lowest pure variable, or 0."""
        pure, count, value = self.pure, self.count, self.value
        while pure:
            v = heappop(pure)
            if not value[v] and (count[v] > 0) != (count[-v] > 0):
                return v if count[v] else -v
        return 0

    def solve(self, decision_budget: int | None) -> bool:
        """Search to a satisfying ``value`` (True) or exhaust it (False).

        Each branching pushes the trail length, the ``satisfied`` length and
        the variable it started from, so a conflict resumes the newest
        branching whose False side is still untried.  At a branching every
        variable below the chosen one is set or gone from the unsatisfied
        clauses, and stays so beneath it, so the next variable is looked for
        only above it.
        """
        value, count, satisfied = self.value, self.count, self.satisfied
        clause_count = len(self.clauses)
        for clause in self.clauses:
            if len(clause) == 1:
                self.propagations += not value[clause[0]]
                if not self._set(clause[0]):
                    return False
        branches: list[tuple[int, int, int]] = []
        low = 1
        ok = True
        while True:
            if not ok:
                if not branches:
                    return False
                mark, satisfied_mark, v = branches.pop()
                self._undo(mark, satisfied_mark)
                low = v + 1
                ok = self._set(-v)
                continue
            self._sweep()  # the propagation ended without conflict
            if len(satisfied) == clause_count:
                return True
            pure = self._lowest_pure()
            if pure:
                self._set(pure)  # satisfies clauses only: no conflict or unit
                continue
            self.decisions += 1
            if decision_budget is not None and self.decisions > decision_budget:
                raise ResourceLimitError(
                    f"DPLL search exceeded {decision_budget} decisions"
                )
            v = low
            while value[v] or not (count[v] or count[-v]):
                v += 1
            branches.append((len(self.trail), len(satisfied), v))
            low = v + 1
            ok = self._set(v)

