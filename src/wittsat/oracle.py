"""The DPLL route: an iterative trail search over the integer clauses.

Nothing here reuses the term engine or the cover search: the routes'
agreement is the correctness argument, so each decides on its own.  The
truth table and the exact matrix backend that the tests compare against
live in tests/oracle_reference.py.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import repeat

from .cnf import Assignment, CnfFormula, ResourceLimitError


def dpll(
    f: CnfFormula, decision_budget: int | None = None
) -> tuple[bool, Assignment | None, dict[str, int]]:
    """(unsatisfiable, model, counters) by unit propagation, pure-literal
    elimination, then branching on the literal in the most unsatisfied
    clauses (DLIS), trying it True first.  The model is the search's
    trail, with True for a variable it never set; the caller verifies it
    (``check`` does so for every route).  The counters are ``decisions``
    and ``propagations`` (literals set by unit clauses, binary ones through
    implication lists).  More than ``decision_budget`` branchings raise
    ResourceLimitError; None means unbounded."""
    if f.has_empty_clause:
        return True, None, {"decisions": 0, "propagations": 0}
    search = _TrailSearch(f.n, f.clauses)
    found = search.solve(decision_budget)
    counters = {"decisions": search.decisions, "propagations": search.propagations}
    if not found:
        return True, None, counters
    model = Assignment(tuple([x >= 0 for x in search.value[1 : f.n + 1]]))
    return False, model, counters


class _TrailSearch:
    """Iterative DPLL over integer clauses, undone by popping a trail.

    Per-literal lists are indexed by the signed literal itself (``-v`` lands
    in the upper half of a list of 2n+1 slots).  ``value[l]`` is 1, -1 or 0
    (unset); a literal is set when it goes on the trail, and the clauses it
    falsifies are visited when the propagation reaches it (``head``).

    Two-literal clauses propagate through implication lists: a clause
    (a b) puts b on ``implied[-a]`` and a on ``implied[-b]``, and reaching
    a literal sets each literal it implies that is still unset.  An implied
    literal already false is a conflict, which ends the propagation there.
    A tautology (x -x) puts x on ``implied[x]`` and -x on ``implied[-x]``:
    each literal implies only itself, so it never sets or conflicts.
    Every other clause keeps a counter: ``counted[l]`` lists the clauses of
    other widths that contain l, and ``free`` counts a clause's literals not
    reached false.  A clause at ``free`` 0 has no true literal, and one at
    ``free`` 1 is unit only if its last literal is unset.  Propagation
    reaches the same fixpoint in any order, so no decision depends on which
    clauses imply and which count.  ``propagations`` counts the literals
    set by unit clauses; only on a branch that ends in a conflict can it be
    lower than with a counter on every clause, since the propagation stops
    at the first false implied literal.

    ``occurs[l]`` lists every clause that contains l.  ``sat`` marks the
    clauses with a true literal in ``trail[:swept]``, and ``count[l]`` is
    the number of unmarked clauses containing l.  Both are updated by a
    sweep over the rest of the trail, which runs after a propagation ends
    without conflict, so a branch that ends in a conflict never touches
    them.  The sweep puts a clause on ``satisfied`` when it marks it, and
    the undo unmarks and takes off the clauses added since the branching,
    so at a decision point the list holds exactly the satisfied clauses and
    the counts are exact: a variable still occurs while either polarity's
    count is positive and is pure while exactly one is, and a decision
    branches on the largest count.  Every variable that turns pure is
    pushed on ``pure``, a heap whose entries are checked when popped.  A
    decision is taken only when no variable is pure, and backtracking
    restores that state, so it clears the heap.
    """

    def __init__(self, n: int, clauses: Sequence[tuple[int, ...]]):
        size = 2 * n + 1
        self.clauses = clauses
        self.free = free = list(map(len, clauses))
        binary = free.count(2)
        self.occurs = occurs = _empty_lists(size)
        if not binary:
            # nothing to imply, and every clause is counted
            self.implied = [()] * size
            self.counted = occurs
            for i, clause in enumerate(clauses):
                for lit in clause:
                    occurs[lit].append(i)
        else:
            self.implied = implied = _empty_lists(size)
            self.counted = counted = (
                _empty_lists(size) if binary < len(free) else [()] * size
            )
            for i, clause in enumerate(clauses):
                if len(clause) == 2:
                    a, b = clause
                    occurs[a].append(i)
                    occurs[b].append(i)
                    implied[-a].append(b)
                    implied[-b].append(a)
                else:
                    for lit in clause:
                        occurs[lit].append(i)
                        counted[lit].append(i)
        self.count = count = list(map(len, occurs))
        self.units = [c[0] for c in clauses if len(c) == 1] if 1 in free else []
        self.value = [0] * size
        self.sat = [False] * len(clauses)
        self.satisfied: list[int] = []
        self.trail: list[int] = []
        self.head = 0
        self.swept = 0
        self.pure: list[int] = []
        if 0 in count[1:]:  # else every literal occurs and none is pure
            self.pure = [
                v for v in range(1, n + 1) if (count[v] > 0) != (count[-v] > 0)
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
        trail, free, clauses = self.trail, self.free, self.clauses
        implied, counted = self.implied, self.counted
        value[lit] = 1
        value[-lit] = -1
        trail.append(lit)
        start = len(trail)
        head, ok = self.head, True
        while ok and head < len(trail):
            lit = trail[head]
            for x in implied[lit]:
                if not value[x]:
                    value[x] = 1
                    value[-x] = -1
                    trail.append(x)
                elif value[x] < 0:
                    # lit's counters stay untouched, so head stays on it
                    self.head = head
                    self.propagations += len(trail) - start
                    return False
            head += 1
            for c in counted[-lit]:
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
                            break
                elif not left:
                    ok = False
        self.head = head
        self.propagations += len(trail) - start
        return ok

    def _undo(self, mark: int, satisfied_mark: int) -> None:
        """Pop the trail back to ``mark`` and ``satisfied`` back to
        ``satisfied_mark``, the lengths both had at a branching, reversing
        the counters of the literals the propagation reached and the marks
        and counts of the clauses satisfied since."""
        trail, value, count, free = self.trail, self.value, self.count, self.free
        sat, clauses, counted = self.sat, self.clauses, self.counted
        satisfied = self.satisfied
        for lit in trail[self.head:]:
            value[lit] = value[-lit] = 0
        for lit in trail[mark : self.head]:
            value[lit] = value[-lit] = 0
            for c in counted[-lit]:
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

        Each decision sets true the unset literal in the most unsatisfied
        clauses (DLIS): the largest ``count``, ties to the first slot of
        ``count``, so 1..n before -n..-1.  Two values make the pick cheap.
        ``top`` bounds every unset literal's count from above, and no unset
        literal below slot ``start`` has count ``top``; the next candidate
        is ``count.index(top, start)``, and ``top`` drops when there is
        none.  Counts only fall beneath a branching, so both stay valid
        there.  Each branching pushes the trail length, the ``satisfied``
        length, its literal and these two values, so a conflict resumes the
        newest branching whose False side is still untried.
        """
        value, count, satisfied = self.value, self.count, self.satisfied
        size = len(count)
        n = size // 2
        clause_count = len(self.clauses)
        for lit in self.units:
            self.propagations += not value[lit]
            if not self._set(lit):
                return False
        branches: list[tuple[int, int, int, int, int]] = []
        top, start = max(count), 1
        ok = True
        while True:
            if not ok:
                if not branches:
                    return False
                mark, satisfied_mark, lit, top, start = branches.pop()
                self._undo(mark, satisfied_mark)
                ok = self._set(-lit)
                continue
            self._sweep()  # the propagation ended without conflict
            if len(satisfied) == clause_count:
                return True
            pure = self._lowest_pure() if self.pure else 0
            if pure:
                self._set(pure)  # satisfies clauses only: no conflict or unit
                continue
            self.decisions += 1
            if decision_budget is not None and self.decisions > decision_budget:
                raise ResourceLimitError(
                    f"DPLL search exceeded {decision_budget} decisions"
                )
            # an unsatisfied clause has two unset literals, so top stays >= 1
            while True:
                try:
                    slot = count.index(top, start)
                except ValueError:
                    top -= 1
                    start = 1
                    continue
                start = slot + 1
                if not value[slot]:
                    break
            lit = slot if slot <= n else slot - size
            branches.append((len(self.trail), len(satisfied), lit, top, start))
            ok = self._set(lit)


def _empty_lists(size: int) -> list[list[int]]:
    # repeat, unlike range, makes no int object per list
    return [[] for _ in repeat(None, size)]
