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

    Each literal has a slot: v is slot v and -v is slot size - v, with
    size = 2n+1, the layout that indexing by the signed literal gives; the
    names below write -x for slot size - x, the negation.  Slot 0 is
    unused.  The clauses are translated to slots once, so no list is ever
    subscripted with a negative int: CPython 3.11 and later specialize list
    subscripts for non-negative ints only (timeit on 3.11.7, 2-vCPU Linux
    VM: a load 11 ns against 24 ns, ``L[i] -= 1`` 32 ns against 58 ns);
    3.10 specializes nothing, so there the layout gains little.
    ``value[x]`` is 1, -1 or 0 (unset), so ``value[1..n]`` reads off the
    model; a literal is set when it goes on the trail, and the clauses it
    falsifies are visited when the propagation reaches it (``head``).

    Two-literal clauses propagate through implication lists: a clause
    (a b) puts b on ``implied[-a]`` and a on ``implied[-b]``, and reaching
    a literal sets each literal it implies that is still unset.  An implied
    literal already false is a conflict, which ends the propagation there.
    A tautology (x -x) puts x on ``implied[x]`` and -x on ``implied[-x]``:
    each literal implies only itself, so it never sets or conflicts.
    Every other clause keeps a counter: ``counted[x]`` lists the clauses of
    other widths that contain x, and ``free`` counts a clause's literals not
    reached false.  A clause at ``free`` 0 has no true literal, and one at
    ``free`` 1 is unit only if its last literal is unset.  Propagation
    reaches the same fixpoint in any order, so no decision depends on which
    clauses imply and which count.  ``propagations`` counts the literals
    set by unit clauses; only on a branch that ends in a conflict can it be
    lower than with a counter on every clause, since the propagation stops
    at the first false implied literal.

    ``count[x]`` is the number of unsatisfied clauses that contain x, exact
    for every unset x at a decision point.  A sweep over the trail past
    ``swept`` keeps it after a propagation ends without conflict, so a
    branch that ends in a conflict never touches it.  A clause of another
    width is marked in ``sat`` and put on ``satisfied`` by its first true
    literal, which lowers the count of each of its literals.  A two-literal
    clause is never marked; it is counted through the implication lists,
    where ``implied[-y]`` lists y's partners.  An unsatisfied one has both
    literals unset, so an unset literal's count falls exactly when a
    partner is swept true.  Backtracking adds back the partner counts of
    the swept part of the trail, and the counts of the clauses put on
    ``satisfied`` since the branching.  A variable still occurs while
    either polarity's count is positive and is pure while exactly one is;
    every variable that turns pure is pushed on ``pure``, a heap whose
    entries are checked when popped.  A decision is taken only when no
    variable is pure, and backtracking restores that state, so it clears
    the heap.  With two-literal clauses unmarked, ``satisfied`` cannot tell
    when every clause is satisfied; the decision's pick reads it instead,
    as no unset literal with a positive count (see ``solve``).
    """

    def __init__(self, n: int, clauses: Sequence[tuple[int, ...]]):
        size = 2 * n + 1
        self.free = free = list(map(len, clauses))
        binary = free.count(2)
        self.implied = implied = _empty_lists(size) if binary else [()] * size
        self.counted = counted = (
            _empty_lists(size) if binary < len(free) else [()] * size
        )
        self.count = count = [0] * (size + 1)  # slot size: the pick's sentinel
        self.clauses = slots = []
        for i, clause in enumerate(clauses):
            if len(clause) == 2:
                a, b = clause
                a %= size  # -v becomes size - v
                b %= size
                implied[size - a].append(b)
                implied[size - b].append(a)
                count[a] += 1
                count[b] += 1
                slots.append((a, b))
            else:
                clause = [x % size for x in clause]
                for x in clause:
                    counted[x].append(i)
                    count[x] += 1
                slots.append(clause)
        self.units = [c[0] for c in slots if len(c) == 1] if 1 in free else []
        self.value = [0] * size
        self.trail: list[int] = []
        self.head = 0
        self.pure: list[int] = []
        if 0 in count[1:size]:  # else every literal occurs and none is pure
            self.pure = [
                v for v in range(1, n + 1)
                if (count[v] > 0) != (count[size - v] > 0)
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
        size = len(value)
        trail, free, clauses = self.trail, self.free, self.clauses
        implied, counted = self.implied, self.counted
        value[lit] = 1
        value[size - lit] = -1
        trail.append(lit)
        start = len(trail)
        head, ok = self.head, True
        while ok and head < len(trail):
            lit = trail[head]
            for x in implied[lit]:
                if not value[x]:
                    value[x] = 1
                    value[size - x] = -1
                    trail.append(x)
                elif value[x] < 0:
                    # lit's counters stay untouched, so head stays on it
                    self.head = head
                    self.propagations += len(trail) - start
                    return False
            head += 1
            for c in counted[size - lit]:
                left = free[c] - 1
                free[c] = left
                if left == 1:
                    # at most one literal is unset; none if the last one
                    # is already on the trail, true or unreached
                    for x in clauses[c]:
                        if not value[x]:
                            value[x] = 1
                            value[size - x] = -1
                            trail.append(x)
                            break
                elif not left:
                    ok = False
        self.head = head
        self.propagations += len(trail) - start
        return ok

    def solve(self, decision_budget: int | None) -> bool:
        """Search to a satisfying ``value`` (True) or exhaust it (False).

        Each round of the loop either backtracks after a conflict, or
        sweeps the trail and then sets the lowest pure variable's literal
        or decides.  Each decision sets true the unset literal in the most
        unsatisfied clauses (DLIS): the largest ``count``, ties to the
        first slot, so x1..xn before -xn..-x1.  Two values make the pick
        cheap.  ``top`` bounds every unset literal's count from above, and
        no unset literal below slot ``start`` has count ``top``; the next
        candidate is ``count.index(top, start)``, which stops at the
        sentinel slot past the last literal when there is none, and then
        ``top`` drops.  Counts only fall beneath a branching, so both stay
        valid there.  An unsatisfied clause has two unset literals after a
        propagation, so ``top`` reaching 0 means every clause is satisfied.
        Each branching pushes the trail length, the ``satisfied`` length,
        its literal and these two values, so a conflict resumes the newest
        branching whose False side is still untried.
        """
        value, count, trail, pure = self.value, self.count, self.trail, self.pure
        clauses, free, implied, counted = (
            self.clauses, self.free, self.implied, self.counted
        )
        size = len(value)
        sat = [False] * len(clauses)
        satisfied: list[int] = []
        for lit in self.units:
            self.propagations += not value[lit]
            if not self._set(lit):
                return False
        branches: list[tuple[int, int, int, int, int]] = []
        top, start = max(count), 1
        swept = 0
        ok = True
        while True:
            if not ok:
                if not branches:
                    return False
                mark, satisfied_mark, lit, top, start = branches.pop()
                # undo: reverse the counters of the literals the propagation
                # reached, then the sweep of trail[mark:swept]
                head = self.head
                for x in trail[head:]:
                    value[x] = value[size - x] = 0
                for x in trail[mark:head]:
                    value[x] = value[size - x] = 0
                    for c in counted[size - x]:
                        free[c] += 1
                for x in trail[mark:swept]:
                    for y in implied[size - x]:
                        count[y] += 1
                for c in satisfied[satisfied_mark:]:
                    sat[c] = False
                    for x in clauses[c]:
                        count[x] += 1
                del trail[mark:]
                del satisfied[satisfied_mark:]
                self.head = swept = mark
                pure.clear()
                ok = self._set(size - lit)
                continue
            # the propagation ended without conflict: sweep trail[swept:]
            for lit in trail[swept:]:
                for x in implied[size - lit]:
                    count[x] -= 1
                    if not count[x] and count[size - x] and not value[x]:
                        heappush(pure, min(x, size - x))
                for c in counted[lit]:
                    if not sat[c]:
                        sat[c] = True
                        satisfied.append(c)
                        for x in clauses[c]:
                            count[x] -= 1
                            if not count[x] and count[size - x] and not value[x]:
                                heappush(pure, min(x, size - x))
            swept = len(trail)
            lit = 0
            while pure and not lit:
                v = heappop(pure)
                if not value[v] and (count[v] > 0) != (count[size - v] > 0):
                    lit = v if count[v] else size - v
            if lit:
                self._set(lit)  # satisfies clauses only: no conflict or unit
                continue
            while top:
                count[size] = top  # the sentinel: the scan ends there
                lit = count.index(top, start)
                start = lit + 1
                if lit == size:
                    top, start = top - 1, 1
                elif not value[lit]:
                    break
            else:
                return True  # no unset literal is in an unsatisfied clause
            self.decisions += 1
            if decision_budget is not None and self.decisions > decision_budget:
                raise ResourceLimitError(
                    f"DPLL search exceeded {decision_budget} decisions"
                )
            branches.append((len(trail), len(satisfied), lit, top, start))
            ok = self._set(lit)


def _empty_lists(size: int) -> list[list[int]]:
    # repeat, unlike range, makes no int object per list
    return [[] for _ in repeat(None, size)]
