"""Assignments and clauses as null planes, clause-induced sign patterns,
and the cover test over the discrete group of axis sign flips.

The cover engine here is a deliberately separate code path from the term
engine's zero test: the two are compared against each other (and against a
plain solver) by the differential suites.
"""

from __future__ import annotations

from .cnf import Assignment, Clause, CnfFormula, ResourceLimitError

# The sign convention: position i reads + on the p_i side and - on the q_i
# side.  A positive literal pins its clause's slot to + (its falsifier sets
# the variable false, the p_iq_i factor), a negated literal to -; an
# assignment's plane holds q_i where variable i is true and p_i where false.


def clause_slots(clause: Clause) -> list[tuple[int, int]]:
    """The fixed slots of the clause's pattern as (0-based position, sign)
    pairs in literal order; every other position is free.  A tautological
    clause has no pattern, and the caller, :func:`formula_patterns`, skips
    it; the cover search reads the literals as slots itself."""
    return [(lit - 1, 1) if lit > 0 else (-lit - 1, -1) for lit in clause]


def plane_text(clause: Clause) -> str:
    """The clause's falsifier plane, ``p1 q3``: p_i for a positive literal,
    q_i for a negated one, in position order.  Not for tautologies."""
    return " ".join(
        f"{'p' if lit > 0 else 'q'}{abs(lit)}" for lit in sorted(clause, key=abs)
    )


def sign_text(a: Assignment) -> str:
    """The sign vector of the assignment's plane, ``-`` where true."""
    return "".join("-" if v else "+" for v in a.values)


def formula_patterns(f: CnfFormula) -> list[str]:
    """The clause-induced patterns as ``+``/``-``/``*`` (free) strings; a
    pattern matches exactly the sign vectors of the assignments that falsify
    its clause.  Tautologies induce nothing and are skipped; an empty clause
    matches everything."""
    pats = ["*" * f.n] if f.has_empty_clause else []
    for clause in f.clauses:
        if not clause.is_tautological:
            row = ["*"] * f.n
            for pos, sign in clause_slots(clause):
                row[pos] = "+" if sign == 1 else "-"
            pats.append("".join(row))
    return pats


def _first_uncovered(
    clauses: list[Clause], n: int, decision_budget: int | None
) -> tuple[list[int] | None, int, int]:
    """(the signs of a sign vector no clause's pattern matches, 0 where
    free, or None if they cover all; branchings; forced signs assigned).

    Positions are assigned along a trail and unassigned by popping it.  A
    pattern is live while none of its fixed slots is contradicted.  A live
    pattern whose slots all agree matches every completion, so the branch
    is covered; a live pattern with one unassigned slot left forces the
    opposite sign there (unit propagation read on covers).  Branching takes
    the position fixed by the most live patterns, lowest index on ties, +1
    first; a position left unassigned reads +1.  More than
    ``decision_budget`` branchings raise ResourceLimitError.

    Variable v's position is slot v at +1 and slot size - v at -1, with
    size = 2n+1: a literal's fixed slot is the literal mod size, ``size -
    x`` is slot x's opposite, ``var`` maps a slot to its variable, and no
    list is subscripted with a negative int.  ``value[x]`` is 1 once x is
    assigned, -1 once its opposite is, else 0.  ``occurs[x]`` lists the
    patterns that fix x, and ``left`` counts a pattern's fixed slots not
    yet agreeing.  Assigning x walks ``occurs[x]`` once: a count that falls
    to 1 queues the opposite of the pattern's unassigned slot (none if the
    last slot is contradicted), and one that falls to 0 is a cover, after
    which the walk still finishes its decrements, since the undo adds 1
    back on all of ``occurs[x]``.  After a propagation ends without a
    cover, a sweep over ``trail[swept:]`` lowers each assigned position's
    weight by ``assigned_mark``, and marks a pattern ``dead``, puts it on
    ``killed`` and lowers its positions' weights when it meets a
    contradicted slot, so a branch that ends in a cover never touches them;
    the undo reverses the sweep since the branching.

    The pick keeps ``top``, a bound on every weight, and ``start``, below
    which no position weighs ``top``: it is ``weight.index(top, start)``,
    whose scan ends at a sentinel equal to ``top`` past position n, and
    then ``top`` drops to the largest weight and the pick is its first
    position.  Weights only fall beneath a branching, which pushes both
    values next to its marks.  At a decision point every live pattern has
    two unassigned slots, so the largest weight is at least 1 and no
    assigned position (at most -1) is picked.
    """
    size = 2 * n + 1
    occurs = [[] for _ in range(size)]
    slots = []
    for j, clause in enumerate(clauses):
        if len(clause) == 3:  # the common width, unrolled
            a, b, c = clause
            pattern = a, b, c = a % size, b % size, c % size
            occurs[a].append(j)
            occurs[b].append(j)
            occurs[c].append(j)
        else:
            pattern = [x % size for x in clause]
            for x in pattern:
                occurs[x].append(j)
        slots.append(pattern)
    weight = [len(occurs[v]) + len(occurs[size - v]) for v in range(1, n + 1)]
    weight = [0, *weight, 0]  # by variable; n + 1 holds the pick's sentinel
    var = [*range(n + 1), *range(n, 0, -1)]  # the variable of each slot
    left = list(map(len, slots))  # fixed slots not yet agreeing
    dead = [False] * len(slots)  # a swept slot contradicts the pattern
    killed: list[int] = []
    assigned_mark = len(slots) + 1
    top, start = max(weight), 1
    value = [0] * size
    trail: list[int] = []
    swept = decisions = propagations = 0
    # (trail mark, killed mark, position tried at +1, top, start)
    branches: list[tuple[int, int, int, int, int]] = []
    branch_sign = 0  # 1 when the queue starts with a branching's own sign
    queue = [size - p[0] for p in slots if len(p) == 1]
    while True:
        mark = len(trail)
        covered = False
        while queue and not covered:
            x = queue.pop()
            if value[x]:
                covered = value[x] < 0
                continue
            value[x] = 1
            value[size - x] = -1
            trail.append(x)
            for j in occurs[x]:
                k = left[j] - 1
                left[j] = k
                if k == 1:
                    for y in slots[j]:
                        if not value[y]:
                            queue.append(size - y)
                            break
                elif not k:
                    covered = True
        propagations += len(trail) - mark - branch_sign
        if not covered:
            for x in trail[swept:]:
                weight[var[x]] -= assigned_mark
                for j in occurs[size - x]:
                    if not dead[j]:
                        dead[j] = True
                        killed.append(j)
                        for y in slots[j]:
                            weight[var[y]] -= 1
            swept = len(trail)
            if len(killed) == len(slots):
                return value[1 : n + 1], decisions, propagations
            decisions += 1
            if decision_budget is not None and decisions > decision_budget:
                raise ResourceLimitError(
                    f"cover search exceeded {decision_budget} decisions"
                )
            weight[n + 1] = top
            v = weight.index(top, start)
            if v > n:
                weight[n + 1] = 0
                top = max(weight)
                v = weight.index(top)
            start = v + 1
            branches.append((swept, len(killed), v, top, start))
            queue = [v]
            branch_sign = 1
            continue
        if not branches:
            return None, decisions, propagations
        mark, killed_mark, v, top, start = branches.pop()
        for x in trail[mark:]:
            value[x] = value[size - x] = 0
            for j in occurs[x]:
                left[j] += 1
        for x in trail[mark:swept]:
            weight[var[x]] += assigned_mark
        for j in killed[killed_mark:]:
            dead[j] = False
            for y in slots[j]:
                weight[var[y]] += 1
        del trail[mark:], killed[killed_mark:]
        swept = mark
        queue = [size - v]


def cover_verdict(
    f: CnfFormula, decision_budget: int | None = None
) -> tuple[bool, Assignment | None, dict[str, int]]:
    """(covered, satisfying assignment from the uncovered witness, counters).

    Covered means unsatisfiable; an uncovered sign vector translates back to
    an assignment falsifying no clause, true where the sign is -1.  The
    counters are ``decisions`` (branchings) and ``propagations`` (signs
    forced by a pattern with one unassigned slot left).  More than
    ``decision_budget`` branchings raise ResourceLimitError; None means
    unbounded.
    """
    if f.has_empty_clause:  # its pattern has no fixed slot: it matches all
        return True, None, {"decisions": 0, "propagations": 0}
    clauses = [c for c in f.clauses if not c.is_tautological]
    found, decisions, propagations = _first_uncovered(clauses, f.n, decision_budget)
    counters = {"decisions": decisions, "propagations": propagations}
    if found is None:
        return True, None, counters
    return False, Assignment(tuple([s < 0 for s in found])), counters
