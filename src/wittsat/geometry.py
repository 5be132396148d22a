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
    clause has no pattern, and the callers skip it."""
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
    slots: list[list[tuple[int, int]]], n: int, decision_budget: int | None
) -> tuple[tuple[int, ...] | None, int, int]:
    """Search for a sign vector that no pattern matches, each pattern given
    by its fixed slots (:func:`clause_slots`); also return the number of
    branchings and of forced signs that got assigned.

    Positions are assigned along a trail and unassigned by popping it.  A
    pattern is live while none of its fixed slots is contradicted.  A live
    pattern whose slots all agree matches every completion, so the branch
    is covered; a live pattern with one unassigned slot left forces the
    opposite sign there (unit propagation read on covers).  Branching takes
    the position fixed by the most live patterns, lowest index on ties, +1
    first.  Positions left unassigned read +1 in the witness.  More than
    ``decision_budget`` branchings raise ResourceLimitError.

    An assignment updates only ``agree``, the assigned slots that match each
    pattern.  That alone finds covers and forced signs: a pattern with no
    slot left outside ``agree`` has none contradicted, and one with a single
    slot left forces it only if it is unassigned.  Dead patterns are found
    by a sweep over ``trail[swept:]`` after a propagation ends without a
    cover, so a branch that ends in a cover never touches them.  The sweep
    marks a pattern ``dead``, puts it on ``killed`` and lowers the branching
    weights of its slots when it meets a contradicted slot, and the undo
    reverses that for the patterns killed since the branching, so at a
    decision point the list holds exactly the dead patterns.

    Two values make the pick cheap.  ``top`` bounds every weight from
    above, and no position below ``start`` has weight ``top``; the pick is
    ``weight.index(top, start)``.  When no position matches, ``top`` drops
    to the largest weight and the pick is its first position, from 0 on.
    Beneath a branching weights only fall, so both values stay valid there,
    and each branching pushes them next to its marks.  At a decision point
    every live pattern has two unassigned slots, so the largest weight is
    at least 1, and an assigned position, whose weight is at most -1, is
    never picked.
    """
    decisions = propagations = 0
    if not all(slots):
        return None, 0, 0  # a pattern without fixed slots matches everything
    occurs = {1: [[] for _ in range(n)], -1: [[] for _ in range(n)]}
    weight = [0] * n
    for j, pattern in enumerate(slots):
        for pos, sign in pattern:
            occurs[sign][pos].append(j)
            weight[pos] += 1
    size = list(map(len, slots))
    agree = [0] * len(slots)  # assigned slots that match
    dead = [False] * len(slots)  # a swept slot contradicts the pattern
    killed: list[int] = []
    # live patterns fixing each position as of the last sweep; an assigned
    # position is lowered by `assigned_mark` so that the pick skips it
    assigned_mark = len(slots) + 1
    top, start = max(weight), 0
    value = [0] * n
    trail: list[int] = []
    swept = 0
    # (trail mark, killed mark, position tried at +1, top, start)
    branches: list[tuple[int, int, int, int, int]] = []
    branch_sign = 0  # 1 when the queue starts with a branching's own sign
    queue = [(p[0][0], -p[0][1]) for p in slots if len(p) == 1]

    def propagate(queue: list[tuple[int, int]]) -> bool:
        """Assign the queued positions and what they force; False on cover."""
        while queue:
            pos, sign = queue.pop()
            if value[pos]:
                if value[pos] != sign:
                    return False
                continue
            value[pos] = sign
            trail.append(pos)
            weight[pos] -= assigned_mark
            agreeing = occurs[sign][pos]
            for j in agreeing:
                agree[j] += 1
            for j in agreeing:
                left = size[j] - agree[j]
                if left == 0:
                    return False
                if left == 1:
                    # none unassigned if the last slot is contradicted
                    for q, s in slots[j]:
                        if not value[q]:
                            queue.append((q, -s))
                            break
        return True

    def undo(mark: int, killed_mark: int) -> None:
        while len(trail) > mark:
            pos = trail.pop()
            sign = value[pos]
            value[pos] = 0
            weight[pos] += assigned_mark
            for j in occurs[sign][pos]:
                agree[j] -= 1
        for j in killed[killed_mark:]:
            dead[j] = False
            for q, _ in slots[j]:
                weight[q] += 1
        del killed[killed_mark:]

    while True:
        mark = len(trail)
        ok = propagate(queue)
        propagations += len(trail) - mark - branch_sign
        if ok:
            for pos in trail[swept:]:
                for j in occurs[-value[pos]][pos]:
                    if not dead[j]:
                        dead[j] = True
                        killed.append(j)
                        for q, _ in slots[j]:
                            weight[q] -= 1
            swept = len(trail)
            if len(killed) == len(slots):
                return tuple(v or 1 for v in value), decisions, propagations
            decisions += 1
            if decision_budget is not None and decisions > decision_budget:
                raise ResourceLimitError(
                    f"cover search exceeded {decision_budget} decisions"
                )
            try:
                pos = weight.index(top, start)
            except ValueError:
                top = max(weight)
                pos = weight.index(top)
            start = pos + 1
            branches.append((swept, len(killed), pos, top, start))
            queue = [(pos, 1)]
            branch_sign = 1
            continue
        if not branches:
            return None, decisions, propagations
        mark, killed_mark, pos, top, start = branches.pop()
        undo(mark, killed_mark)
        swept = mark
        queue = [(pos, -1)]


def cover_verdict(
    f: CnfFormula, decision_budget: int | None = None
) -> tuple[bool, Assignment | None, dict[str, int]]:
    """(covered, satisfying assignment built from the uncovered witness,
    counters).

    Covered means unsatisfiable; an uncovered sign vector translates back to
    an assignment falsifying no clause, true where the sign is -1.  The
    counters are ``decisions`` (branchings) and ``propagations`` (signs
    forced by a pattern with one unassigned slot left).  More than
    ``decision_budget`` branchings raise ResourceLimitError; None means
    unbounded.
    """
    fixed = [[]] if f.has_empty_clause else []
    fixed += [clause_slots(c) for c in f.clauses if not c.is_tautological]
    found, decisions, propagations = _first_uncovered(fixed, f.n, decision_budget)
    counters = {"decisions": decisions, "propagations": propagations}
    if found is None:
        return True, None, counters
    return False, Assignment(tuple(s == -1 for s in found)), counters
