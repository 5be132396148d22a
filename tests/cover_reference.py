"""A frozen copy of the cover search as it was before its counters were
deferred to decision points, kept only as the reference the current
:func:`wittsat.geometry.cover_verdict` is compared against
(``test_geometry.py``).  It is not part of the package.

Each assignment marks the patterns it contradicts and kills them on the
spot, the agree loop skips contradicted patterns, and every branching scans
all n weights with ``max`` and ``index``.  The changes from the original:
the clause patterns are built here rather than imported, and the search
returns its decision count and its propagations (forced signs that got
assigned: every assignment that is not a branching's own sign).
"""

from __future__ import annotations

from wittsat.cnf import CnfFormula, ResourceLimitError


def reference_cover(f: CnfFormula, decision_budget: int | None = None):
    """(witness sign vector or None, decisions, propagations)."""
    patterns = [{}] if f.has_empty_clause else []
    for clause in f.clauses:
        if not clause.is_tautological:
            patterns.append({abs(lit) - 1: 1 if lit > 0 else -1 for lit in clause})
    return _first_uncovered(patterns, f.n, decision_budget)


def _first_uncovered(patterns, n, decision_budget=None):
    slots = [tuple(p.items()) for p in patterns]
    if not all(slots):
        return None, 0, 0  # a pattern without fixed slots matches everything
    occurs = {1: [[] for _ in range(n)], -1: [[] for _ in range(n)]}
    for j, pattern in enumerate(slots):
        for pos, sign in pattern:
            occurs[sign][pos].append(j)
    size = [len(pattern) for pattern in slots]
    agree = [0] * len(slots)  # assigned slots that match
    contradicted = [0] * len(slots)  # assigned slots that contradict
    killed: list[int] = []
    applied = 0
    # live patterns fixing each position, once applied; an assigned position
    # is lowered by `assigned_mark` so that max() picks only unassigned ones
    assigned_mark = len(slots) + 1
    weight = [0] * n
    for pattern in slots:
        for pos, _ in pattern:
            weight[pos] += 1
    value = [0] * n
    trail: list[int] = []
    # (trail mark, killed mark, position) tried at +1
    branches: list[tuple[int, int, int]] = []
    decisions = 0
    branch_signs = 0  # assignments that were a branching's own sign
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
            for j in occurs[-sign][pos]:
                contradicted[j] += 1
                if contradicted[j] == 1:
                    killed.append(j)
            agreeing = occurs[sign][pos]
            for j in agreeing:
                agree[j] += 1
            for j in agreeing:
                if contradicted[j]:
                    continue
                left = size[j] - agree[j]
                if left == 0:
                    return False
                if left == 1:
                    q, s = next((q, s) for q, s in slots[j] if not value[q])
                    queue.append((q, -s))
        return True

    def undo(mark: int, killed_mark: int) -> None:
        while len(trail) > mark:
            pos = trail.pop()
            sign = value[pos]
            value[pos] = 0
            weight[pos] += assigned_mark
            for j in occurs[sign][pos]:
                agree[j] -= 1
            for j in occurs[-sign][pos]:
                contradicted[j] -= 1
        for j in killed[killed_mark:applied]:
            for q, _ in slots[j]:
                weight[q] += 1
        del killed[killed_mark:]

    assigned = 0
    while True:
        start = len(trail)
        ok = propagate(queue)
        assigned += len(trail) - start
        if ok:
            if len(killed) == len(slots):
                witness = tuple(v or 1 for v in value)
                return witness, decisions, assigned - branch_signs
            decisions += 1
            if decision_budget is not None and decisions > decision_budget:
                raise ResourceLimitError(
                    f"cover search exceeded {decision_budget} decisions"
                )
            for j in killed[applied:]:
                for q, _ in slots[j]:
                    weight[q] -= 1
            applied = len(killed)
            pos = weight.index(max(weight))
            branches.append((len(trail), applied, pos))
            queue = [(pos, 1)]
            branch_signs += 1
            continue
        if not branches:
            return None, decisions, assigned - branch_signs
        mark, applied_mark, pos = branches.pop()
        undo(mark, applied_mark)
        applied = applied_mark
        queue = [(pos, -1)]
        branch_signs += 1
