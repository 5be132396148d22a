"""A frozen copy of the clause-copying DPLL the oracle used before its
trail search, kept only as the reference the trail search is compared
against (``test_oracle.py``).  It is not part of the package.

Each assignment copies the clause list, and each step rebuilds the set of
occurring literals, so a step costs O(m); the rules are the oracle's: unit
propagation to fixpoint, then the lowest pure literal, then the lowest
still-occurring variable, True first.  The only change from the original is
that the decision count is returned with the trail.
"""

from __future__ import annotations

from wittsat.algebra import ResourceLimitError
from wittsat.cnf import Assignment, CnfFormula


def reference_dpll(f: CnfFormula, decision_budget: int | None = None):
    """(model or None, decisions) with the reference solver."""
    if f.has_empty_clause:
        return None, 0
    clauses = [frozenset(c) for c in f.clauses]
    trail, decisions = _dpll_solve(clauses, decision_budget)
    if trail is None:
        return None, decisions
    found = {abs(lit): lit > 0 for lit in trail}
    return Assignment(tuple(found.get(v, True) for v in range(1, f.n + 1))), decisions


def _dpll_assign(clauses: list[frozenset[int]], lit: int):
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = c - {-lit}
            if not c:
                return None
        out.append(c)
    return out


def _dpll_solve(clauses: list[frozenset[int]], decision_budget: int | None):
    trail: list[int] = []
    branches: list[tuple[list[frozenset[int]], int, int]] = []
    decisions = 0
    while True:
        if clauses is None:
            if not branches:
                return None, decisions
            saved, mark, v = branches.pop()
            del trail[mark:]
            clauses = _dpll_assign(saved, -v)
            if clauses is not None:
                trail.append(-v)
            continue
        if not clauses:
            return trail, decisions
        unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
        if unit is not None:
            clauses = _dpll_assign(clauses, unit)
            trail.append(unit)
            continue
        lits = set().union(*clauses)
        pure = next((l for l in sorted(lits, key=abs) if -l not in lits), None)
        if pure is not None:
            clauses = _dpll_assign(clauses, pure)
            trail.append(pure)
            continue
        decisions += 1
        if decision_budget is not None and decisions > decision_budget:
            raise ResourceLimitError(
                f"DPLL search exceeded {decision_budget} decisions"
            )
        v = min(abs(l) for l in lits)
        branches.append((clauses, len(trail), v))
        clauses = _dpll_assign(clauses, v)
        trail.append(v)
