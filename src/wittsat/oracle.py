"""Independent ground truth: truth tables, a small DPLL solver, and an exact
matrix image of the algebra on 2^n-dimensional column space.

Nothing here reuses the term engine's product or sign rules; the matrix
backend multiplies honest matrices built from generator ladders, which is
what makes it a meaningful cross-check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .algebra import (
    D_ID,
    DiagonalElement,
    EFBTerm,
    ResourceLimitError,
    WittVector,
    pattern_field,
)
from .cnf import Assignment, CnfFormula

SAT = "SAT"
UNSAT = "UNSAT"

BRUTE_FORCE_LIMIT = 24
GAMMA_LIMIT = 5
_CHUNK = 1 << 20


@dataclass(frozen=True)
class BruteForceResult:
    verdict: str
    models: tuple[Assignment, ...]


def brute_force(f: CnfFormula) -> BruteForceResult:
    """Exhaustive truth-table run; the model list is complete."""
    if f.n > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"truth table over n={f.n} exceeds limit {BRUTE_FORCE_LIMIT}"
        )
    if f.has_empty_clause:
        return BruteForceResult(UNSAT, ())
    masks = []
    for c in f.clauses:
        pos = neg = 0
        for lit in c:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    total = 1 << f.n
    hits: list[int] = []
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        sigma = np.arange(start, stop, dtype=np.int64)
        ok = np.ones(stop - start, dtype=bool)
        for pos, neg in masks:
            ok &= ((sigma & pos) != 0) | ((~sigma & neg) != 0)
        hits.extend(int(x) for x in np.flatnonzero(ok) + start)
    models = tuple(Assignment.from_mask(m, f.n) for m in hits)
    return BruteForceResult(SAT if models else UNSAT, models)


@dataclass(frozen=True)
class DpllResult:
    verdict: str
    model: Assignment | None


def dpll(
    f: CnfFormula, *, decision_budget: int | None = None, stats: dict | None = None
) -> DpllResult:
    """Unit propagation, pure-literal elimination, then branching on the
    lowest still-occurring variable trying True first.  A returned model is
    re-verified by direct evaluation.  More than ``decision_budget``
    branchings raise ResourceLimitError; None means unbounded.  If *stats* is
    a dict, ``stats["decisions"]`` and ``stats["propagations"]`` (literals
    set by unit clauses) are set, also when the budget runs out."""
    stats = {} if stats is None else stats
    stats["decisions"] = stats["propagations"] = 0
    if f.has_empty_clause:
        return DpllResult(UNSAT, None)
    search = _TrailSearch(f.n, f.clauses)
    try:
        found = search.solve(decision_budget)
    finally:
        stats["decisions"] = search.decisions
        stats["propagations"] = search.propagations
    if not found:
        return DpllResult(UNSAT, None)
    # a variable the search never set reads True
    model = Assignment(tuple(search.value[v] >= 0 for v in range(1, f.n + 1)))
    if not model.satisfies(f):
        raise RuntimeError("solver produced a non-model; this is a defect")
    return DpllResult(SAT, model)


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


def _halve(m: np.ndarray) -> np.ndarray:
    if any(v % 2 for v in m.flat):
        raise ArithmeticError("ladder sum has an odd entry; halving is not exact")
    return m // 2


def _kron_all(blocks) -> np.ndarray:
    out = blocks[0]
    for b in blocks[1:]:
        out = np.kron(out, b)
    return out


class GammaRep:
    """Exact matrix image of the algebra, dimension 2^n (n <= 5).

    Generators use the standard ladder: position i carries the real 2x2
    blocks X = [[0,1],[1,0]] (square +1) and Y = [[0,-1],[1,0]] (square -1),
    prefixed by sign-alternating blocks so distinct positions anticommute.
    The ladder sums gamma_2i-1 +- gamma_2i have even entries, so p_i and q_i
    are integer matrices.  Entries are Python ints in object arrays, exact
    at any coefficient size (int64 would wrap silently), so every check
    against this backend is a zero-tolerance comparison.

    With this choice the variable-true idempotent q_ip_i is diagonal with
    support on indices whose i-th bit (variable 1 most significant) is 0,
    matching ``Assignment.primitive_index``.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or not 1 <= n <= GAMMA_LIMIT:
            raise ValueError(f"matrix backend supports 1 <= n <= {GAMMA_LIMIT}")
        self.n = n
        self.dim = 1 << n
        x = np.array([[0, 1], [1, 0]], dtype=object)
        y = np.array([[0, -1], [1, 0]], dtype=object)
        z = np.array([[1, 0], [0, -1]], dtype=object)
        eye2 = np.eye(2, dtype=object)
        gammas = []
        for i in range(n):
            before, after = [z] * i, [eye2] * (n - 1 - i)
            gammas.append(_kron_all(before + [x] + after))
            gammas.append(_kron_all(before + [y] + after))
        self.gamma = tuple(gammas)
        self._p = tuple(
            _halve(self.gamma[2 * i] + self.gamma[2 * i + 1]) for i in range(n)
        )
        self._q = tuple(
            _halve(self.gamma[2 * i] - self.gamma[2 * i + 1]) for i in range(n)
        )
        self._symbols: dict[tuple[int, str], np.ndarray] = {}
        self._patterns: dict[int, np.ndarray] = {}

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=object)

    def p(self, i: int) -> np.ndarray:
        return self._p[i - 1]

    def q(self, i: int) -> np.ndarray:
        return self._q[i - 1]

    def vector_matrix(self, v: WittVector) -> np.ndarray:
        if v.index > self.n:
            raise ValueError(f"vector index {v.index} exceeds n={self.n}")
        return self.p(v.index) if v.kind == "p" else self.q(v.index)

    def _symbol_matrix(self, pos: int, text: str) -> np.ndarray:
        key = (pos, text)
        got = self._symbols.get(key)
        if got is None:
            p, q = self.p(pos), self.q(pos)
            got = {
                "qp": lambda: np.dot(q, p),
                "pq": lambda: np.dot(p, q),
                "p": lambda: p,
                "q": lambda: q,
                "1": lambda: np.dot(q, p) + np.dot(p, q),
            }[text]()
            self._symbols[key] = got
        return got

    def term_matrix(self, t: EFBTerm) -> np.ndarray:
        if t.n != self.n:
            raise ValueError(f"term over n={t.n}, backend over n={self.n}")
        out = None
        for i, text in enumerate(t.symbols(), start=1):
            m = self._symbol_matrix(i, text)
            out = m if out is None else np.dot(out, m)
        return out * t.coeff

    def _pattern_matrix(self, pattern: int) -> np.ndarray:
        got = self._patterns.get(pattern)
        if got is None:
            got = self.identity()
            for i in range(self.n):
                code = pattern_field(pattern, i)
                if code == D_ID:
                    continue
                text = "qp" if code == 0b01 else "pq"
                got = np.dot(got, self._symbol_matrix(i + 1, text))
            self._patterns[pattern] = got
        return got

    def element_matrix(self, a: DiagonalElement) -> np.ndarray:
        if a.n != self.n:
            raise ValueError(f"element over n={a.n}, backend over n={self.n}")
        out = np.zeros((self.dim, self.dim), dtype=object)
        for pat, c in a.terms.items():
            out = out + self._pattern_matrix(pat) * c
        return out

    def matrix_of(self, x) -> np.ndarray:
        if isinstance(x, DiagonalElement):
            return self.element_matrix(x)
        if isinstance(x, EFBTerm):
            return self.term_matrix(x)
        if isinstance(x, WittVector):
            return self.vector_matrix(x)
        raise TypeError(f"cannot map {type(x).__name__} to a matrix")

    def check_generator_relations(self) -> bool:
        """gamma_i gamma_j + gamma_j gamma_i == 2 delta_ij (-1)^(i+1), exactly."""
        eye = self.identity()
        for i, gi in enumerate(self.gamma, start=1):
            for j, gj in enumerate(self.gamma, start=1):
                anti = np.dot(gi, gj) + np.dot(gj, gi)
                if i == j:
                    want = eye * (2 if i % 2 == 1 else -2)
                else:
                    want = eye * 0
                if not np.array_equal(anti, want):
                    return False
        return True
