"""Assignments and clauses as null planes, clause-induced sign patterns,
and the cover test over the discrete group of axis sign flips.

The cover engine here is a deliberately separate code path from the term
engine's zero test: the two are compared against each other (and against a
plain solver) by the differential suites.
"""

from __future__ import annotations

from .cnf import (
    Assignment,
    Clause,
    CnfFormula,
    Frozen,
    ResourceLimitError,
    TautologyError,
)

FREE = 0


class WittVector(Frozen):
    """One basis null vector, p_i or q_i; the index is the 1-based position."""

    __slots__ = ("index", "kind")

    def __init__(self, index: int, kind: str):
        if kind not in ("p", "q"):
            raise ValueError(f"kind must be 'p' or 'q', got {kind!r}")
        if index < 1:
            raise ValueError("positions are numbered from 1")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_key", (index, kind))

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


class SignVector(Frozen):
    """A diagonal isometry, one sign per axis.

    +1 keeps p_i inside the mapped reference plane, -1 swaps in q_i; the
    all-plus vector is the reference plane itself.
    """

    __slots__ = ("eps",)

    def __init__(self, eps: tuple[int, ...]):
        if not eps:
            raise ValueError("sign vectors need at least one position")
        if any(e not in (1, -1) for e in eps):
            raise ValueError("sign entries must be +1 or -1")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "_key", eps)

    def to_text(self) -> str:
        return "".join("+" if e == 1 else "-" for e in self.eps)


class TernaryPattern(Frozen):
    """Sign constraints with free slots; stands for 2^(free) sign vectors."""

    __slots__ = ("slots",)

    def __init__(self, slots: tuple[int, ...]):
        if not slots:
            raise ValueError("patterns need at least one position")
        if any(s not in (1, -1, FREE) for s in slots):
            raise ValueError("slots must be +1, -1 or free (0)")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "_key", slots)

    def to_text(self) -> str:
        return "".join("+" if s == 1 else "-" if s == -1 else "*" for s in self.slots)


class TotallyNullPlane(Frozen):
    """A plane spanned by basis null vectors, at most one per position."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[WittVector, ...]):
        positions = [v.index for v in generators]
        if len(set(positions)) != len(positions):
            raise ValueError(
                "generators clash: two vectors at one position cannot both "
                "lie in a totally null plane"
            )
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_key", generators)


def mtnp_of_assignment(a: Assignment) -> SignVector:
    """Sign vector of the assignment's annihilating plane: -1 where true.

    A true variable puts q_ip_i in the assignment's basis term, whose first
    factor is q_i, and q_i is the -1 side of the sign convention.
    """
    return SignVector(tuple(-1 if v else 1 for v in a.values))


def assignment_of_sign_vector(s: SignVector) -> Assignment:
    return Assignment(tuple(e == -1 for e in s.eps))


def tnp_of_clause(clause: Clause, n: int) -> TotallyNullPlane:
    """The clause's falsifier plane: p_i for a positive literal, q_i for a
    negated one, nothing at untouched positions."""
    if clause.is_tautological:
        raise TautologyError(f"tautological clause {clause} has no plane")
    gens = []
    for lit in sorted(clause, key=abs):
        if abs(lit) > n:
            raise ValueError(f"variable {abs(lit)} exceeds n={n}")
        gens.append(WittVector(abs(lit), "p" if lit > 0 else "q"))
    return TotallyNullPlane(tuple(gens))


def clause_slots(clause: Clause, n: int) -> dict[int, int]:
    """The fixed slots of the clause's pattern as ``{position: sign}``.

    A positive literal pins its slot to +1 (the p side), a negated literal
    to -1; every other position is free and absent from the dict.
    """
    if clause.is_tautological:
        raise TautologyError(f"tautological clause {clause} induces no pattern")
    slots = {}
    for lit in clause:
        if abs(lit) > n:
            raise ValueError(f"variable {abs(lit)} exceeds n={n}")
        slots[abs(lit) - 1] = 1 if lit > 0 else -1
    return slots


def induced_pattern(clause: Clause, n: int) -> TernaryPattern:
    """Sign vectors of the isometries whose plane holds the clause plane.

    Slots are pinned as in :func:`clause_slots`.  Exactly the assignments
    falsifying the clause correspond to matching sign vectors.
    """
    slots = [FREE] * n
    for pos, sign in clause_slots(clause, n).items():
        slots[pos] = sign
    return TernaryPattern(tuple(slots))


# Positions per block of the branching weights: a branching reads one maximum
# per block and recomputes only the blocks whose weights changed.
_BLOCK = 64


def _first_uncovered(
    patterns: list[dict[int, int]], n: int, decision_budget: int | None
) -> tuple[tuple[int, ...] | None, int, int]:
    """Search for a sign vector that no pattern matches; also return the
    number of branchings and of forced signs that got assigned.

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
    decision point the list holds exactly the dead patterns.  ``top`` holds
    the weights' maxima over blocks of ``_BLOCK`` positions, and a block is
    recomputed only once one of its weights changed since the last
    branching: at a position swept or unswept, or at a slot of a pattern
    killed or revived.  The first block holding the top value, and the first
    position in it, give the lowest position of the heaviest weight.
    """
    decisions = propagations = 0
    slots = [tuple(p.items()) for p in patterns]
    if not all(slots):
        return None, 0, 0  # a pattern without fixed slots matches everything
    occurs = {1: [[] for _ in range(n)], -1: [[] for _ in range(n)]}
    for j, pattern in enumerate(slots):
        for pos, sign in pattern:
            occurs[sign][pos].append(j)
    size = [len(pattern) for pattern in slots]
    agree = [0] * len(slots)  # assigned slots that match
    dead = [False] * len(slots)  # a swept slot contradicts the pattern
    killed: list[int] = []
    # live patterns fixing each position as of the last sweep; an assigned
    # position is lowered by `assigned_mark` so that max() picks only
    # unassigned ones
    assigned_mark = len(slots) + 1
    weight = [0] * n
    for pattern in slots:
        for pos, _ in pattern:
            weight[pos] += 1
    top = [max(weight[b : b + _BLOCK]) for b in range(0, n, _BLOCK)]
    stale: set[int] = set()  # blocks whose `top` entry is out of date
    value = [0] * n
    trail: list[int] = []
    swept = 0
    # (trail mark, killed mark, position) tried at +1
    branches: list[tuple[int, int, int]] = []
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
        # an unswept position's weight is back where the last branching read
        # it once it is unassigned
        for pos in trail[mark:swept]:
            stale.add(pos // _BLOCK)
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
                stale.add(q // _BLOCK)
        del killed[killed_mark:]

    while True:
        start = len(trail)
        ok = propagate(queue)
        propagations += len(trail) - start - branch_sign
        if ok:
            for pos in trail[swept:]:
                stale.add(pos // _BLOCK)
                for j in occurs[-value[pos]][pos]:
                    if not dead[j]:
                        dead[j] = True
                        killed.append(j)
                        for q, _ in slots[j]:
                            weight[q] -= 1
                            stale.add(q // _BLOCK)
            swept = len(trail)
            if len(killed) == len(slots):
                return tuple(v or 1 for v in value), decisions, propagations
            decisions += 1
            if decision_budget is not None and decisions > decision_budget:
                raise ResourceLimitError(
                    f"cover search exceeded {decision_budget} decisions"
                )
            for b in stale:
                top[b] = max(weight[b * _BLOCK : (b + 1) * _BLOCK])
            stale.clear()
            heaviest = max(top)
            first = top.index(heaviest) * _BLOCK
            pos = weight.index(heaviest, first, first + _BLOCK)
            branches.append((swept, len(killed), pos))
            queue = [(pos, 1)]
            branch_sign = 1
            continue
        if not branches:
            return None, decisions, propagations
        mark, killed_mark, pos = branches.pop()
        undo(mark, killed_mark)
        swept = mark
        queue = [(pos, -1)]


def formula_patterns(f: CnfFormula) -> list[TernaryPattern]:
    """Clause-induced patterns of a formula.  Tautologies induce nothing and
    are skipped; an empty clause matches everything."""
    pats: list[TernaryPattern] = []
    if f.has_empty_clause:
        pats.append(TernaryPattern((FREE,) * f.n))
    for c in f.clauses:
        if c.is_tautological:
            continue
        pats.append(induced_pattern(c, f.n))
    return pats


def cover_verdict(
    f: CnfFormula, decision_budget: int | None = None
) -> tuple[bool, Assignment | None, dict[str, int]]:
    """(covered, satisfying assignment built from the uncovered witness,
    counters).

    Covered means unsatisfiable; an uncovered sign vector translates back to
    an assignment falsifying no clause.  The counters are ``decisions``
    (branchings) and ``propagations`` (signs forced by a pattern with one
    unassigned slot left).  More than ``decision_budget`` branchings raise
    ResourceLimitError; None means unbounded.
    """
    fixed = [{}] if f.has_empty_clause else []
    fixed += [clause_slots(c, f.n) for c in f.clauses if not c.is_tautological]
    found, decisions, propagations = _first_uncovered(fixed, f.n, decision_budget)
    counters = {"decisions": decisions, "propagations": propagations}
    if found is None:
        return True, None, counters
    return False, assignment_of_sign_vector(SignVector(found)), counters

