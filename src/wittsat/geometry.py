"""Assignments and clauses as null planes, clause-induced sign patterns,
and the cover test over the discrete group of axis sign flips.

The cover engine here is a deliberately separate code path from the term
engine's zero test: the two are compared against each other (and against a
plain solver) by the differential suites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    EFBTerm,
    ResourceLimitError,
    S_PQ,
    S_QP,
    WittVector,
    assignment_element,
    diag_mul,
    mtnp_of_spinor,
)
from .cnf import Assignment, Clause, CnfFormula, TautologyError
from .encoding import encode_clause

FREE = 0


@dataclass(frozen=True)
class SignVector:
    """A diagonal isometry, one sign per axis.

    +1 keeps p_i inside the mapped reference plane, -1 swaps in q_i; the
    all-plus vector is the reference plane itself.
    """

    eps: tuple[int, ...]

    def __post_init__(self):
        if not self.eps:
            raise ValueError("sign vectors need at least one position")
        if any(e not in (1, -1) for e in self.eps):
            raise ValueError("sign entries must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.eps)

    def matches(self, pattern: "TernaryPattern") -> bool:
        if pattern.n != self.n:
            raise ValueError("dimension mismatch")
        return all(s == FREE or s == e for s, e in zip(pattern.slots, self.eps))

    def to_text(self) -> str:
        return "".join("+" if e == 1 else "-" for e in self.eps)

    @classmethod
    def from_text(cls, text: str) -> "SignVector":
        return cls(tuple(1 if ch == "+" else -1 for ch in text.strip()))


@dataclass(frozen=True)
class TernaryPattern:
    """Sign constraints with free slots; stands for 2^(free) sign vectors."""

    slots: tuple[int, ...]

    def __post_init__(self):
        if not self.slots:
            raise ValueError("patterns need at least one position")
        if any(s not in (1, -1, FREE) for s in self.slots):
            raise ValueError("slots must be +1, -1 or free (0)")

    @property
    def n(self) -> int:
        return len(self.slots)

    def to_text(self) -> str:
        return "".join("+" if s == 1 else "-" if s == -1 else "*" for s in self.slots)

    @classmethod
    def from_text(cls, text: str) -> "TernaryPattern":
        table = {"+": 1, "-": -1, "*": FREE}
        try:
            return cls(tuple(table[ch] for ch in text.strip()))
        except KeyError as e:
            raise ValueError(f"bad pattern character {e.args[0]!r}") from None


@dataclass(frozen=True)
class TotallyNullPlane:
    """A plane spanned by basis null vectors, at most one per position."""

    generators: tuple[WittVector, ...]

    def __post_init__(self):
        positions = [v.index for v in self.generators]
        if len(set(positions)) != len(positions):
            raise ValueError(
                "generators clash: two vectors at one position cannot both "
                "lie in a totally null plane"
            )

    @property
    def generator_set(self) -> frozenset[tuple[int, str]]:
        return frozenset((v.index, v.kind) for v in self.generators)

    def contains(self, other: "TotallyNullPlane") -> bool:
        return other.generator_set <= self.generator_set


def mtnp_of_assignment(a: Assignment) -> SignVector:
    """Sign vector of the assignment's annihilating plane: -1 where true.

    A true variable puts q_ip_i in the assignment's basis term, whose first
    factor is q_i, and q_i is the -1 side of the sign convention.
    """
    return SignVector(tuple(-1 if v else 1 for v in a.values))


def assignment_of_sign_vector(s: SignVector) -> Assignment:
    return Assignment(tuple(e == -1 for e in s.eps))


def plane_of_sign_vector(s: SignVector) -> TotallyNullPlane:
    """The maximal plane the sign vector stands for: p_i at +1, q_i at -1."""
    return TotallyNullPlane(
        tuple(
            WittVector(i + 1, "p" if e == 1 else "q") for i, e in enumerate(s.eps)
        )
    )


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


def compatible(clause: Clause, assignment: Assignment, *, verify: bool = False) -> bool:
    """True when the assignment falsifies the clause.

    Three equivalent readings exist: literal containment of the falsifier in
    the assignment, absorption of the clause idempotent by the assignment
    idempotent, and inclusion of the clause plane in the assignment plane.
    With ``verify=True`` all three are computed and must agree.
    """
    containment = clause.falsified_by(assignment)
    if verify:
        z = encode_clause(clause, assignment.n)
        sigma = assignment_element(assignment)
        absorption = diag_mul(sigma, z) == sigma
        inclusion = plane_of_sign_vector(mtnp_of_assignment(assignment)).contains(
            tnp_of_clause(clause, assignment.n)
        )
        if not (containment == absorption == inclusion):
            raise RuntimeError(
                f"compatibility definitions diverge on {clause} / {assignment}: "
                f"containment={containment} absorption={absorption} "
                f"inclusion={inclusion}"
            )
    return containment


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


def _first_uncovered(
    patterns: list[dict[int, int]], n: int, decision_budget: int | None = None
) -> tuple[int, ...] | None:
    """Search for a sign vector that no pattern matches.

    Positions are assigned along a trail and unassigned by popping it.  A
    pattern is live while none of its fixed slots is contradicted.  A live
    pattern whose slots all agree matches every completion, so the branch
    is covered; a live pattern with one unassigned slot left forces the
    opposite sign there (unit propagation read on covers).  Branching takes
    the position fixed by the most live patterns, lowest index on ties, +1
    first.  Positions left unassigned read +1 in the witness.  More than
    ``decision_budget`` branchings raise ResourceLimitError.
    """
    slots = [tuple(p.items()) for p in patterns]
    if not all(slots):
        return None  # a pattern without fixed slots matches everything
    occurs = {1: [[] for _ in range(n)], -1: [[] for _ in range(n)]}
    for j, pattern in enumerate(slots):
        for pos, sign in pattern:
            occurs[sign][pos].append(j)
    size = [len(pattern) for pattern in slots]
    agree = [0] * len(slots)  # assigned slots that match
    killed = [0] * len(slots)  # assigned slots that contradict
    live = len(slots)
    # live patterns fixing each position; an assigned position is lowered by
    # `assigned_mark` so that max() picks only unassigned positions
    assigned_mark = len(slots) + 1
    weight = [0] * n
    for pattern in slots:
        for pos, _ in pattern:
            weight[pos] += 1
    value = [0] * n
    trail: list[int] = []
    branches: list[tuple[int, int]] = []  # (trail mark, position) tried at +1
    decisions = 0
    queue = [(p[0][0], -p[0][1]) for p in slots if len(p) == 1]

    def propagate(queue: list[tuple[int, int]]) -> bool:
        """Assign the queued positions and what they force; False on cover."""
        nonlocal live
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
                killed[j] += 1
                if killed[j] == 1:
                    live -= 1
                    for q, _ in slots[j]:
                        weight[q] -= 1
            agreeing = occurs[sign][pos]
            for j in agreeing:
                agree[j] += 1
            for j in agreeing:
                if killed[j]:
                    continue
                left = size[j] - agree[j]
                if left == 0:
                    return False
                if left == 1:
                    q, s = next((q, s) for q, s in slots[j] if not value[q])
                    queue.append((q, -s))
        return True

    def undo(mark: int) -> None:
        nonlocal live
        while len(trail) > mark:
            pos = trail.pop()
            sign = value[pos]
            value[pos] = 0
            weight[pos] += assigned_mark
            for j in occurs[sign][pos]:
                agree[j] -= 1
            for j in occurs[-sign][pos]:
                killed[j] -= 1
                if killed[j] == 0:
                    live += 1
                    for q, _ in slots[j]:
                        weight[q] += 1

    while True:
        if propagate(queue):
            if live == 0:
                return tuple(v or 1 for v in value)
            decisions += 1
            if decision_budget is not None and decisions > decision_budget:
                raise ResourceLimitError(
                    f"cover search exceeded {decision_budget} decisions"
                )
            pos = weight.index(max(weight))
            branches.append((len(trail), pos))
            queue = [(pos, 1)]
            continue
        if not branches:
            return None
        mark, pos = branches.pop()
        undo(mark)
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
    f: CnfFormula, *, decision_budget: int | None = None
) -> tuple[bool, Assignment | None]:
    """(covered, satisfying assignment built from the uncovered witness).

    Covered means unsatisfiable; an uncovered sign vector translates back to
    an assignment falsifying no clause.  More than ``decision_budget``
    branchings raise ResourceLimitError; None means unbounded.
    """
    fixed = [{}] if f.has_empty_clause else []
    fixed += [clause_slots(c, f.n) for c in f.clauses if not c.is_tautological]
    found = _first_uncovered(fixed, f.n, decision_budget)
    if found is None:
        return True, None
    return False, assignment_of_sign_vector(SignVector(found))


def psi_z_expansion(clause: Clause, n: int) -> list[EFBTerm]:
    """All simple basis terms whose planes contain the clause plane.

    The clause's own positions stay pinned to the falsifier's factors while
    every free position ranges over both even factors, giving 2^(n - width)
    terms; a width-n clause yields the single assignment term.
    """
    if clause.is_tautological:
        raise TautologyError(f"tautological clause {clause} has no expansion")
    fixed: dict[int, int] = {}
    for lit in clause:
        if abs(lit) > n:
            raise ValueError(f"variable {abs(lit)} exceeds n={n}")
        fixed[abs(lit) - 1] = S_PQ if lit > 0 else S_QP
    free = [i for i in range(n) if i not in fixed]
    base = 0
    for pos, code in fixed.items():
        base |= code << (2 * pos)
    out = []
    for combo in itertools.product((S_QP, S_PQ), repeat=len(free)):
        bits = base
        for pos, code in zip(free, combo):
            bits |= code << (2 * pos)
        out.append(EFBTerm(n, bits, 1))
    return out


def check_intersection(clause: Clause, n: int) -> bool:
    """The expansion terms' planes intersect exactly in the clause plane."""
    planes = [
        frozenset((v.index, v.kind) for v in mtnp_of_spinor(t))
        for t in psi_z_expansion(clause, n)
    ]
    common = frozenset.intersection(*planes)
    return common == tnp_of_clause(clause, n).generator_set
