"""Null-plane constructions of the paper that the tests check the routes
and the orthogonal-group layer against: the three readings of "the
assignment falsifies the clause", the expansion of a clause into basis
terms, strict membership of a clause plane in an isometry's graph plane,
and the intersection dimension of two graph planes.  It also holds the
seeded orthogonal draws and the plain-text matrix writer that the tests
feed ``rebase`` with.
"""

from __future__ import annotations

import itertools

import numpy as np

from wittsat.algebra import D_PQ, D_QP, pattern_bits
from wittsat.cnf import Assignment, Clause
from wittsat.geometry import plane_text, sign_text
from wittsat.ortho import VERIFY_TOL, haar_samples

from algebra_reference import (
    S_PQ,
    S_QP,
    CheckedElement,
    EFBTerm,
    assignment_element,
    diag_mul,
    mtnp_of_spinor,
)

SV_RELATIVE_CUTOFF = 1e-8


def falsified_by(clause: Clause, assignment: Assignment) -> bool:
    return set(assignment.to_ints()).isdisjoint(clause)


def encode_clause(clause: Clause, n: int) -> CheckedElement:
    """The idempotent selecting the clause's unique falsifying pattern.

    A positive literal contributes the variable-false factor p_iq_i, a
    negated literal the variable-true factor q_ip_i; untouched positions keep
    the identity factor.  Tautological clauses have no falsifier and are
    rejected.
    """
    if clause.is_tautological:
        raise ValueError(f"tautological clause {clause} has no falsifier")
    fixed = {abs(lit): (D_PQ if lit > 0 else D_QP) for lit in clause}
    return CheckedElement(n, {pattern_bits(n, fixed): 1})


def matches(signs: str, pattern: str) -> bool:
    """A sign vector (``+``/``-`` per position) matches a pattern (``+``,
    ``-`` or a free ``*`` per position)."""
    if len(pattern) != len(signs):
        raise ValueError("dimension mismatch")
    return all(p in ("*", s) for p, s in zip(pattern, signs))


def generator_set(plane: str) -> frozenset[tuple[int, str]]:
    """A plane written ``p1 q3`` as its (position, kind) generators."""
    return frozenset((int(g[1:]), g[0]) for g in plane.split())


def plane_of_sign_vector(signs: str) -> frozenset[tuple[int, str]]:
    """The generators of the maximal plane a sign vector stands for: p_i at
    +, q_i at -."""
    return frozenset((i, "p" if s == "+" else "q") for i, s in enumerate(signs, 1))


def compatible(clause: Clause, assignment: Assignment, *, verify: bool = False) -> bool:
    """True when the assignment falsifies the clause.

    Three equivalent readings exist: literal containment of the falsifier in
    the assignment, absorption of the clause idempotent by the assignment
    idempotent, and inclusion of the clause plane in the assignment plane.
    With ``verify=True`` all three are computed and must agree.
    """
    containment = falsified_by(clause, assignment)
    if verify:
        z = encode_clause(clause, len(assignment.values))
        sigma = assignment_element(assignment)
        absorption = diag_mul(sigma, z) == sigma
        inclusion = generator_set(plane_text(clause)) <= plane_of_sign_vector(
            sign_text(assignment)
        )
        if not (containment == absorption == inclusion):
            raise RuntimeError(
                f"compatibility definitions diverge on {clause} / {assignment}: "
                f"containment={containment} absorption={absorption} "
                f"inclusion={inclusion}"
            )
    return containment


def psi_z_expansion(clause: Clause, n: int) -> list[EFBTerm]:
    """All simple basis terms whose planes contain the clause plane.

    The clause's own positions stay pinned to the falsifier's factors while
    every free position ranges over both even factors, giving 2^(n - width)
    terms; a width-n clause yields the single assignment term.
    """
    if clause.is_tautological:
        raise ValueError(f"tautological clause {clause} has no expansion")
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
    return common == generator_set(plane_text(clause))


def strict_membership(
    t: np.ndarray, clause: Clause, tol: float = VERIFY_TOL
) -> bool:
    """The clause plane lies inside the graph plane of t: every involved axis
    must be held with the required sign, + for a positive literal (p side)
    and - for a negated one (q side).  On diagonal sign matrices this is
    exactly the induced-pattern match.  Each literal's column is compared
    with +-e_j here, every entry within tol, so the report's
    ``strict_fraction`` is checked against a reading other than its own."""
    if clause.is_tautological:
        raise ValueError(f"tautological clause {clause} has no plane")
    n = len(t)
    for lit in clause:
        j = abs(lit) - 1
        if j >= n:
            raise ValueError(f"variable {abs(lit)} exceeds n={n}")
        axis = np.zeros(n)
        axis[j] = 1.0 if lit > 0 else -1.0
        if not (np.abs(t[:, j] - axis) <= tol).all():
            return False
    return True


def intersect_dim(
    f1: np.ndarray, f2: np.ndarray, rel_cutoff: float = SV_RELATIVE_CUTOFF
) -> int:
    """dim(span1) + dim(span2) - rank of the stacked rows of two frames,
    each a (dim, 2n) array."""
    if f1.shape[1] != f2.shape[1]:
        raise ValueError("frames live in different ambient spaces")
    stacked = np.vstack([f1, f2])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        rank = 0
    else:
        rank = int((sv > rel_cutoff * sv[0]).sum())
    return len(f1) + len(f2) - rank


def mtnp_from_isometry(t: np.ndarray) -> np.ndarray:
    """The graph plane of an orthogonal t as an (n, 2n) array: row i is
    (e_i, t e_i)."""
    return np.hstack([np.eye(len(t)), t.T])


def sample_orthogonal(n: int, seed: int) -> np.ndarray:
    """One Haar draw, deterministic per seed."""
    return haar_samples(n, 1, np.random.default_rng(seed))[0]


def matrix_to_text(m: np.ndarray) -> str:
    """The plain-text form ``rebase`` reads: first line n, then n rows of n
    entries."""
    n = len(m)
    lines = [str(n)]
    for row in m:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
