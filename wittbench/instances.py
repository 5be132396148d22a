"""Seeded instance families for the wittsat benchmark.

Every generator takes a ``numpy.random.Generator`` and returns plain data
(clause lists of signed ints, or float matrices), so the benchmark never
asks the program under test to build its own inputs.
"""

from __future__ import annotations

import itertools

import numpy as np


def random_3sat(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, ...]]:
    """m clauses of 3 distinct variables with uniform signs."""
    out = []
    for _ in range(m):
        vars_ = rng.choice(n, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        out.append(tuple(int(v * s) for v, s in zip(vars_, signs)))
    return out


def planted_3sat(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, ...]]:
    """Random 3-SAT with every clause satisfied by a hidden assignment,
    so the formula is satisfiable by construction."""
    hidden = rng.integers(0, 2, size=n).astype(bool)
    out = []
    while len(out) < m:
        (clause,) = random_3sat(rng, n, 1)
        if any((lit > 0) == hidden[abs(lit) - 1] for lit in clause):
            out.append(clause)
    return out


def pigeonhole(holes: int, rng: np.random.Generator | None = None) -> tuple[int, list[tuple[int, ...]]]:
    """PHP(holes + 1, holes): unsatisfiable (Haken 1985).  Variable
    i * holes + j + 1 says pigeon i sits in hole j; with ``rng`` the
    variables are renamed and the clauses shuffled, which keeps the formula
    isomorphic."""
    pigeons = holes + 1
    n = pigeons * holes
    name = list(range(1, n + 1)) if rng is None else [int(v) + 1 for v in rng.permutation(n)]

    def var(i: int, j: int) -> int:
        return name[i * holes + j]

    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(a, j), -var(b, j)))
    if rng is not None:
        clauses = [clauses[i] for i in rng.permutation(len(clauses))]
    return n, clauses


def renamed(rng: np.random.Generator, n: int, clauses: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The same clauses, in the same order, over a seeded permutation of the
    variables: an isomorphic formula whose algebra does the same work."""
    name = [0] + [int(v) + 1 for v in rng.permutation(n)]
    return [tuple(name[lit] if lit > 0 else -name[-lit] for lit in c) for c in clauses]


def independent_pairs(k: int) -> tuple[int, list[tuple[int, ...]]]:
    """k disjoint copies of (a b)(-a -b): exactly 2^k models."""
    clauses = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        clauses += [(a, b), (-a, -b)]
    return 2 * k, clauses


def all_sign(rng: np.random.Generator, n: int) -> list[tuple[int, ...]]:
    """All 8 sign clauses over 3 seeded variables, which is unsatisfiable by
    construction, plus n random 3-clauses, in a seeded order."""
    vars_ = sorted(int(v) + 1 for v in rng.choice(n, size=3, replace=False))
    clauses = [
        tuple(v * s for v, s in zip(vars_, signs))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    clauses += random_3sat(rng, n, n)
    order = rng.permutation(len(clauses))
    return [clauses[i] for i in order]


def dimacs(n: int, clauses: list[tuple[int, ...]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _rotation_blocks(rng: np.random.Generator, dim: int) -> np.ndarray:
    """An orthogonal matrix of 2x2 rotations by angles in [0.3, pi], plus a
    -1 when dim is odd, so no eigenvalue lies within 0.29 of +1."""
    m = np.zeros((dim, dim))
    for i in range(0, dim - 1, 2):
        a = rng.uniform(0.3, np.pi)
        m[i : i + 2, i : i + 2] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
    if dim % 2:
        m[dim - 1, dim - 1] = -1.0
    return m


def orthogonal_pair(rng: np.random.Generator, n: int, meet: int) -> tuple[np.ndarray, np.ndarray]:
    """(t1, t2) whose graph planes meet in exactly dimension ``meet``:
    t1^T t2 = u diag(I_meet, R) u^T with R free of the eigenvalue 1."""
    t1 = haar(rng, n)
    u = haar(rng, n)
    core = np.eye(n)
    core[meet:, meet:] = _rotation_blocks(rng, n - meet)
    return t1, t1 @ (u @ core @ u.T)


def matrices_text(*mats: np.ndarray) -> str:
    out = []
    for a in mats:
        out.append(str(a.shape[0]))
        out += [" ".join(repr(float(x)) for x in row) for row in a]
    return "\n".join(out) + "\n"
