"""Formulas built from literal tuples, seeded clauses and formulas drawn
from a numpy Generator, and every clause over a few variables."""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from wittsat.cnf import Clause, CnfFormula


def formula_from_ints(n: int, clause_ints: Iterable[Iterable[int]]) -> CnfFormula:
    """The formula over variables 1..n with one clause per literal tuple.

    CnfFormula takes the variable range as given, as the parser has checked
    it; a test formula is checked here instead.  A literal past n would
    otherwise alias another slot of DPLL's 2n + 1 literal values."""
    clauses = tuple(Clause(c) for c in clause_ints)
    top = max((abs(lit) for clause in clauses for lit in clause), default=0)
    if top > n:
        raise ValueError(f"variable {top} exceeds declared count {n}")
    return CnfFormula(n, clauses)


def clause_universe(n: int) -> list[tuple[int, ...]]:
    """All non-tautological clauses over variables 1..n, as literal tuples."""
    out = []
    for width in range(1, n + 1):
        for vars_ in itertools.combinations(range(1, n + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                out.append(tuple(v * s for v, s in zip(vars_, signs)))
    return out


def random_clause(rng: np.random.Generator, n: int, width: int) -> tuple[int, ...]:
    vars_ = rng.choice(n, size=width, replace=False) + 1
    signs = rng.integers(0, 2, size=width)
    return tuple(int(v) if s else -int(v) for v, s in zip(vars_, signs))


def random_formula(
    rng: np.random.Generator, n: int, m: int, max_width: int | None = None
) -> CnfFormula:
    top = min(n, 3 if max_width is None else max_width)
    clauses = []
    for _ in range(m):
        width = int(rng.integers(1, top + 1))
        clauses.append(random_clause(rng, n, width))
    return formula_from_ints(n, clauses)
