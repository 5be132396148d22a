"""Formulas built from literal tuples, seeded clauses and formulas drawn
from a numpy Generator, every clause over a few variables, and the seeded
corpora that DPLL and the cover search are compared on."""

from __future__ import annotations

import itertools
import random
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


def corpus_formula(rng: random.Random) -> CnfFormula:
    """n <= 12, widths 1-4; a clause may name a variable twice in either
    sign (a dropped duplicate or a tautology), some clauses repeat, and a
    few formulas carry an empty clause."""
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 5 * n)):
        width = rng.randint(1, min(n, 4))
        clauses.append([rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)])
    clauses += rng.sample(clauses, min(len(clauses), rng.randint(0, 2)))
    return CnfFormula(
        n,
        tuple(Clause(c) for c in clauses),
        empty_clause_count=int(rng.random() < 0.02),
    )


def binary_corpus_formula(rng: random.Random) -> CnfFormula:
    """n <= 12, mostly two-literal clauses, which DPLL propagates through
    implication lists and which carry the cover search's pigeonhole time;
    among them tautologies (x, -x), a few units and ternaries, and some
    clauses repeated."""
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 4 * n)):
        roll = rng.random()
        if roll < 0.08:
            v = rng.randint(1, n)
            clauses.append([v, -v])
        elif roll < 0.16 or n < 2:
            clauses.append([rng.choice((1, -1)) * rng.randint(1, n)])
        else:
            width = 3 if roll < 0.28 and n >= 3 else 2
            clauses.append([rng.choice((1, -1)) * v
                            for v in rng.sample(range(1, n + 1), width)])
    clauses += rng.sample(clauses, min(len(clauses), rng.randint(0, 3)))
    return CnfFormula(n, tuple(Clause(c) for c in clauses))
