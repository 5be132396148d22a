"""Boolean formulas as products in the idempotent subalgebra.

A clause maps to the idempotent selecting its unique falsifying partial
assignment; a formula maps to the product over clauses of (identity minus
that falsifier).  The product evaluates to 1 exactly on satisfying
assignments, so the formula is unsatisfiable precisely when the product is
the zero element.

The product takes one of two forms, chosen by the input's size alone.
While 2^n fits the cell budget it is its table of values on all 2^n
assignments (:func:`encode_table`), which is zero when no cell is set.
Past the budget it is a sparse sum of patterns, which the cofactor zero
test decides.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .algebra import (
    D_ID,
    D_PQ,
    D_QP,
    DiagonalElement,
    ResourceLimitError,
    _all_identity,
    cofactor_leaves,
    identity_count,
    pattern_alive,
    pattern_bits,
    pattern_field,
)
from .cnf import Assignment, Clause, CnfFormula, TautologyError

DEFAULT_TERM_BUDGET = 1 << 20
DEFAULT_CELL_BUDGET = 1 << 22


class TermBudgetError(ResourceLimitError):
    """The running product exceeded the configured pattern budget."""


class DroppedClauseWarning(UserWarning):
    """A tautological clause was skipped while encoding."""


def _clause_pattern(clause: Clause, n: int) -> int:
    fixed = {lit.var: (D_QP if lit.negated else D_PQ) for lit in clause.literals}
    return pattern_bits(n, fixed)


def encode_clause(clause: Clause, n: int) -> DiagonalElement:
    """The idempotent selecting the clause's unique falsifying pattern.

    A positive literal contributes the variable-false factor p_iq_i, a
    negated literal the variable-true factor q_ip_i; untouched positions keep
    the identity factor.  Tautological clauses have no falsifier and are
    rejected.
    """
    if clause.is_tautological:
        raise TautologyError(f"tautological clause {clause} has no falsifier")
    return DiagonalElement(n, {_clause_pattern(clause, n): 1})


def _live_patterns(f: CnfFormula) -> list[int]:
    """The falsifier patterns of the clauses, dropping (with a warning) the
    tautological ones, which have none."""
    live = []
    for clause in f.clauses:
        if clause.is_tautological:
            warnings.warn(
                f"dropping tautological clause {clause}", DroppedClauseWarning
            )
        else:
            live.append(_clause_pattern(clause, f.n))
    return live


# Table index of each field code: dead (never looked up), q_ip_i, p_iq_i,
# identity.
_AXIS_INDEX = (None, 0, 1, slice(None))


def _subcube(pattern: int, n: int) -> tuple:
    """Index of a pattern's assignments in a value table of shape (2,)*n.

    Axis i is variable i+1, with index 0 for true (q_ip_i) and 1 for false
    (p_iq_i); an identity position spans its whole axis.
    """
    return tuple([_AXIS_INDEX[(pattern >> (2 * i)) & 0b11] for i in range(n)])


def _table_terms(table: np.ndarray) -> dict[int, int]:
    """The nonzero cells of a value table as full patterns."""
    n = table.ndim
    nz = np.flatnonzero(table)
    packed = np.zeros_like(nz)
    for i in range(n):
        # C order: variable 1 is the most significant bit of the flat index
        packed |= (((nz >> (n - 1 - i)) & 1) + 1) << (2 * i)
    return dict(zip(packed.tolist(), table.reshape(-1)[nz].tolist()))


def encode_table(
    f: CnfFormula, *, term_budget: int | None = None
) -> np.ndarray | None:
    """The product's values on all 2^n assignments, or None when 2^n
    exceeds the cell budget or a table that size cannot be made.

    The table is the product written in the primitive-idempotent basis,
    with shape (2,)*n and the axes of :func:`_subcube`.  It starts
    as the identity (all ones, int8: every value is 0 or 1), and each
    clause zeroes its falsifier's subcube with one slice-assign; an empty
    clause zeroes everything.  The cell budget is 2^22 when *term_budget*
    is None and *term_budget* otherwise.
    """
    cell_budget = DEFAULT_CELL_BUDGET if term_budget is None else int(term_budget)
    if cell_budget < 1:
        raise ValueError("term budget must be positive")
    n = f.n
    if 1 << n > cell_budget:
        return None
    try:
        table = np.ones((2,) * n, dtype=np.int8)
    except (ValueError, MemoryError):
        return None  # past numpy's 64 axes, or past the memory
    if f.has_empty_clause:
        table[...] = 0
        return table
    for z in _live_patterns(f):
        table[_subcube(z, n)] = 0
    return table


def encode_formula(
    f: CnfFormula, *, term_budget: int | None = None
) -> DiagonalElement:
    """Product over clauses of (identity - falsifier).

    When :func:`encode_table` fits the cell budget, the product is that
    table, returned as its nonzero cells: one full pattern per model.
    Otherwise the product is built sparse, merging like patterns after
    every factor, under the pattern budget (*term_budget*, default 2^20);
    exceeding it raises :class:`TermBudgetError`.
    """
    table = encode_table(f, term_budget=term_budget)
    if table is not None:
        return DiagonalElement(f.n, _table_terms(table))
    n = f.n
    budget = DEFAULT_TERM_BUDGET if term_budget is None else int(term_budget)
    if f.has_empty_clause:
        return DiagonalElement(n, {})
    terms: dict[int, int] = {_all_identity(n): 1}
    for z in _live_patterns(f):
        delta: dict[int, int] = {}
        for pat, c in terms.items():
            r = pat & z
            if not pattern_alive(r, n):
                continue
            delta[r] = delta.get(r, 0) - c
        for pat, c in delta.items():
            nc = terms.get(pat, 0) + c
            if nc:
                terms[pat] = nc
            elif pat in terms:
                del terms[pat]
        if len(terms) > budget:
            raise TermBudgetError(
                f"{len(terms)} patterns exceed the budget of {budget}"
            )
    return DiagonalElement(n, terms)


def is_unsatisfiable(f: CnfFormula, *, term_budget: int | None = None) -> bool:
    """Algebraic route: the encoded product is the zero element."""
    return encode_formula(f, term_budget=term_budget).is_zero()


# The truth values an assignment may take at each field code.
_FIELD_VALUES = {D_QP: (True,), D_PQ: (False,), D_ID: (True, False)}


def models(element: DiagonalElement) -> set[Assignment]:
    """The satisfying assignments of an encoded formula, read off the
    leaves of the cofactor walk.

    A leaf pattern, with the fields fixed along its path, matches every
    assignment of its subcube.  The product is 0/1-valued, so every leaf
    coefficient is 1; any other value raises RuntimeError.
    """
    n = element.n
    out: set[Assignment] = set()
    for path, terms in cofactor_leaves(element):
        for pat, c in terms.items():
            if c != 1:
                raise RuntimeError(
                    f"encoded product is not 0/1-valued (coefficient {c}); "
                    "this indicates a defect in the term engine"
                )
            fixed = pat & path
            choices = [_FIELD_VALUES[pattern_field(fixed, i)] for i in range(n)]
            out.update(Assignment(v) for v in itertools.product(*choices))
    return out


def count_models(element: DiagonalElement) -> int:
    """Number of satisfying assignments of an encoded formula, by linearity
    over the sparse form.

    Each pattern matches 2^(identity positions) assignments, and the encoded
    product evaluates to 0 or 1 everywhere, so summing coefficient * 2^free
    counts models exactly without expanding.
    """
    total = 0
    for pat, c in element.terms.items():
        total += c << identity_count(pat, element.n)
    return total
