"""Boolean formulas as products in the idempotent subalgebra.

A clause maps to the idempotent selecting its unique falsifying partial
assignment; a formula maps to the product over clauses of (identity minus
that falsifier).  The product evaluates to 1 exactly on satisfying
assignments, so the formula is unsatisfiable precisely when the product is
the zero element.

The product takes one of two forms, chosen by the input's size alone.
While 2^n fits the cell budget it is its table of values on all 2^n
assignments (:func:`encode_table`), one bit per assignment, which is zero
when no bit is set.  Past the budget it is a sparse sum of patterns, which
the cofactor zero test decides.
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


def _live_clauses(f: CnfFormula) -> list[Clause]:
    """The clauses that have a falsifier, dropping (with a warning) the
    tautological ones, which have none."""
    live = []
    for clause in f.clauses:
        if clause.is_tautological:
            warnings.warn(
                f"dropping tautological clause {clause}", DroppedClauseWarning
            )
        else:
            live.append(clause)
    return live


# A value table keeps the cells of its last _LANES variables in the bits of
# one uint64 word.  _LANE_FALSIFIERS[s][negated] is the set of bits where a
# literal on the variable at lane bit s fails: a positive literal where that
# bit is 1 (false), a negated one where it is 0 (true).
_LANES = 6
_WORD = (1 << 64) - 1
_LANE_FALSIFIERS = tuple(
    (ones, _WORD ^ ones)
    for ones in (sum(1 << b for b in range(64) if b >> s & 1) for s in range(_LANES))
)


def encode_table(
    f: CnfFormula, *, term_budget: int | None = None
) -> np.ndarray | None:
    """The product's values on all 2^n assignments, packed 64 to a word, or
    None when 2^n exceeds the cell budget or a table that size cannot be
    made.

    The table is the product written in the primitive-idempotent basis.
    Every value is 0 or 1, so each cell is one bit: the table is a uint64
    array of shape (2,)*(n-w), w = min(n, 6).  Its axes are the leading
    variables, with index 0 for true and 1 for false, and bit b of a word
    holds the cell whose last w variables read b the same way (variable n
    is bit 0).  So word * 64 + bit is the assignment's primitive index
    (:func:`table_cells`).  The table starts as the identity, every cell
    set, and each clause clears its falsifier's cells with one in-place AND
    on the subcube its word-axis literals fix, masked by its lane literals;
    an empty clause clears everything.  The cell budget is 2^22 when
    *term_budget* is None and *term_budget* otherwise.
    """
    cell_budget = DEFAULT_CELL_BUDGET if term_budget is None else int(term_budget)
    if cell_budget < 1:
        raise ValueError("term budget must be positive")
    n = f.n
    if 1 << n > cell_budget:
        return None
    lanes = min(n, _LANES)
    axes = n - lanes
    try:
        # below n = 6 one word holds all 2^n cells in its low bits
        table = np.full((2,) * axes, _WORD >> (64 - (1 << lanes)), dtype=np.uint64)
    except (ValueError, MemoryError):
        return None  # past numpy's 64 axes, or past the memory
    if f.has_empty_clause:
        table[...] = 0
        return table
    for clause in _live_clauses(f):
        index: list = [slice(None)] * axes
        falsifier = _WORD
        for lit in clause.literals:
            if lit.var <= axes:
                index[lit.var - 1] = 0 if lit.negated else 1
            else:
                falsifier &= _LANE_FALSIFIERS[n - lit.var][lit.negated]
        # the trailing ... keeps a view even when every axis is fixed
        view = table[(*index, ...)]
        np.bitwise_and(view, _WORD ^ falsifier, out=view)
    return table


def table_cells(table: np.ndarray, n: int) -> np.ndarray:
    """The primitive indices of an n-variable value table's set cells, in
    ascending order."""
    bits = np.unpackbits(
        table.astype("<u8").reshape(-1).view(np.uint8), bitorder="little"
    )
    return np.flatnonzero(bits[: 1 << n])


def _table_terms(table: np.ndarray, n: int) -> dict[int, int]:
    """The set cells of a value table as full patterns."""
    cells = table_cells(table, n)
    packed = np.zeros_like(cells)
    for i in range(n):
        # variable 1 is the most significant bit of the primitive index
        packed |= (((cells >> (n - 1 - i)) & 1) + 1) << (2 * i)
    return dict.fromkeys(packed.tolist(), 1)


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
        return DiagonalElement(f.n, _table_terms(table, f.n))
    n = f.n
    budget = DEFAULT_TERM_BUDGET if term_budget is None else int(term_budget)
    if f.has_empty_clause:
        return DiagonalElement(n, {})
    terms: dict[int, int] = {_all_identity(n): 1}
    for clause in _live_clauses(f):
        z = _clause_pattern(clause, n)
        if len(clause.literals) == 1:
            # q_ip_i + p_iq_i is the identity, so (identity - falsifier) is
            # the opposite field's idempotent: one pattern, not two
            u = z ^ (D_ID << 2 * (clause.literals[0].var - 1))
            product: dict[int, int] = {}
            for pat, c in terms.items():
                r = pat & u
                if pattern_alive(r, n):
                    product[r] = product.get(r, 0) + c
            terms = {pat: c for pat, c in product.items() if c}
            continue
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
