"""Boolean formulas as products in the idempotent subalgebra.

A clause maps to the idempotent selecting its unique falsifying partial
assignment; a formula maps to the product over clauses of (identity minus
that falsifier).  The product evaluates to 1 exactly on satisfying
assignments, so the formula is unsatisfiable precisely when the product is
the zero element.
"""

from __future__ import annotations

import warnings

from .algebra import (
    D_PQ,
    D_QP,
    DiagonalElement,
    EXPAND_LIMIT,
    ResourceLimitError,
    _all_identity,
    _subcube,
    _table_terms,
    _value_table,
    expand_primitive,
    identity_count,
    pattern_alive,
    pattern_bits,
    pattern_field,
)
from .cnf import Assignment, Clause, CnfFormula, TautologyError

DEFAULT_TERM_BUDGET = 1 << 20


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


def encode_formula(
    f: CnfFormula, *, term_budget: int | None = None
) -> DiagonalElement:
    """Product over clauses of (identity - falsifier).

    The product starts sparse, merging like patterns after every factor.
    Once it holds more than 2^n / 16 patterns, and 2^n fits the pattern
    budget, it moves into a table of its values on all 2^n assignments, so
    long products over few variables cannot blow up combinatorially.  Each
    later clause zeroes its falsifier's subcube there, and the nonzero cells
    come back as full patterns, one per model.  Exceeding the pattern budget
    raises :class:`TermBudgetError`.
    """
    budget = DEFAULT_TERM_BUDGET if term_budget is None else int(term_budget)
    if budget < 1:
        raise ValueError("term budget must be positive")
    n = f.n
    if f.has_empty_clause:
        return DiagonalElement(n, {})
    terms: dict[int, int] = {_all_identity(n): 1}
    table = None
    for clause in f.clauses:
        if clause.is_tautological:
            warnings.warn(
                f"dropping tautological clause {clause}", DroppedClauseWarning
            )
            continue
        z = _clause_pattern(clause, n)
        if table is not None:
            table[_subcube(z, n)] = 0
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
        if 16 * len(terms) > 1 << n and 1 << n <= budget:
            table = _value_table(terms, n)
        elif len(terms) > budget:
            raise TermBudgetError(
                f"{len(terms)} patterns exceed the budget of {budget}"
            )
    return DiagonalElement(n, terms if table is None else _table_terms(table))


def is_unsatisfiable(f: CnfFormula, *, term_budget: int | None = None) -> bool:
    """Algebraic route: the encoded product is the zero element."""
    return encode_formula(f, term_budget=term_budget).is_zero()


def models(
    element: DiagonalElement, *, expand_limit: int = EXPAND_LIMIT
) -> set[Assignment]:
    """The satisfying assignments of an encoded formula, read off the
    primitive expansion."""
    expanded = expand_primitive(element, limit=expand_limit)
    out: set[Assignment] = set()
    for pat, c in expanded.terms.items():
        if c != 1:
            raise RuntimeError(
                f"encoded product is not 0/1-valued (coefficient {c}); "
                "this indicates a defect in the term engine"
            )
        out.add(
            Assignment(
                tuple(pattern_field(pat, i) == D_QP for i in range(element.n))
            )
        )
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
