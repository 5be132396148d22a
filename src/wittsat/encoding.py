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
DEFAULT_CELL_BUDGET = 1 << 22

# Cost model of the product in microseconds, measured on a 2-vCPU x86
# machine (Python 3.11, numpy 2.4) at n=12-22; see _switch_to_table.
_TERM_US = 0.6  # one sparse step, per pattern held
_OP_US = 4.5  # one table operation: build a subcube index, slice the table
_CELL_US = 0.0015  # one table cell read or written by such a slice


def _switch_to_table(
    terms: dict[int, int], n: int, left: int, cells_left: int
) -> bool:
    """Whether to finish the product in a value table, *left* clauses
    before the end; *cells_left* is the number of cells those clauses zero
    there.

    Two triggers, either of which switches:

    - Cost.  Continuing sparse costs one pass over the held patterns per
      clause, priced as if the product kept its current size.  The table
      costs two operations per held pattern (adding it reads and writes
      its subcube), one per remaining clause (a slice-assign over
      *cells_left* in all), and one pass over the 2^n cells to allocate and
      read back the table.  The held patterns' cells are summed only when
      the rest already favours the table.
    - Size: more than 2^n / 16 patterns, the fixed rule the cost trigger
      was added to.  The cost trigger cannot see a product that is still
      growing.  With it kept, every product the fixed rule moved to the
      table still reaches the zero test as one pattern per model.  And
      since a factor at most doubles the product, while the pattern budget
      is at least 2^n / 8 whenever the table fits the cell budget, a
      product whose table fits never fails the pattern budget.
    """
    held = len(terms)
    if 16 * held > 1 << n:
        return True
    sparse = _TERM_US * held * left
    table = _OP_US * (2 * held + left) + _CELL_US * ((1 << n) + cells_left)
    if sparse <= table:
        return False
    cells = sum(1 << identity_count(p, n) for p in terms)
    return sparse > table + _CELL_US * 2 * cells


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
    f: CnfFormula, *, term_budget: int | None = None, stats: dict | None = None
) -> DiagonalElement:
    """Product over clauses of (identity - falsifier).

    The product starts sparse, merging like patterns after every factor.
    After each factor, :func:`_switch_to_table` predicts whether the rest
    of the product costs less in a table of its values on all 2^n
    assignments; once it does, and 2^n fits the cell budget, the product
    moves there, and each later clause zeroes its falsifier's subcube.  The
    nonzero cells come back as full patterns, one per model.  Short
    products over many variables stay sparse to the end.

    The pattern budget (*term_budget*, default 2^20) caps the sparse
    product; exceeding it raises :class:`TermBudgetError`.  The cell budget
    is 2^22 when *term_budget* is None and *term_budget* otherwise.  When
    *stats* is a dict, ``stats["switch_clause"]`` is set to the 0-based
    index of the clause before which the product moved to the table (the
    clause count when it moved after the last one), or None when it stayed
    sparse.
    """
    budget = DEFAULT_TERM_BUDGET if term_budget is None else int(term_budget)
    if budget < 1:
        raise ValueError("term budget must be positive")
    cell_budget = DEFAULT_CELL_BUDGET if term_budget is None else budget
    n = f.n
    stats = {} if stats is None else stats
    stats["switch_clause"] = None
    if f.has_empty_clause:
        return DiagonalElement(n, {})
    live = []
    for k, clause in enumerate(f.clauses):
        if clause.is_tautological:
            warnings.warn(
                f"dropping tautological clause {clause}", DroppedClauseWarning
            )
        else:
            live.append((k, _clause_pattern(clause, n)))
    # cells the clauses not yet multiplied would zero in a table
    cells_left = sum(1 << identity_count(z, n) for _, z in live)
    table_fits = 1 << n <= cell_budget
    terms: dict[int, int] = {_all_identity(n): 1}
    table = None
    for j, (k, z) in enumerate(live):
        if table is not None:
            table[_subcube(z, n)] = 0
            continue
        cells_left -= 1 << identity_count(z, n)
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
        if table_fits and _switch_to_table(
            terms, n, len(live) - j - 1, cells_left
        ):
            table = _value_table(terms, n)
            stats["switch_clause"] = k + 1
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
