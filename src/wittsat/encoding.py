"""Boolean formulas as products in the idempotent subalgebra.

A clause maps to the idempotent selecting its unique falsifying partial
assignment; a formula maps to the product over clauses of (identity minus
that falsifier).  The product evaluates to 1 exactly on satisfying
assignments, so the formula is unsatisfiable precisely when the product is
the zero element.

The product takes one of two forms, chosen by the input's size alone:
while 2^n fits the cell budget, its table of values on all 2^n assignments
(:func:`encode_table`), one bit each and zero when no bit is set; past the
budget, a sparse sum of patterns, which the cofactor zero test decides.
"""

from __future__ import annotations

import functools
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
    fixed = {abs(lit): (D_PQ if lit > 0 else D_QP) for lit in clause}
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
# The last _ROW_AXES word axes (all of them below n = 15) make one row of
# contiguous words; the axes before them are leading axes.  Clauses are
# combined _CHUNK at a time, so no more than _CHUNK rows are held at once.
_ROW_AXES = 8
_CHUNK = 256


@functools.cache
def _literal_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each literal's falsifier over one row of an n-variable value table,
    and the leading cells it fixes, both indexed by literal + n.

    A literal on a lane fails at its lane mask in every word of the row, a
    literal on a row axis at every bit of the words whose index reads its
    falsifying value, and a literal on a leading axis everywhere, since its
    value picks the rows instead: column k of the second array is the
    (mask, value) bits it sets over the leading axes, variable 1 at bit 0.
    Index n, the literal 0, fixes nothing and pads clauses to one width.
    """
    lanes = min(n, _LANES)
    axes = n - lanes
    row_axes = min(axes, _ROW_AXES)
    lead = axes - row_axes
    word = np.arange(1 << row_axes)
    rows = np.full((2 * n + 1, 1 << row_axes), _WORD, dtype=np.uint64)
    keys = np.zeros((2, 2 * n + 1), dtype=np.int64)
    for lit in itertools.chain(range(-n, 0), range(1, n + 1)):
        var = abs(lit)
        if var > axes:
            rows[lit + n] = _LANE_FALSIFIERS[n - var][lit < 0]
        elif var > lead:
            # a positive literal fails where its axis reads 1 (false)
            rows[lit + n, (word >> (axes - var) & 1) != (lit > 0)] = 0
        else:
            bit = 1 << (var - 1)
            keys[:, lit + n] = bit, bit if lit > 0 else 0
    rows.flags.writeable = False
    keys.flags.writeable = False
    return rows, keys


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
    set, and each clause clears its falsifier's cells; an empty clause
    clears everything.  The cell budget is 2^22 when *term_budget* is None
    and *term_budget* otherwise.

    The word axes split into the row axes, the last 8 of them (a
    contiguous run of up to 256 words), and the leading axes before them.
    A clause's falsifier over one row is the AND of its literals' rows
    (:func:`_literal_rows`), gathered for a chunk of clauses at once.
    Clauses that fix the same leading axes to the same values clear the
    union of their falsifiers with one in-place AND, broadcast over the
    rows those values select.  Below n = 15 there are no leading axes, so
    every clause shares that one AND.
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
    live = _live_clauses(f)
    lead = axes - min(axes, _ROW_AXES)
    rows = table.reshape((2,) * lead + (-1,))
    literal_rows, literal_keys = _literal_rows(n)
    for start in range(0, len(live), _CHUNK):
        chunk = live[start : start + _CHUNK]
        widths = np.fromiter(map(len, chunk), np.intp, len(chunk))
        codes = np.full((len(chunk), widths.max()), n)
        codes[np.arange(codes.shape[1]) < widths[:, None]] = n + np.fromiter(
            itertools.chain.from_iterable(chunk), np.intp, widths.sum()
        )
        # sort the clauses so those fixing the same leading cells are adjacent
        # (a clause names each variable once, so the sums are ORs)
        mask, value = (np.add.reduce(k[codes], axis=1) for k in literal_keys)
        order = np.lexsort((value, mask))
        codes, mask, value = codes[order], mask[order], value[order]
        falsifiers = literal_rows[codes[:, 0]]
        for column in codes.T[1:]:
            np.bitwise_and(falsifiers, literal_rows[column], out=falsifiers)
        keeps = np.invert(falsifiers, out=falsifiers)
        changes = (mask[1:] != mask[:-1]) | (value[1:] != value[:-1])
        starts = [0, *(np.flatnonzero(changes) + 1).tolist()]
        for lo, hi, fixed, falsified in zip(
            starts,
            starts[1:] + [len(chunk)],
            mask[starts].tolist(),
            value[starts].tolist(),
        ):
            index = [
                falsified >> a & 1 if fixed >> a & 1 else slice(None)
                for a in range(lead)
            ]
            # the trailing ... keeps a view even when every leading axis is fixed
            view = rows[(*index, ...)]
            np.bitwise_and(view, np.bitwise_and.reduce(keeps[lo:hi]), out=view)
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
        if len(clause) == 1:
            # q_ip_i + p_iq_i is the identity, so (identity - falsifier) is
            # the opposite field's idempotent: one pattern, not two
            u = z ^ (D_ID << 2 * (abs(clause[0]) - 1))
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
