"""Boolean formulas as products in the idempotent subalgebra.

A clause maps to the idempotent selecting its unique falsifying partial
assignment; a formula maps to the product over clauses of (identity minus
that falsifier).  The product evaluates to 1 exactly on satisfying
assignments, so the formula is unsatisfiable precisely when the product is
the zero element.

The product takes one of two forms, chosen by 2^n against the cell budget:
2^22 cells by default, else the explicit budget (``--limit``), so a budget
below 2^n forces the sparse form at any n.  While 2^n fits, the form is its
table of values on all 2^n assignments, one bit each and zero when no bit
is set; past the budget, a sparse sum of patterns (:func:`encode_formula`),
which the cofactor zero test decides.
The table is built as a walk over slabs, the Shannon cofactors at each
setting of its leading variables, in the order of their assignments'
primitive indices (:func:`table_slabs`): a verdict stops at the first slab
with a set cell, which is then the lowest-indexed model
(:func:`first_set_cell`), and a count takes every slab
(:func:`encode_table`).  :func:`algebra_verdict` and
:func:`algebra_models`, what ``check`` and ``models`` call, make the choice
between the two forms.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from typing import Iterable, Iterator

import numpy as np

from .algebra import (
    D_ID,
    D_PQ,
    D_QP,
    DiagonalElement,
    _all_identity,
    cofactor_leaves,
    identity_count,
    pattern_alive,
    pattern_bits,
    pattern_field,
    zero_test_splits,
)
from .cnf import Assignment, Clause, CnfFormula, ResourceLimitError

DEFAULT_TERM_BUDGET = 1 << 20
DEFAULT_CELL_BUDGET = 1 << 22


class TermBudgetError(ResourceLimitError):
    """The running product exceeded the configured pattern budget."""


class DroppedClauseWarning(UserWarning):
    """A tautological clause was skipped while encoding."""


def _clause_pattern(clause: Clause, n: int) -> int:
    fixed = {abs(lit): (D_PQ if lit > 0 else D_QP) for lit in clause}
    return pattern_bits(n, fixed)


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
# contiguous words, a slab; the axes before them are leading axes.  Clauses
# are combined _CHUNK at a time, so no more than _CHUNK rows are gathered at
# once.
_ROW_AXES = 8
_CHUNK = 256


@functools.cache
def _literal_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each literal's falsifier over one row of an n-variable value table,
    and the key of the leading cells it fixes, both indexed by literal + n.

    A literal on a lane fails at its lane mask in every word of the row, a
    literal on a row axis at every bit of the words whose index reads its
    falsifying value, and a literal on a leading axis everywhere, since its
    value picks the rows instead.  With L leading axes, a key's low L bits
    are the leading axes fixed and its high L bits the index each reads
    (variable 1 at bit 0 of both halves); a literal sets its variable's bit
    in the low half, and a positive literal, false at index 1, in the high
    half too.  So the keys below 2^L are those that index 0 on every
    leading axis falsifies.  Index n, the literal 0, fixes nothing and pads
    clauses to one width.
    """
    lanes = min(n, _LANES)
    axes = n - lanes
    row_axes = min(axes, _ROW_AXES)
    lead = axes - row_axes
    word = np.arange(1 << row_axes)
    rows = np.full((2 * n + 1, 1 << row_axes), _WORD, dtype=np.uint64)
    keys = np.zeros(2 * n + 1, dtype=np.int64)
    for lit in itertools.chain(range(-n, 0), range(1, n + 1)):
        var = abs(lit)
        if var > axes:
            rows[lit + n] = _LANE_FALSIFIERS[n - var][lit < 0]
        elif var > lead:
            # a positive literal fails where its axis reads 1 (false)
            rows[lit + n, (word >> (axes - var) & 1) != (lit > 0)] = 0
        else:
            bit = 1 << (var - 1)
            keys[lit + n] = (bit << lead if lit > 0 else 0) | bit
    rows.flags.writeable = False
    keys.flags.writeable = False
    return rows, keys


def _clause_keeps(live: list[Clause], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys (:func:`_literal_rows`) in ascending order, each with a keep row:
    the complement of a falsifier over one row.

    A clause's falsifier is the AND of its literals' rows, and its key the
    OR of their keys (a clause names each variable once, so the sum).  The
    falsifiers of a chunk are gathered in key order.  When the clauses fill
    one chunk, each clause gives its own key and row.  Past one chunk, the
    rows of each key are ORed into one, the union of those clauses'
    falsifiers, so at most one row per key (3^L with L leading axes) and one
    chunk are held at once.
    """
    literal_rows, literal_keys = _literal_rows(n)
    keys = np.zeros(0, dtype=np.int64)
    falsifiers = np.zeros((0, literal_rows.shape[1]), dtype=np.uint64)
    # the gathers reuse two buffers; numpy would allocate each afresh
    gathered = np.empty((min(len(live), _CHUNK), literal_rows.shape[1]), np.uint64)
    column_rows = np.empty_like(gathered)
    for start in range(0, len(live), _CHUNK):
        chunk = live[start : start + _CHUNK]
        widths = np.fromiter(map(len, chunk), np.intp, len(chunk))
        codes = np.full((len(chunk), widths.max()), n)
        codes[np.arange(codes.shape[1]) < widths[:, None]] = n + np.fromiter(
            itertools.chain.from_iterable(chunk), np.intp, widths.sum()
        )
        chunk_keys = np.add.reduce(literal_keys[codes], axis=1)
        order = np.argsort(chunk_keys)
        codes, chunk_keys = codes[order], chunk_keys[order]
        rows = gathered[: len(chunk)]
        np.take(literal_rows, codes[:, 0], axis=0, out=rows, mode="clip")
        for column in codes.T[1:]:
            part = np.take(
                literal_rows, column, axis=0, out=column_rows[: len(chunk)], mode="clip"
            )
            np.bitwise_and(rows, part, out=rows)
        if len(live) <= _CHUNK:  # the only chunk: a row per clause
            return chunk_keys, np.invert(rows, out=rows)
        runs = _key_runs(chunk_keys)
        union = np.empty((len(runs), rows.shape[1]), dtype=np.uint64)
        for i, (_, lo, hi) in enumerate(runs):
            np.bitwise_or.reduce(rows[lo:hi], axis=0, out=union[i])
        chunk_keys = np.array([key for key, _, _ in runs], dtype=np.int64)
        merged = np.union1d(keys, chunk_keys)
        held = np.zeros((len(merged), rows.shape[1]), dtype=np.uint64)
        held[np.searchsorted(merged, keys)] = falsifiers
        held[np.searchsorted(merged, chunk_keys)] |= union
        keys, falsifiers = merged, held
    return keys, np.invert(falsifiers, out=falsifiers)


def _key_runs(keys: np.ndarray) -> list[tuple[int, int, int]]:
    """(key, start, stop) of each run of equal keys in sorted *keys*."""
    if not len(keys):
        return []
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    bounds = starts.tolist() + [len(keys)]
    return list(zip(keys[starts].tolist(), bounds[:-1], bounds[1:]))


def table_slabs(
    f: CnfFormula, *, term_budget: int | None = None
) -> tuple[np.ndarray, Iterator[np.ndarray]] | None:
    """The product's value table, and the walk that fills it slab by slab;
    None when 2^n exceeds the cell budget or a table that size cannot be
    made.

    The table is the product written in the primitive-idempotent basis.
    Every value is 0 or 1, so each cell is one bit: the table is a uint64
    array of shape (2,)*(n-w), w = min(n, 6).  Its axes are the leading
    variables, with index 0 for true and 1 for false, and bit b of a word
    holds the cell whose last w variables read b the same way (variable n
    is bit 0).  So word * 64 + bit is the assignment's primitive index
    (:func:`table_cells`).  The cell budget is 2^22 when *term_budget* is
    None and *term_budget*, at least 1, otherwise.

    A slab is one row of the table: the last 8 word axes, up to 256
    contiguous words or 2^14 cells, under one setting of the leading axes
    before them, so slab s holds the primitive indices from s * 2^14.  Below
    n = 15 there are no leading axes and the table is one slab.  A slab is
    the Shannon cofactor of the product at its leading setting: the AND of
    the keep rows (:func:`_clause_keeps`) of the clauses whose leading
    literals that setting falsifies, since a clause it satisfies drops out.

    The walk yields blocks of consecutive slabs in primitive-index order, as
    2-d views (slabs, words) of the table, each filled before it is yielded:
    the first slab alone, with one AND over the keep rows of the clauses
    with no positive leading literal, then every other slab at once.  That
    second block starts from every cell set, and the clauses of each key
    clear their falsifiers with one in-place AND, broadcast over the slabs
    that key's leading cells select (the first slab again among them, which
    the AND leaves as it is).  An empty clause empties every slab, yielded as one
    block.  The table is complete once the walk is exhausted; cells of
    slabs not yet yielded are undefined.
    """
    cell_budget = DEFAULT_CELL_BUDGET if term_budget is None else int(term_budget)
    n = f.n
    if 1 << n > cell_budget:
        return None
    try:
        table = np.empty((2,) * (n - min(n, _LANES)), dtype=np.uint64)
    except (ValueError, MemoryError):
        return None  # past numpy's 64 axes, or past the memory
    return table, _slab_blocks(f, table)


def _slab_blocks(f: CnfFormula, table: np.ndarray) -> Iterator[np.ndarray]:
    """The walk of :func:`table_slabs` over *table*."""
    n = f.n
    lead = table.ndim - min(table.ndim, _ROW_AXES)
    slabs = table.reshape(1 << lead, -1)
    if f.has_empty_clause:
        slabs[...] = 0
        yield slabs
        return
    keys, keeps = _clause_keeps(_live_clauses(f), n)
    # the first slab reads index 0 (true) on every leading axis, which
    # falsifies a leading literal exactly when it is negated; below n = 6
    # one word holds all 2^n cells in its low bits
    np.bitwise_and.reduce(
        keeps[: np.searchsorted(keys, 1 << lead)],
        axis=0,
        initial=_WORD >> (64 - (1 << min(n, _LANES))),
        out=slabs[0],
    )
    yield slabs[:1]
    if lead == 0:
        return
    rest = slabs[1:]
    rest[...] = _WORD
    leading = table.reshape((2,) * lead + (-1,))
    for key, lo, hi in _key_runs(keys):
        falsified = key >> lead
        index = [
            falsified >> a & 1 if key >> a & 1 else slice(None) for a in range(lead)
        ]
        # the trailing ... keeps a view even when every leading axis is fixed
        view = leading[(*index, ...)]
        keep = keeps[lo] if hi - lo == 1 else np.bitwise_and.reduce(keeps[lo:hi])
        np.bitwise_and(view, keep, out=view)
    yield rest


def encode_table(
    f: CnfFormula, *, term_budget: int | None = None
) -> np.ndarray | None:
    """The value table of :func:`table_slabs` with every slab filled, or
    None where that gives None."""
    walk = table_slabs(f, term_budget=term_budget)
    if walk is None:
        return None
    table, blocks = walk
    for _ in blocks:
        pass
    return table


def first_set_cell(blocks: Iterable[np.ndarray]) -> tuple[int | None, int, int]:
    """Walk slab blocks (:func:`table_slabs`) up to the first slab with a set
    cell: that cell's primitive index, the number of slabs read and the set
    cells among them.  With no cell set, the index is None and every slab
    has been read."""
    read = 0
    for block in blocks:
        counts = np.bitwise_count(block).sum(axis=1)
        if counts.any():
            slab = int((counts != 0).argmax())
            words = block[slab]
            w = int((words != 0).argmax())
            word = int(words[w])
            bit = (word & -word).bit_length() - 1
            cell = ((read + slab) * words.size + w) * 64 + bit
            return cell, read + slab + 1, int(counts[slab])
        read += len(block)
    return None, read, 0


def table_cells(table: np.ndarray, n: int) -> np.ndarray:
    """The primitive indices of an n-variable value table's set cells, in
    ascending order."""
    bits = np.unpackbits(
        table.astype("<u8").reshape(-1).view(np.uint8), bitorder="little"
    )
    return np.flatnonzero(bits[: 1 << n])


def encode_formula(
    f: CnfFormula, *, term_budget: int | None = None
) -> DiagonalElement:
    """Product over clauses of (identity - falsifier) as a sparse sum of
    patterns, merging like patterns after every factor, under the pattern
    budget (*term_budget*, default 2^20); exceeding it raises
    :class:`TermBudgetError`.  This is the product's form past the cell
    budget of :func:`table_slabs`.
    """
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
    for _, path, terms in cofactor_leaves(element):
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


def algebra_verdict(
    f: CnfFormula, term_budget: int | None = None
) -> tuple[bool, Assignment | None, dict[str, int]]:
    """(unsatisfiable, model, counters) from the product in the form the
    cell budget picks: the table walk up to its first set cell, or the
    cofactor zero test of the sparse product.  The counters are
    ``patterns`` (the sparse product's patterns, or the set cells of the
    slab holding the model), ``slabs`` (table slabs read) and ``splits``
    (cofactor splits taken); the form not taken reads 0 in its own."""
    walk = table_slabs(f, term_budget=term_budget)
    if walk is None:
        element = encode_formula(f, term_budget=term_budget)
        zero, splits, point = zero_test_splits(element)
        counters = {"patterns": element.term_count, "slabs": 0, "splits": splits}
        return zero, point, counters
    cell, slabs, patterns = first_set_cell(walk[1])
    model = None if cell is None else Assignment.from_primitive_index(cell, f.n)
    return cell is None, model, {"patterns": patterns, "slabs": slabs, "splits": 0}


def algebra_models(
    f: CnfFormula, term_budget: int | None, max_enum: int
) -> tuple[int, list[Assignment] | None]:
    """(model count, the models in primitive-index order when the count is
    from 1 to *max_enum*, else None), from the product in the form the
    cell budget picks."""
    table = encode_table(f, term_budget=term_budget)
    if table is None:
        element = encode_formula(f, term_budget=term_budget)
        total = count_models(element)
        if not 0 < total <= max_enum:
            return total, None
        return total, sorted(models(element), key=Assignment.primitive_index)
    total = int(np.bitwise_count(table).sum())
    if not 0 < total <= max_enum:
        return total, None
    cells = table_cells(table, f.n).tolist()
    return total, [Assignment.from_primitive_index(i, f.n) for i in cells]
