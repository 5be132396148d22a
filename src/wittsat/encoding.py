"""Boolean formulas as products in the idempotent subalgebra.

A clause maps to the idempotent selecting its unique falsifying partial
assignment; a formula maps to the product over clauses of (identity minus
that falsifier).  The product evaluates to 1 exactly on satisfying
assignments, so the formula is unsatisfiable precisely when the product is
the zero element.

The product takes one of two forms, chosen by 2^n against the cell budget:
2^22 cells by default, else the explicit budget (``--limit``), so a budget
below 2^n forces the sparse form at any n.  While 2^n fits, and is no more
than 2^32, the form is its table of values on all 2^n assignments, one bit
each and zero when no bit is set; past that, a sparse sum of patterns
(:func:`encode_formula`), which the cofactor zero test decides.
The table is never built whole.  :func:`slab_walk` yields its slabs, the
Shannon cofactors at each setting of the leading variables, as Python
ints of up to 2^14 bits, in the order of their assignments' primitive
indices, and skips every slab with no set cell: a verdict stops at the
first slab, whose lowest set cell is the lowest-indexed model, and a count
takes every slab.  :func:`algebra_verdict` and :func:`algebra_models`,
what ``check`` and ``models`` call, make the choice between the two forms.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from operator import and_
from typing import Iterator

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


# A slab holds the cells of the last min(n, _ROW_VARIABLES) variables, one
# bit each; the variables before them are the leading variables, whose
# values pick the slab.
_ROW_VARIABLES = 14
# The largest table the walk takes, whatever the cell budget: 2^32 cells,
# at most 2^18 slabs.  Past it the product is sparse.
_CELL_CEILING = 1 << 32


@functools.cache
def _literal_masks(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """Each literal's falsifier over one slab of an n-variable value table,
    and the key of the leading cells it fixes.

    A slab is an int of 2^w bits, w = min(n, 14): bit b is the cell whose
    last w variables read the bits of b (variable n at bit 0), 0 for true
    and 1 for false.  A literal on a row variable fails where its variable
    reads its falsifying value, and a literal on one of the L = n - w
    leading variables on the whole slab, since its value picks the slab
    instead.  A key's low L bits are the leading variables fixed and its
    high L bits the values at which the literals on them fail, variable 1
    at the top bit of each half; a literal sets its variable's bit in the
    low half, and a positive literal, false at 1, in the high half too.  So
    a clause's key is the sum of its literals' keys, and 0 when it has no
    leading literal.
    """
    w = min(n, _ROW_VARIABLES)
    lead = n - w
    full = (1 << (1 << w)) - 1
    falsifiers: dict[int, int] = {}
    keys: dict[int, int] = {}
    for var in range(1, lead + 1):
        bit = 1 << (lead - var)
        falsifiers[var] = falsifiers[-var] = full
        keys[var], keys[-var] = bit << lead | bit, bit
    for var in range(lead + 1, n + 1):
        # where the variable reads 1 (false): runs of 2^s cells off, 2^s on
        run = 1 << (n - var)
        ones = ((1 << run) - 1) << run
        while 2 * run < 1 << w:
            run *= 2
            ones |= ones << run
        falsifiers[var], falsifiers[-var] = ones, full ^ ones
        keys[var] = keys[-var] = 0
    return falsifiers, keys


def _table_fits(n: int, term_budget: int | None) -> bool:
    """The product takes its table form: 2^n cells within the cell budget,
    2^22 when *term_budget* is None and *term_budget* otherwise, and within
    the ceiling of 2^32."""
    cell_budget = DEFAULT_CELL_BUDGET if term_budget is None else term_budget
    return 1 << n <= min(cell_budget, _CELL_CEILING)


def slab_walk(f: CnfFormula) -> Iterator[tuple[int, int]]:
    """(index, slab) for each slab of the product's value table that holds
    a set cell, in ascending index order.

    The table is the product written in the primitive-idempotent basis.
    Every value is 0 or 1, so each cell is one bit, and slab s holds the
    cells from primitive index s * 2^w at its bits (:func:`_literal_masks`):
    its index reads the leading variables as a primitive index does.  A
    slab is the Shannon cofactor of the product at its leading values: the
    cells outside the falsifiers of the clauses whose leading literals
    those values falsify, since a clause they satisfy drops out.

    A clause's falsifier is the AND of its literals'.  The clauses with no
    leading literal OR theirs into the root, and every other clause into
    one union per key, so at most 3^L unions are held.  The walk goes depth
    first over the leading variables, index 0 (true) first; a node at depth
    d ORs in the union of each key whose deepest leading variable is
    variable d and whose leading literals the node's values all falsify.
    A node whose union covers the slab is dropped with every slab beneath
    it, and an empty clause leaves no slab at all.
    """
    if f.has_empty_clause:
        return
    n = f.n
    lead = n - min(n, _ROW_VARIABLES)
    full = (1 << (1 << (n - lead))) - 1
    falsifiers, keys = _literal_masks(n)
    mask, key_of = falsifiers.__getitem__, keys.__getitem__
    root = 0
    unions: dict[int, int] = {}
    for clause in _live_clauses(f):
        if len(clause) == 3:
            a, b, c = clause
            falsifier = falsifiers[a] & falsifiers[b] & falsifiers[c]
        else:
            falsifier = functools.reduce(and_, map(mask, clause))
        key = lead and sum(map(key_of, clause))  # 0 without leading variables
        if key:
            unions[key] = unions.get(key, 0) | falsifier
        else:
            root |= falsifier
    # the deepest leading variable a key fixes is its lowest fixed bit
    levels: list[list[tuple[int, int, int]]] = [[] for _ in range(lead + 1)]
    for key, union in unions.items():
        fixed = key & ((1 << lead) - 1)
        depth = lead + 1 - (fixed & -fixed).bit_length()
        levels[depth].append((fixed, key >> lead, union))
    stack = [(0, 0, root)]
    while stack:
        depth, index, union = stack.pop()
        for fixed, values, falsifier in levels[depth]:
            if index & fixed == values:
                union |= falsifier
        if union == full:
            continue
        if depth == lead:
            yield index, full ^ union
            continue
        bit = 1 << (lead - depth - 1)
        stack.append((depth + 1, index | bit, union))
        stack.append((depth + 1, index, union))


def encode_formula(
    f: CnfFormula, *, term_budget: int | None = None
) -> DiagonalElement:
    """Product over clauses of (identity - falsifier) as a sparse sum of
    patterns, merging like patterns after every factor, under the pattern
    budget (*term_budget*, default 2^20); exceeding it raises
    :class:`TermBudgetError`.  This is the product's form past the cell
    budget of its table form (:func:`_table_fits`).
    """
    n = f.n
    budget = DEFAULT_TERM_BUDGET if term_budget is None else int(term_budget)
    if f.has_empty_clause:
        return DiagonalElement(n, {})
    terms: dict[int, int] = {_all_identity(n): 1}
    for clause in _live_clauses(f):
        z = pattern_bits(n, {abs(lit): D_PQ if lit > 0 else D_QP for lit in clause})
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


# the set bits of each byte value, lowest first
_BYTE_BITS = tuple(tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))


def algebra_verdict(
    f: CnfFormula, term_budget: int | None = None
) -> tuple[bool, Assignment | None, dict[str, int]]:
    """(unsatisfiable, model, counters) from the product in the form the
    cell budget picks: the slab walk up to its first slab, whose lowest
    set cell is the lowest-indexed model, or the cofactor zero test of the
    sparse product.  The counters are ``patterns`` (the sparse product's
    patterns, or the set cells of the model's slab), ``slabs`` (the
    model's slab's index plus one, or all 2^L slabs when there is no
    model) and ``splits`` (cofactor splits taken); the form not taken reads
    0 in its own."""
    n = f.n
    if not _table_fits(n, term_budget):
        element = encode_formula(f, term_budget=term_budget)
        zero, splits, point = zero_test_splits(element)
        counters = {"patterns": element.term_count, "slabs": 0, "splits": splits}
        return zero, point, counters
    w = min(n, _ROW_VARIABLES)
    for index, slab in slab_walk(f):
        cell = index << w | (slab & -slab).bit_length() - 1
        counters = {"patterns": slab.bit_count(), "slabs": index + 1, "splits": 0}
        return False, Assignment.from_primitive_index(cell, n), counters
    return True, None, {"patterns": 0, "slabs": 1 << (n - w), "splits": 0}


def algebra_models(
    f: CnfFormula, term_budget: int | None, max_enum: int
) -> tuple[int, list[Assignment] | None]:
    """(model count, the models in primitive-index order when the count is
    from 1 to *max_enum*, else None), from the product in the form the
    cell budget picks.  The table's count sums the set cells of every
    slab; its listing reads the set cells of the slabs a byte at a time."""
    n = f.n
    if not _table_fits(n, term_budget):
        element = encode_formula(f, term_budget=term_budget)
        total = count_models(element)
        if not 0 < total <= max_enum:
            return total, None
        return total, sorted(models(element), key=Assignment.primitive_index)
    total = 0
    kept = []  # the slabs, while they hold no more than max_enum cells
    for index, slab in slab_walk(f):
        total += slab.bit_count()
        if total <= max_enum:
            kept.append((index, slab))
    if not 0 < total <= max_enum:
        return total, None
    w = min(n, _ROW_VARIABLES)
    # a set cell's values are those its byte's index gives the first n - 3
    # variables, then those its bit gives the last three (the last n below 3)
    last = min(n, 3)
    tails = [Assignment.from_primitive_index(b, 3).values[3 - last :] for b in range(8)]
    listing: list[Assignment] = []
    for index, slab in kept:
        at = index << w >> 3
        for byte in slab.to_bytes(((1 << w) + 7) // 8, "little"):
            if byte:
                head = Assignment.from_primitive_index(at, n - last).values
                listing += [Assignment(head + tails[b]) for b in _BYTE_BITS[byte]]
            at += 1
    return total, listing
