"""Boolean formulas as products in the idempotent subalgebra.

A clause maps to the idempotent selecting its unique falsifying partial
assignment; a formula maps to the product over clauses of (identity minus
that falsifier).  The product evaluates to 1 exactly on satisfying
assignments, so the formula is unsatisfiable precisely when the product is
the zero element.

The product takes one of two forms: its table of values on all 2^n
assignments, one bit each and zero when no bit is set, or a sparse sum of
patterns (:func:`encode_formula`), which the cofactor zero test decides.
The table is never built whole.  :func:`slab_walk` yields its slabs, the
Shannon cofactors at each setting of the leading variables, as Python ints
of up to 2^14 bits in primitive-index order, skips every slab with no set
cell, and charges the cells it covers to the cell budget (2^22, or
``--limit``).  ``check`` (:func:`algebra_verdict`) walks to the first slab,
whose lowest set cell is the lowest-indexed model, and takes the sparse
form only when the walk passes the budget first; ``models``
(:func:`algebra_models`) walks when all 2^n cells are within the budget.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from operator import and_
from typing import Callable, Iterator

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
    tautological ones, which have none; none at all beside an empty
    clause, whose falsifier is every assignment."""
    if f.has_empty_clause:
        return []
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


class _LiteralTable(dict):
    """A table of literals whose entry *make* makes on first use."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], int]):
        super().__init__()
        self.make = make

    def __missing__(self, lit: int) -> int:
        value = self[lit] = self.make(lit)
        return value


@functools.cache
def _literal_masks(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """Each literal's falsifier over one slab of an n-variable value table,
    and the key of the leading cells it fixes, made on first use, so the
    tables hold only the literals of the formulas walked.

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

    def falsifier(lit: int) -> int:
        var = abs(lit)
        if var <= lead:
            return full
        # where the variable reads 1 (false): runs of 2^s cells off, 2^s on
        run = 1 << (n - var)
        ones = ((1 << run) - 1) << run
        while 2 * run < 1 << w:
            run *= 2
            ones |= ones << run
        return ones if lit > 0 else full ^ ones

    def key(lit: int) -> int:
        var = abs(lit)
        if var > lead:
            return 0
        bit = 1 << (lead - var)
        return bit << lead | bit if lit > 0 else bit

    return _LiteralTable(falsifier), _LiteralTable(key)


def slab_walk(
    f: CnfFormula, cell_budget: int, live: list[Clause] | None = None
) -> Iterator[tuple[int, int]]:
    """(index, slab) for each slab of the product's value table that holds
    a set cell, in ascending index order, of the product over the clauses
    *live* (else :func:`_live_clauses`).

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
    it, and an empty clause covers the root.  Each node the walk finishes,
    dropped or yielded, covers the 2^(n - d) cells beneath it at depth d;
    once the cells covered pass *cell_budget* the walk raises
    :class:`ResourceLimitError`.
    """
    n = f.n
    lead = n - min(n, _ROW_VARIABLES)
    full = (1 << (1 << (n - lead))) - 1
    cap = cell_budget >> (n - lead)  # in slabs: a node covers 2^(L - d)
    if not cap:  # each finished node covers a slab or more: the first raises
        raise ResourceLimitError(f"the walk covers over {cell_budget} cells")
    falsifiers, keys = _literal_masks(n)
    mask, key_of = falsifiers.__getitem__, keys.__getitem__
    root = full if f.has_empty_clause else 0
    unions: dict[int, int] = {}
    for clause in _live_clauses(f) if live is None else live:
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
    covered = 0
    while stack:
        depth, index, union = stack.pop()
        for fixed, values, falsifier in levels[depth]:
            if index & fixed == values:
                union |= falsifier
        if union != full and depth < lead:
            bit = 1 << (lead - depth - 1)
            stack.append((depth + 1, index | bit, union))
            stack.append((depth + 1, index, union))
            continue
        covered += 1 << (lead - depth)
        if covered > cap:
            raise ResourceLimitError(f"the walk covers over {cell_budget} cells")
        if union != full:
            yield index, full ^ union


def encode_formula(
    f: CnfFormula, *, term_budget: int | None = None, live: list[Clause] | None = None
) -> DiagonalElement:
    """Product over clauses (*live*, else :func:`_live_clauses`) of
    (identity - falsifier) as a sparse sum of patterns, merging like
    patterns after every factor, under the pattern budget (*term_budget*,
    default 2^20); exceeding it raises :class:`TermBudgetError`."""
    n = f.n
    budget = DEFAULT_TERM_BUDGET if term_budget is None else int(term_budget)
    if f.has_empty_clause:
        return DiagonalElement(n, {})
    terms: dict[int, int] = {_all_identity(n): 1}
    for clause in _live_clauses(f) if live is None else live:
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
    """(unsatisfiable, model, counters) from the slab walk up to its first
    slab, or from the cofactor zero test of the sparse product when the
    walk passes the cell budget first.  The counters are ``patterns`` (the
    sparse product's patterns, or the set cells of the model's slab),
    ``slabs`` (the model's slab's index plus one, or all 2^L slabs when
    there is no model) and ``splits`` (cofactor splits taken); the form
    not taken reads 0 in its own."""
    n = f.n
    w = min(n, _ROW_VARIABLES)
    cell_budget = DEFAULT_CELL_BUDGET if term_budget is None else term_budget
    live = _live_clauses(f)
    try:
        for index, slab in slab_walk(f, cell_budget, live):
            cell = index << w | (slab & -slab).bit_length() - 1
            counters = {"patterns": slab.bit_count(), "slabs": index + 1, "splits": 0}
            return False, Assignment.from_primitive_index(cell, n), counters
        return True, None, {"patterns": 0, "slabs": 1 << (n - w), "splits": 0}
    except ResourceLimitError:  # the walk passed the budget first
        element = encode_formula(f, term_budget=term_budget, live=live)
    zero, splits, point = zero_test_splits(element)
    counters = {"patterns": element.term_count, "slabs": 0, "splits": splits}
    return zero, point, counters


def algebra_models(
    f: CnfFormula, term_budget: int | None, max_enum: int
) -> tuple[int, list[Assignment] | None]:
    """(model count, the models in primitive-index order when the count is
    from 1 to *max_enum*, else None), from the slab walk when all 2^n cells
    are within the cell budget and from the sparse product past it.  The
    walk's count sums the set cells of every slab; its listing reads the
    set cells of the slabs a byte at a time."""
    n = f.n
    cell_budget = DEFAULT_CELL_BUDGET if term_budget is None else term_budget
    if 1 << n > cell_budget:
        element = encode_formula(f, term_budget=term_budget)
        total = count_models(element)
        if not 0 < total <= max_enum:
            return total, None
        return total, sorted(models(element), key=Assignment.primitive_index)
    total = 0
    kept = []  # the slabs, while they hold no more than max_enum cells
    for index, slab in slab_walk(f, cell_budget):
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
