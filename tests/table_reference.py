"""A frozen copy of the value-table kernel as it was before the row split,
kept only as the reference the slabs of :func:`wittsat.encoding.slab_walk`
are compared against (``test_encoding.py``).  It is not part of the package.

Each clause is read straight off its literals: a literal on a word axis
indexes it, a literal on a lane ANDs one of the lane masks, and one in-place
AND runs on the view that index selects.  The only change from the original
is that the budget, the tautology filter and the lane masks are written out
here rather than imported.
"""

from __future__ import annotations

import warnings

import numpy as np

from wittsat.cnf import Clause, CnfFormula
from wittsat.encoding import DroppedClauseWarning

DEFAULT_CELL_BUDGET = 1 << 22


def _live_clauses(f: CnfFormula) -> list[Clause]:
    live = []
    for clause in f.clauses:
        if clause.is_tautological:
            warnings.warn(
                f"dropping tautological clause {clause}", DroppedClauseWarning
            )
        else:
            live.append(clause)
    return live


_LANES = 6
_WORD = (1 << 64) - 1
_LANE_FALSIFIERS = tuple(
    (ones, _WORD ^ ones)
    for ones in (sum(1 << b for b in range(64) if b >> s & 1) for s in range(_LANES))
)


def reference_table(
    f: CnfFormula, *, term_budget: int | None = None
) -> np.ndarray | None:
    """The packed uint64 value table, one strided AND per clause."""
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
        for lit in clause:
            var = abs(lit)
            if var <= axes:
                index[var - 1] = 1 if lit > 0 else 0
            else:
                falsifier &= _LANE_FALSIFIERS[n - var][lit < 0]
        # the trailing ... keeps a view even when every axis is fixed
        view = table[(*index, ...)]
        np.bitwise_and(view, _WORD ^ falsifier, out=view)
    return table
