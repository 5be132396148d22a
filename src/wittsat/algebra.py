"""Exact term engine for the Clifford algebra of R^{n,n} in its null basis.

The algebra is generated by 2n null vectors p_i, q_i with p_i^2 = q_i^2 = 0
and {p_i, q_j} = delta_ij.  Basis terms are products s_1 s_2 ... s_n with one
factor per position i drawn from q_i p_i, p_i q_i, p_i, q_i.  Terms whose
factors avoid the bare vectors form a commutative subalgebra of idempotent
patterns; that subalgebra is where Boolean structure lives and is what
:class:`DiagonalElement` implements, with exact integer coefficients.

A pattern packs its symbol string into an int, two bits per position, so
products and cofactor splits are cheap bit work.  The code has a deliberate
property: the positionwise product is bitwise AND, and a dead position (two
opposite idempotents multiplied) shows up as a 00 field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, Mapping

from .cnf import Assignment

# Diagonal pattern fields, two bits per position.  AND implements the
# positionwise product: the identity factor keeps anything, equal idempotents
# are stable, opposite idempotents annihilate (field -> 00).
D_QP = 0b01  # q_i p_i   (variable i true)
D_PQ = 0b10  # p_i q_i   (variable i false)
D_ID = 0b11  # {q_i, p_i}, the identity factor


@lru_cache(maxsize=None)
def _all_identity(n: int) -> int:
    return (1 << (2 * n)) - 1


@lru_cache(maxsize=None)
def _low_field_bits(n: int) -> int:
    # bit 0 of every 2-bit field
    m = 0
    for i in range(n):
        m |= 1 << (2 * i)
    return m


def pattern_field(pattern: int, pos: int) -> int:
    """The 2-bit code of *pattern* at 0-based position *pos*."""
    return (pattern >> (2 * pos)) & 0b11


def pattern_alive(pattern: int, n: int) -> bool:
    """False when some position of the packed pattern is the dead field 00."""
    low = _low_field_bits(n)
    return ((pattern | (pattern >> 1)) & low) == low


def pattern_bits(n: int, fixed: Mapping[int, int]) -> int:
    """Pack a pattern: identity everywhere except the given 1-based positions,
    which must lie in 1..n and carry D_* codes (unchecked: the callers pack
    clauses the parser has already checked)."""
    clear = put = 0
    for var, code in fixed.items():
        shift = 2 * (var - 1)
        clear |= 0b11 << shift
        put |= code << shift
    return _all_identity(n) ^ clear | put


def identity_count(pattern: int, n: int) -> int:
    """Number of identity fields in a packed diagonal pattern."""
    return (pattern & (pattern >> 1) & _low_field_bits(n)).bit_count()


class DiagonalElement:
    """Sparse integer combination of commuting idempotent patterns.

    ``terms`` maps packed patterns to nonzero integer coefficients.  The
    element holds the dict it is given, unchecked: the encoder builds it
    from clauses the parser has already validated.  Instances are not
    mutated after construction.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[int, int]):
        self.n = n
        self.terms = terms

    @property
    def term_count(self) -> int:
        return len(self.terms)


def cofactor_leaves(
    a: DiagonalElement,
) -> Generator[tuple[int, int, dict[int, int]], None, int]:
    """The nonzero leaves of the cofactor walk over *a*.

    The walk splits on one position at a time over an explicit stack of
    (terms, split position, kept field, path) frames, so its depth does not
    depend on n; each cofactor is built when its frame is popped, and the
    q_ip_i side is walked before the p_iq_i side.  Patterns stay n fields
    wide throughout: a cofactor sets its split field to identity, so a
    split position is identity in every term and is never chosen again.

    A leaf is a cofactor whose coefficients all have one sign (a single
    pattern is one), so it cannot cancel to zero; zero cofactors are
    dropped.  Each leaf is yielded as (splits, path, terms): *splits* is
    the number of splits taken so far, and *path* is the all-identity
    pattern with the fields kept along the way, so a leaf pattern ``pat``
    stands for the assignments of ``pat & path``.  Leaves cover disjoint
    sets of assignments.  The generator returns the total number of
    splits.
    """
    n = a.n
    low = _low_field_bits(n)
    width = (n + 3) // 4  # bytes per identity mask, four fields to a byte
    splits = 0
    stack: list[tuple[dict[int, int], int, int, int]] = [
        (a.terms, -1, D_ID, _all_identity(n))
    ]
    while stack:
        terms, pos, keep, path = stack.pop()
        if pos >= 0:
            terms = _cofactor(terms, pos, keep)
            path ^= (D_ID ^ keep) << (2 * pos)
        if not terms:
            continue
        if len({c > 0 for c in terms.values()}) == 1:
            yield splits, path, terms
            continue
        # Split on the most constrained position: fewest identity fields,
        # lowest index on ties, never one that is identity in every term.
        import numpy as np  # only a frame that splits loads it

        masks = b"".join((p & (p >> 1) & low).to_bytes(width, "little") for p in terms)
        bits = np.unpackbits(np.frombuffer(masks, dtype=np.uint8), bitorder="little")
        counts = bits.reshape(len(terms), -1)[:, : 2 * n : 2].sum(axis=0)
        counts[counts == len(terms)] = len(terms) + 1
        best = int(np.argmin(counts))
        splits += 1
        stack.append((terms, best, D_PQ, path))
        stack.append((terms, best, D_QP, path))
    return splits


def zero_test_splits(a: DiagonalElement) -> tuple[bool, int, Assignment | None]:
    """Semantic zero test; also reports how many cofactor splits were taken
    and, when *a* is nonzero, a point where it is.

    The element is zero exactly when the cofactor walk has no nonzero leaf,
    so the test stops at the first leaf.  Its coefficients share one sign,
    so a is nonzero on the whole subcube of any leaf pattern with the path
    fixed: the point is that of the leaf's first pattern, with identity
    fields read as true.
    """
    try:
        splits, path, terms = next(cofactor_leaves(a))
    except StopIteration as done:
        return True, done.value, None
    point = next(iter(terms)) & path
    # D_QP (true) and D_ID both have the low bit of their field set
    values = tuple(bool(point >> 2 * i & 1) for i in range(a.n))
    return False, splits, Assignment(values)


def _cofactor(terms: Mapping[int, int], pos: int, keep: int) -> dict[int, int]:
    """The terms restricted to field *keep* at *pos*, that field set to
    identity."""
    shift = 2 * pos
    ident = D_ID << shift
    sub: dict[int, int] = {}
    for pat, c in terms.items():
        if pat >> shift & keep:  # the kept field or identity
            r = pat | ident
            nc = sub.get(r, 0) + c
            if nc:
                sub[r] = nc
            elif r in sub:
                del sub[r]
    return sub
