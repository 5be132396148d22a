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

import numbers
from functools import lru_cache
from typing import Generator, Mapping

import numpy as np

from .cnf import Assignment, ResourceLimitError

# Diagonal pattern fields, two bits per position.  AND implements the
# positionwise product: the identity factor keeps anything, equal idempotents
# are stable, opposite idempotents annihilate (field -> 00).
D_QP = 0b01  # q_i p_i   (variable i true)
D_PQ = 0b10  # p_i q_i   (variable i false)
D_ID = 0b11  # {q_i, p_i}, the identity factor

# Cap on n for omega_element, which holds one pattern per assignment.
EXPAND_LIMIT = 24


class ExpansionLimitError(ResourceLimitError):
    """The volume element would span more positions than allowed."""


def _check_n(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"positive variable count required, got {n!r}")


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
    """Pack a pattern: identity everywhere except the given 1-based positions."""
    _check_n(n)
    pat = _all_identity(n)
    for var, code in fixed.items():
        if not 1 <= var <= n:
            raise ValueError(f"position {var} outside 1..{n}")
        if code not in (D_QP, D_PQ, D_ID):
            raise ValueError(f"bad field code {code!r}")
        shift = 2 * (var - 1)
        pat = (pat & ~(0b11 << shift)) | (code << shift)
    return pat


def identity_count(pattern: int, n: int) -> int:
    """Number of identity fields in a packed diagonal pattern."""
    return (pattern & (pattern >> 1) & _low_field_bits(n)).bit_count()


class DiagonalElement:
    """Sparse integer combination of commuting idempotent patterns.

    ``terms`` maps packed patterns to nonzero integer coefficients.  Instances
    are not mutated after construction.  Equality is semantic: two elements
    are equal when they evaluate to the same integer on every one of the 2^n
    assignments, whatever sparse form each is stored in.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, int] | None = None):
        _check_n(n)
        clean: dict[int, int] = {}
        if terms:
            top = 1 << (2 * n)
            for pat, c in terms.items():
                if not 0 <= pat < top or not pattern_alive(pat, n):
                    raise ValueError(f"invalid pattern {pat:#x} for n={n}")
                if not isinstance(c, numbers.Integral):
                    raise TypeError(f"coefficients are integers, got {c!r}")
                if c:
                    clean[pat] = int(c)
        self.n = n
        self.terms = clean

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return zero_test_splits(self)[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        if self.n != other.n:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def __add__(self, other: "DiagonalElement") -> "DiagonalElement":
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")
        merged = dict(self.terms)
        for pat, c in other.terms.items():
            nc = merged.get(pat, 0) + c
            if nc:
                merged[pat] = nc
            elif pat in merged:
                del merged[pat]
        return DiagonalElement(self.n, merged)

    def __neg__(self) -> "DiagonalElement":
        return DiagonalElement(self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "DiagonalElement") -> "DiagonalElement":
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DiagonalElement):
            return diag_mul(self, other)
        if isinstance(other, numbers.Integral):
            k = int(other)
            if k == 0:
                return DiagonalElement(self.n, {})
            return DiagonalElement(self.n, {p: c * k for p, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DiagonalElement(n={self.n}, terms={self.term_count})"

def diag_mul(a: DiagonalElement, b: DiagonalElement) -> DiagonalElement:
    """Product in the idempotent subalgebra (positionwise AND of patterns)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    out: dict[int, int] = {}
    n = a.n
    for p1, c1 in a.terms.items():
        for p2, c2 in b.terms.items():
            r = p1 & p2
            if not pattern_alive(r, n):
                continue
            nc = out.get(r, 0) + c1 * c2
            if nc:
                out[r] = nc
            elif r in out:
                del out[r]
    return DiagonalElement(n, out)


def identity_element(n: int) -> DiagonalElement:
    """The multiplicative unit: the all-identity pattern."""
    _check_n(n)
    return DiagonalElement(n, {_all_identity(n): 1})


def omega_element(n: int, limit: int = EXPAND_LIMIT) -> DiagonalElement:
    """The volume element gamma_1 ... gamma_2n as a product of commutators.

    Each position contributes q_ip_i - p_iq_i, so the expansion carries one
    full pattern per assignment with sign (-1)^(number of false positions).
    """
    _check_n(n)
    if n > limit:
        raise ExpansionLimitError(f"volume element over n={n} exceeds limit {limit}")
    terms = {0: 1}
    for i in range(n):
        nxt: dict[int, int] = {}
        for pat, c in terms.items():
            nxt[pat | (D_QP << (2 * i))] = c
            nxt[pat | (D_PQ << (2 * i))] = -c
        terms = nxt
    return DiagonalElement(n, terms)


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
        masks = b"".join(
            (p & (p >> 1) & low).to_bytes(width, "little") for p in terms
        )
        rows = np.frombuffer(masks, dtype=np.uint8).reshape(len(terms), width)
        counts = np.empty((width, 4), dtype=np.int64)
        for k in range(4):
            counts[:, k] = ((rows >> (2 * k)) & 1).sum(axis=0, dtype=np.int64)
        counts = counts.reshape(-1)[:n]
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
        f = (pat >> shift) & 0b11
        if f == keep or f == D_ID:
            r = pat | ident
            nc = sub.get(r, 0) + c
            if nc:
                sub[r] = nc
            elif r in sub:
                del sub[r]
    return sub
