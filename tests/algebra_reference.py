"""Paper constructions on single basis terms and point values that the tests
check the term engine and the null planes against, the arithmetic of
diagonal elements that the program itself never runs, and a zero test that
picks its splits field by field in plain Python.

Full basis terms s_1 ... s_n take one factor per position from q_ip_i,
p_iq_i, p_i and q_i, packed two bits per position like the diagonal
patterns of wittsat.algebra, but with their own codes: the high bit marks
an odd (bare vector) factor.  A null vector acts on a term from the left,
and a term's annihilating plane is read off its first factors.  Nothing
here reads the encoding or the cover route (tests/test_imports.py keeps it
so), because the matrix backend in tests/oracle_reference.py builds on it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from wittsat.algebra import (
    D_ID,
    D_PQ,
    D_QP,
    DiagonalElement,
    _all_identity,
    _low_field_bits,
    pattern_alive,
    pattern_field,
    zero_test_splits,
)
from wittsat.cnf import Assignment


class CheckedElement(DiagonalElement):
    """The program's sparse element, validated on construction and given
    the ring operations.

    The constructor checks that every pattern is in range and alive and
    that every coefficient is an integer, and drops zero coefficients;
    ``CheckedElement.of(a)`` puts an element the program built through
    those checks.  Equality is semantic: two elements are equal when they
    evaluate to the same integer on every one of the 2^n assignments,
    whatever sparse form each is stored in, and an element of the program's
    own class compares through its terms the same way.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[int, int] | None = None):
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
        super().__init__(n, clean)

    @classmethod
    def of(cls, a: DiagonalElement) -> "CheckedElement":
        return cls(a.n, a.terms)

    def is_zero(self) -> bool:
        return zero_test_splits(self)[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        if self.n != other.n:
            return False
        return (self - CheckedElement.of(other)).is_zero()

    __hash__ = None

    def __add__(self, other: "CheckedElement") -> "CheckedElement":
        if not isinstance(other, CheckedElement):
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
        return CheckedElement(self.n, merged)

    def __neg__(self) -> "CheckedElement":
        return CheckedElement(self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "CheckedElement") -> "CheckedElement":
        if not isinstance(other, CheckedElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CheckedElement):
            return diag_mul(self, other)
        if isinstance(other, numbers.Integral):
            k = int(other)
            if k == 0:
                return CheckedElement(self.n, {})
            return CheckedElement(self.n, {p: c * k for p, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CheckedElement(n={self.n}, terms={self.term_count})"


def diag_mul(a: DiagonalElement, b: DiagonalElement) -> CheckedElement:
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
    return CheckedElement(n, out)


def identity_element(n: int) -> CheckedElement:
    """The multiplicative unit: the all-identity pattern."""
    return CheckedElement(n, {_all_identity(n): 1})


def omega_element(n: int) -> CheckedElement:
    """The volume element gamma_1 ... gamma_2n as a product of commutators.

    Each position contributes q_ip_i - p_iq_i, so the expansion carries one
    full pattern per assignment with sign (-1)^(number of false positions):
    2^n patterns, so keep n small.
    """
    terms = {0: 1}
    for i in range(n):
        nxt: dict[int, int] = {}
        for pat, c in terms.items():
            nxt[pat | (D_QP << (2 * i))] = c
            nxt[pat | (D_PQ << (2 * i))] = -c
        terms = nxt
    return CheckedElement(n, terms)


# Full-term symbols, two bits per position; the high bit marks odd grade.
S_QP = 0b00  # q_i p_i
S_PQ = 0b01  # p_i q_i
S_P = 0b10   # p_i
S_Q = 0b11   # q_i


class NullVector(NamedTuple):
    """One basis null vector, p_i or q_i; the index is the 1-based position."""

    index: int
    kind: str


_TERM_TEXT = {S_QP: "qp", S_PQ: "pq", S_P: "p", S_Q: "q"}
_TERM_CODE = {text: code for code, text in _TERM_TEXT.items()}


@dataclass(frozen=True)
class EFBTerm:
    """A single basis term with an integer coefficient.

    ``bits`` packs the n symbols two bits per position using the S_* codes;
    position i sits at bits [2(i-1), 2i).
    """

    n: int
    bits: int
    coeff: int = 1

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("terms carry nonzero coefficients; use None for zero")
        if not 0 <= self.bits < (1 << (2 * self.n)):
            raise ValueError("symbol bits out of range")

    @classmethod
    def from_symbols(cls, symbols: Iterable[str], coeff: int = 1) -> "EFBTerm":
        syms = list(symbols)
        bits = 0
        for i, s in enumerate(syms):
            try:
                bits |= _TERM_CODE[s] << (2 * i)
            except KeyError:
                raise ValueError(f"unknown symbol {s!r}") from None
        return cls(len(syms), bits, coeff)

    def symbols(self) -> tuple[str, ...]:
        return tuple(_TERM_TEXT[pattern_field(self.bits, i)] for i in range(self.n))

    def odd_before(self, i: int) -> int:
        """Count of odd-grade symbols strictly left of 1-based position *i*."""
        prefix = self.bits & ((1 << (2 * (i - 1))) - 1)
        return ((prefix >> 1) & _low_field_bits(self.n)).bit_count()

    def __str__(self) -> str:
        return f"{self.coeff} * " + " ".join(self.symbols())


# Left action of a bare null vector on the symbol at its own position.
# Missing entries annihilate: p (p q) = p p = 0 and q (q p) = q q = 0.
_LEFT_ACTION = {
    "p": {S_QP: S_P, S_Q: S_PQ},
    "q": {S_PQ: S_Q, S_P: S_QP},
}


def vector_action(v: NullVector, t: EFBTerm) -> EFBTerm | None:
    """Left Clifford product v t, or None when the product vanishes.

    The vector anticommutes past every odd symbol left of its position,
    hence the (-1)^(odd prefix) sign on the surviving term.
    """
    if v.index > t.n:
        raise ValueError(f"vector index {v.index} exceeds term size {t.n}")
    pos = v.index - 1
    new = _LEFT_ACTION[v.kind].get(pattern_field(t.bits, pos))
    if new is None:
        return None
    sign = -1 if t.odd_before(v.index) & 1 else 1
    bits = (t.bits & ~(0b11 << (2 * pos))) | (new << (2 * pos))
    return EFBTerm(t.n, bits, sign * t.coeff)


_FIRST_FACTOR = {S_QP: "q", S_PQ: "p", S_P: "p", S_Q: "q"}


def mtnp_of_spinor(t: EFBTerm) -> tuple[NullVector, ...]:
    """The annihilating null plane of a basis term: one generator per position.

    Each symbol is killed from the left exactly by its own first factor
    (q_ip_i by q_i, p_iq_i by p_i, bare vectors by themselves), so the
    generators can be read off positionwise.
    """
    return tuple(
        NullVector(i + 1, _FIRST_FACTOR[pattern_field(t.bits, i)]) for i in range(t.n)
    )


def _values_of(assignment) -> tuple[bool, ...]:
    vals = getattr(assignment, "values", assignment)
    return tuple(bool(v) for v in vals)


def _sigma_pattern(values: Sequence[bool]) -> int:
    bits = 0
    for i, v in enumerate(values):
        bits |= (D_QP if v else D_PQ) << (2 * i)
    return bits


def eval_at(a: DiagonalElement, assignment) -> int:
    """Value of the element on one assignment (its primitive-idempotent slot).

    A pattern contributes its coefficient when every fixed position agrees
    with the assignment; identity positions match either truth value.
    """
    values = _values_of(assignment)
    if len(values) != a.n:
        raise ValueError(f"assignment has {len(values)} values, element has {a.n}")
    sig = _sigma_pattern(values)
    return sum(c for pat, c in a.terms.items() if sig & pat == sig)


def assignment_element(assignment) -> CheckedElement:
    """The primitive idempotent selecting exactly one assignment."""
    values = _values_of(assignment)
    return CheckedElement(len(values), {_sigma_pattern(values): 1})


def reference_pick(terms: Mapping[int, int], n: int) -> int:
    """The position the zero test splits a frame on, from identity fields
    counted one position and one term at a time: fewest identity fields,
    lowest index on ties, never a position that is identity in every term."""
    counts = [sum(pattern_field(p, i) == D_ID for p in terms) for i in range(n)]
    return min((c, i) for i, c in enumerate(counts) if c < len(terms))[1]


def reference_zero_test(a: DiagonalElement) -> tuple[bool, int, Assignment | None]:
    """(zero, splits, point) of a cofactor walk that splits where
    :func:`reference_pick` says, each side's terms summed as they are read
    with a term dropped when its sum cancels, the q_ip_i side first.  It
    stops at the first frame whose coefficients share one sign; the point
    reads that frame's first pattern, the split values where it was split
    and true at its other identity fields."""
    n = a.n
    splits = 0
    stack: list[tuple[Mapping[int, int], dict[int, bool]]] = [(a.terms, {})]
    while stack:
        terms, fixed = stack.pop()
        if not terms:
            continue
        if len({c > 0 for c in terms.values()}) == 1:
            first = next(iter(terms))
            values = [pattern_field(first, i) != D_PQ for i in range(n)]
            for i, value in fixed.items():
                values[i] = value
            return False, splits, Assignment(tuple(values))
        pos = reference_pick(terms, n)
        splits += 1
        for field, value in ((D_PQ, False), (D_QP, True)):
            side: dict[int, int] = {}
            for p, c in terms.items():
                if pattern_field(p, pos) in (field, D_ID):
                    q = p | D_ID << 2 * pos
                    side[q] = side.get(q, 0) + c
                    if not side[q]:
                        del side[q]
            stack.append((side, {**fixed, pos: value}))
    return True, splits, None
