"""Paper constructions on single basis terms and point values that the tests
check the term engine and the null planes against.

Full basis terms s_1 ... s_n take one factor per position from q_ip_i,
p_iq_i, p_i and q_i, packed two bits per position like the diagonal
patterns of wittsat.algebra, but with their own codes: the high bit marks
an odd (bare vector) factor.  A null vector acts on a term from the left,
and a term's annihilating plane is read off its first factors.  Nothing
here reads the encoding or the cover route (tests/test_imports.py keeps it
so), because the matrix backend in tests/oracle_reference.py builds on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from wittsat.algebra import (
    D_PQ,
    D_QP,
    DiagonalElement,
    _check_n,
    _low_field_bits,
    pattern_field,
)

# Full-term symbols, two bits per position; the high bit marks odd grade.
S_QP = 0b00  # q_i p_i
S_PQ = 0b01  # p_i q_i
S_P = 0b10   # p_i
S_Q = 0b11   # q_i


class NullVector(NamedTuple):
    """One basis null vector, p_i or q_i; the index is the 1-based position.
    The program's own vector type belongs to the cover route
    (wittsat.geometry.WittVector), which this module may not import."""

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
        _check_n(self.n)
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


def assignment_element(assignment) -> DiagonalElement:
    """The primitive idempotent selecting exactly one assignment."""
    values = _values_of(assignment)
    return DiagonalElement(len(values), {_sigma_pattern(values): 1})
