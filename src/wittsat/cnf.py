"""DIMACS CNF input, clause and assignment structures, serialization."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


class TautologyError(ValueError):
    """Operation undefined on a tautological clause (it has no falsifier)."""


class ResourceLimitError(RuntimeError):
    """A configured size budget was exceeded."""


class ParseWarning(UserWarning):
    pass


class Clause(tuple):
    """A disjunction of literals, as a tuple of nonzero signed ints: ``v``
    is variable v and ``-v`` its negation.  Never empty; duplicates are
    rejected here and silently dropped by :meth:`from_ints`.  A clause
    containing both polarities of a variable is kept but flagged
    tautological: it is made a :class:`_TautologicalClause`, so the flag
    is worked out once, when the clause is made."""

    __slots__ = ()
    is_tautological = False

    def __new__(cls, lits: Iterable[int]):
        lits = tuple(lits)
        if len(set(lits)) != len(lits):
            raise ValueError("duplicate literals; use Clause.from_ints to deduplicate")
        return cls.from_ints(lits)

    @classmethod
    def from_ints(cls, lits: Iterable[int]) -> "Clause":
        lits = tuple(lits)
        if not lits:
            raise ValueError("empty clause; track it on the formula instead")
        if 0 in lits:
            raise ValueError("0 is not a literal")
        if len(set(map(abs, lits))) < len(lits):  # a variable repeats
            lits = tuple(dict.fromkeys(lits))
            if len(set(map(abs, lits))) < len(lits):
                return tuple.__new__(_TautologicalClause, lits)
        return tuple.__new__(Clause, lits)

    def falsified_by(self, assignment: "Assignment") -> bool:
        return set(assignment.to_ints()).isdisjoint(self)

    def __str__(self) -> str:
        return " ".join(map(str, self)) + " 0"


class _TautologicalClause(Clause):
    """A clause holding both polarities of some variable."""

    __slots__ = ()
    is_tautological = True


@dataclass(frozen=True)
class Assignment:
    """A total truth assignment; values[i] is the value of variable i+1."""

    values: tuple[bool, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("assignments need at least one variable")
        if not all(isinstance(v, bool) for v in self.values):
            raise TypeError("assignment values must be bools")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "Assignment":
        """Bit i-1 of the mask is the value of variable i."""
        return cls(tuple(bool((mask >> i) & 1) for i in range(n)))

    def primitive_index(self) -> int:
        """Diagonal slot of this assignment's primitive idempotent.

        Variable 1 is the most significant bit; a true variable contributes
        bit 0, a false one bit 1.
        """
        idx = 0
        for v in self.values:
            idx = (idx << 1) | (0 if v else 1)
        return idx

    @classmethod
    def from_primitive_index(cls, idx: int, n: int) -> "Assignment":
        vals = []
        for i in range(n):
            bit = (idx >> (n - 1 - i)) & 1
            vals.append(bit == 0)
        return cls(tuple(vals))

    def satisfies(self, formula: "CnfFormula") -> bool:
        """Every clause shares a literal with the assignment's true literals."""
        if formula.has_empty_clause:
            return False
        true = {v if x else -v for v, x in enumerate(self.values, 1)}
        return not any(map(true.isdisjoint, formula.clauses))

    def to_ints(self) -> tuple[int, ...]:
        return tuple(i + 1 if v else -(i + 1) for i, v in enumerate(self.values))

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.to_ints())


@dataclass(frozen=True)
class CnfFormula:
    """A CNF over variables 1..n.  Empty clauses (immediate contradictions)
    are counted on the side so :class:`Clause` can stay nonempty."""

    n: int
    clauses: tuple[Clause, ...]
    empty_clause_count: int = 0
    source_meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("formulas need at least one variable")
        if self.empty_clause_count < 0:
            raise ValueError("negative empty-clause count")
        n = self.n
        if max(map(abs, chain.from_iterable(self.clauses)), default=0) > n:
            var = next(v for v in map(abs, chain.from_iterable(self.clauses)) if v > n)
            raise ValueError(f"variable {var} exceeds declared count {n}")

    @property
    def m(self) -> int:
        return len(self.clauses) + self.empty_clause_count

    @property
    def has_empty_clause(self) -> bool:
        return self.empty_clause_count > 0

    @classmethod
    def from_ints(cls, n: int, clause_ints: Iterable[Iterable[int]]) -> "CnfFormula":
        return cls(n, tuple(Clause.from_ints(c) for c in clause_ints))


_HEADER = re.compile(r"p\s+cnf\s+(\d+)\s+(\d+)")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Comments ('c' lines) and blank lines are skipped; a '%' line ends the
    input (common in benchmark archives).  Clauses may span lines and are
    terminated by 0; a bare 0 is an empty clause.  Count mismatches against
    the header produce a :class:`ParseWarning`; structural problems raise
    :class:`DimacsError`.

    The clause lines are read as one stream of tokens, converted with one
    ``map(int, ...)``; only when that stream holds an error are the lines
    read again one token at a time, to name its line and token.
    """
    lines = text.splitlines()
    header = None
    for ln, line in enumerate(lines, 1):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("%"):
            break
        if not s.startswith("p"):
            raise DimacsError(f"line {ln}: expected 'p cnf' header, got {s!r}")
        m = _HEADER.fullmatch(s)
        if not m:
            raise DimacsError(f"line {ln}: malformed header {s!r}")
        header = (int(m.group(1)), int(m.group(2)))
        if header[0] < 1:
            raise DimacsError("at least one variable is required")
        break
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    n, declared = header
    body = []
    for line in lines[ln:]:
        head = line.lstrip()[:1]
        if head == "c":
            continue
        if head == "%":
            break
        body.append(line)
    toks = " ".join(body).split()
    try:
        lits = list(map(int, toks))
    except ValueError:
        lits = None
    if lits is None or "-0" in toks or max(map(abs, lits), default=0) > n:
        raise _first_token_error(lines, ln, n)
    clauses = []
    empties = start = 0
    for _ in range(lits.count(0)):
        end = lits.index(0, start)
        if end > start:
            clauses.append(Clause.from_ints(lits[start:end]))
        else:
            empties += 1
        start = end + 1
    if start < len(lits):
        warnings.warn("unterminated final clause (missing trailing 0)", ParseWarning)
        clauses.append(Clause.from_ints(lits[start:]))
    found = len(clauses) + empties
    if found != declared:
        warnings.warn(
            f"header declares {declared} clauses, found {found}", ParseWarning
        )
    return CnfFormula(n, tuple(clauses), empties, {"declared_clauses": declared})


def _first_token_error(lines: list[str], header_ln: int, n: int) -> DimacsError:
    """The error of the first bad token after the header line: '-0', a
    token that is no integer, or a variable past n."""
    for ln, line in enumerate(lines[header_ln:], header_ln + 1):
        s = line.strip()
        if s.startswith("c"):
            continue
        if s.startswith("%"):
            break
        for tok in s.split():
            if tok == "-0":
                return DimacsError(f"line {ln}: '-0' is not a literal")
            try:
                lit = int(tok)
            except ValueError:
                return DimacsError(f"line {ln}: bad token {tok!r}")
            if abs(lit) > n:
                return DimacsError(
                    f"line {ln}: variable {abs(lit)} exceeds declared {n}"
                )
    raise RuntimeError("no bad token after the header; this is a defect")


def serialize_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    lines.extend(str(c) for c in f.clauses)
    lines.extend("0" for _ in range(f.empty_clause_count))
    return "\n".join(lines) + "\n"
