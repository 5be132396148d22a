"""DIMACS CNF input, clause and assignment structures, serialization."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


class TautologyError(ValueError):
    """Operation undefined on a tautological clause (it has no falsifier)."""


class ResourceLimitError(RuntimeError):
    """A configured size budget was exceeded."""


class ParseWarning(UserWarning):
    pass


@dataclass(frozen=True, order=True)
class Literal:
    var: int
    negated: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise ValueError("variables are numbered from 1")

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("0 is not a literal")
        return cls(abs(lit), lit < 0)

    def to_int(self) -> int:
        return -self.var if self.negated else self.var

    def holds_in(self, values: Sequence[bool]) -> bool:
        return bool(values[self.var - 1]) != self.negated

    def __str__(self) -> str:
        return str(self.to_int())


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals.  Never empty; duplicates are rejected here
    and silently dropped by :meth:`from_ints`.  A clause containing both
    polarities of a variable is kept but flagged tautological."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause; track it on the formula instead")
        keys = {(l.var, l.negated) for l in self.literals}
        if len(keys) != len(self.literals):
            raise ValueError("duplicate literals; use Clause.from_ints to deduplicate")

    @classmethod
    def from_ints(cls, lits: Iterable[int]) -> "Clause":
        seen: set[tuple[int, bool]] = set()
        out = []
        for l in lits:
            lit = Literal.from_int(l)
            key = (lit.var, lit.negated)
            if key in seen:
                continue
            seen.add(key)
            out.append(lit)
        return cls(tuple(out))

    @property
    def is_tautological(self) -> bool:
        pos = {l.var for l in self.literals if not l.negated}
        neg = {l.var for l in self.literals if l.negated}
        return bool(pos & neg)

    def satisfied_by(self, assignment: "Assignment") -> bool:
        return any(l.holds_in(assignment.values) for l in self.literals)

    def falsified_by(self, assignment: "Assignment") -> bool:
        return not self.satisfied_by(assignment)

    def to_ints(self) -> tuple[int, ...]:
        return tuple(l.to_int() for l in self.literals)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.literals) + " 0"


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
        if formula.has_empty_clause:
            return False
        return all(c.satisfied_by(self) for c in formula.clauses)

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
        for c in self.clauses:
            for l in c.literals:
                if l.var > self.n:
                    raise ValueError(
                        f"variable {l.var} exceeds declared count {self.n}"
                    )

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
    """
    header: tuple[int, int] | None = None
    raw_clauses: list[list[int]] = []
    empties = 0
    pending: list[int] = []
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("%"):
            break
        if header is None:
            if not s.startswith("p"):
                raise DimacsError(f"line {ln}: expected 'p cnf' header, got {s!r}")
            m = _HEADER.fullmatch(s)
            if not m:
                raise DimacsError(f"line {ln}: malformed header {s!r}")
            header = (int(m.group(1)), int(m.group(2)))
            if header[0] < 1:
                raise DimacsError("at least one variable is required")
            continue
        for tok in s.split():
            if tok == "-0":
                raise DimacsError(f"line {ln}: '-0' is not a literal")
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"line {ln}: bad token {tok!r}") from None
            if lit == 0:
                if pending:
                    raw_clauses.append(pending)
                    pending = []
                else:
                    empties += 1
            else:
                if abs(lit) > header[0]:
                    raise DimacsError(
                        f"line {ln}: variable {abs(lit)} exceeds declared {header[0]}"
                    )
                pending.append(lit)
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        warnings.warn("unterminated final clause (missing trailing 0)", ParseWarning)
        raw_clauses.append(pending)
    n, declared = header
    clauses = tuple(Clause.from_ints(c) for c in raw_clauses)
    found = len(clauses) + empties
    if found != declared:
        warnings.warn(
            f"header declares {declared} clauses, found {found}", ParseWarning
        )
    return CnfFormula(n, clauses, empties, {"declared_clauses": declared})


def serialize_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    lines.extend(str(c) for c in f.clauses)
    lines.extend("0" for _ in range(f.empty_clause_count))
    return "\n".join(lines) + "\n"
