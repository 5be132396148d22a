"""A frozen copy of the DIMACS parser the package used before its clauses
became integer tuples, kept only as the reference the parser is compared
against (``test_cnf.py``), and the DIMACS writer the tests make input
files with.  Neither is part of the package.

The parser reads the text token by token, one ``int()`` and one check per
token.  The only changes from the original are that a clause is
deduplicated in place, as ``Clause`` does, and that the result is a plain
:class:`ReferenceParse` instead of a formula.
"""

from __future__ import annotations

import re
import warnings
from typing import NamedTuple

from wittsat.cnf import CnfFormula, DimacsError, ParseWarning


class ReferenceParse(NamedTuple):
    n: int
    clauses: tuple[tuple[int, ...], ...]
    empty_clause_count: int


_HEADER = re.compile(r"p\s+cnf\s+(\d+)\s+(\d+)")


def reference_parse_dimacs(text: str) -> ReferenceParse:
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
    clauses = tuple(_dedup(c) for c in raw_clauses)
    found = len(clauses) + empties
    if found != declared:
        warnings.warn(
            f"header declares {declared} clauses, found {found}", ParseWarning
        )
    return ReferenceParse(n, clauses, empties)


def _dedup(lits: list[int]) -> tuple[int, ...]:
    seen: set[int] = set()
    out = []
    for lit in lits:
        if lit in seen:
            continue
        seen.add(lit)
        out.append(lit)
    return tuple(out)


def serialize_dimacs(f: CnfFormula) -> str:
    """The formula as DIMACS text that ``parse_dimacs`` reads back to it."""
    lines = [f"p cnf {f.n} {f.m}"]
    lines.extend(str(c) for c in f.clauses)
    lines.extend("0" for _ in range(f.empty_clause_count))
    return "\n".join(lines) + "\n"
