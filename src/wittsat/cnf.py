"""DIMACS CNF input, clause and assignment structures."""

from __future__ import annotations

import re
import warnings
from typing import Iterable


class InputError(ValueError):
    """A value the user supplied (a file, an option or an environment
    variable) is malformed or out of range.  The command line exits 2 on
    it, and on nothing else."""


class DimacsError(InputError):
    """Malformed DIMACS CNF input."""


class ResourceLimitError(RuntimeError):
    """A configured size budget was exceeded."""


class ParseWarning(UserWarning):
    pass


class Clause(tuple):
    """A disjunction of literals, as a tuple of nonzero signed ints: ``v``
    is variable v and ``-v`` its negation.  Never empty; a repeated literal
    is dropped, keeping the first occurrence's order.  A clause containing
    both polarities of a variable is kept but flagged tautological: it is
    made a :class:`_TautologicalClause`, so the flag is worked out once,
    when the clause is made."""

    __slots__ = ()
    is_tautological = False

    def __new__(cls, lits: Iterable[int]):
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

    def __str__(self) -> str:
        return " ".join(map(str, self)) + " 0"


class _TautologicalClause(Clause):
    """A clause holding both polarities of some variable."""

    __slots__ = ()
    is_tautological = True


class Frozen:
    """Base of the value objects :class:`Assignment` and :class:`CnfFormula`.

    A subclass names its fields in ``__slots__``.  Its ``__init__`` sets
    each one once with ``object.__setattr__``, together with ``_key``: the
    one field, or a tuple of them.  It checks nothing: values are checked
    once, where they enter the program.  After that no field can be
    assigned or deleted.  Two objects are equal, and hash alike, when they
    are of one class and their keys are equal; objects of different classes
    are never equal.
    """

    __slots__ = ("_key",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)


class Assignment(Frozen):
    """A total truth assignment; values[i] is the bool of variable i+1."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[bool, ...]):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_key", values)

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
        return cls(tuple(not idx >> (n - 1 - i) & 1 for i in range(n)))

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


class CnfFormula(Frozen):
    """A CNF over variables 1..n, n >= 1, that :func:`parse_dimacs` read.
    Empty clauses (immediate contradictions) are counted on the side so
    :class:`Clause` can stay nonempty."""

    __slots__ = ("n", "clauses", "empty_clause_count")

    def __init__(
        self, n: int, clauses: tuple[Clause, ...], empty_clause_count: int = 0
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "empty_clause_count", empty_clause_count)
        object.__setattr__(self, "_key", (n, clauses, empty_clause_count))

    @property
    def m(self) -> int:
        return len(self.clauses) + self.empty_clause_count

    @property
    def has_empty_clause(self) -> bool:
        return self.empty_clause_count > 0


# The input formats are ASCII, and so is their whitespace: the ASCII
# characters str.split splits on, and the ASCII line breaks of
# str.splitlines.  Another script's space is part of a token.  The two
# patterns serve only a text that is not ASCII; re compiles them on use.
_SPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_TOKEN = f"[^{_SPACE}]+"
_LINE_BREAK = "\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e]"
# re.ASCII: \d would also match other scripts' digits, which int() reads
_HEADER = re.compile(rf"p[{_SPACE}]+cnf[{_SPACE}]+(\d+)[{_SPACE}]+(\d+)", re.ASCII)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text.

    Comments ('c' lines) and blank lines are skipped; a '%' line ends the
    input (common in benchmark archives).  Clauses may span lines and are
    terminated by 0; a bare 0 is an empty clause.  A number is ASCII
    digits with an optional sign: ``int`` would also read ``1_2`` and other
    scripts' digits, so those are bad tokens.  Whitespace and line breaks
    are ASCII only, so ``1\\xa02`` is one bad token.  Count mismatches
    against the header produce a :class:`ParseWarning`; structural
    problems raise :class:`DimacsError`.

    The lines after the header are joined and split once; only when that
    text holds a 'c' or a '%' are they walked to drop comments and stop at
    the trailer.  An ASCII text is read by ``str``'s own splitting and
    stripping, whose whitespace is ASCII there; any other text is split at
    ASCII line breaks and stripped of ASCII whitespace, and a body that
    still holds a non-ASCII character holds a bad token.  The tokens are
    converted with one ``map(int, ...)``, and only when they hold an error
    are the lines read again one token at a time, to name its line and
    token.  A clause with no repeated variable is made directly, without
    :class:`Clause`'s checks; a three-literal clause is tested for that
    with six int comparisons, not a set.
    """
    space = None if text.isascii() else _SPACE
    lines = text.splitlines() if space is None else re.split(_LINE_BREAK, text)
    header = None
    for ln, line in enumerate(lines, 1):
        s = line.strip(space)
        if not s or s.startswith("c"):
            continue
        if s.startswith("%"):
            break
        if not s.startswith("p"):
            raise DimacsError(f"line {ln}: expected 'p cnf' header, got {s!r}")
        m = _HEADER.fullmatch(s)
        if not m:
            raise DimacsError(f"line {ln}: malformed header {s!r}")
        try:
            header = (int(m.group(1)), int(m.group(2)))
        except ValueError as e:  # past the interpreter's limit on digits
            raise DimacsError(str(e)) from None
        if header[0] < 1:
            raise DimacsError("at least one variable is required")
        break
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    n, declared = header
    body = " ".join(lines[ln:])
    if "c" in body or "%" in body:
        kept = []
        for line in lines[ln:]:
            head = line.lstrip(space)[:1]
            if head == "c":
                continue
            if head == "%":
                break
            kept.append(line)
        body = " ".join(kept)
    if not plain_ascii(body):  # its tokens, split at ASCII spaces, hold a bad one
        raise _first_token_error(lines, ln, n)
    toks = body.split()
    try:
        lits = tuple(map(int, toks))
    except ValueError:
        raise _first_token_error(lines, ln, n) from None
    if "-0" in toks or max(lits, default=0) > n or min(lits, default=0) < -n:
        raise _first_token_error(lines, ln, n)
    clauses = []
    append = clauses.append
    make = tuple.__new__
    index = lits.index
    empties = start = 0
    for _ in range(lits.count(0)):
        end = index(0, start)
        if end - start == 3:  # the common width, unrolled
            a, b, c = clause = lits[start:end]
            if a != b and a != -b and a != c and a != -c and b != c and b != -c:
                append(make(Clause, clause))
            else:
                append(Clause(clause))
        elif end > start:
            clause = lits[start:end]
            if len(set(map(abs, clause))) == end - start:  # nothing for Clause to do
                append(make(Clause, clause))
            else:
                append(Clause(clause))
        else:
            empties += 1
        start = end + 1
    if start < len(lits):
        warnings.warn("unterminated final clause (missing trailing 0)", ParseWarning)
        append(Clause(lits[start:]))
    found = len(clauses) + empties
    if found != declared:
        warnings.warn(
            f"header declares {declared} clauses, found {found}", ParseWarning
        )
    return CnfFormula(n, tuple(clauses), empties)


def plain_ascii(text: str) -> bool:
    """Whether the text is ASCII without '_'.  The input formats take a
    number only in this form: ``int`` and ``float`` would also read ``_``
    separators and other scripts' digits.  One C-level scan, so a whole
    text is tested before any of its tokens is."""
    return text.isascii() and "_" not in text


def ascii_tokens(text: str) -> list[str]:
    """The text's tokens, split at ASCII whitespace only: ``str.split``
    for an ASCII text, a regular expression for any other."""
    return text.split() if text.isascii() else re.findall(_TOKEN, text)


def _first_token_error(lines: list[str], header_ln: int, n: int) -> DimacsError:
    """The error of the first bad token after the header line: '-0', a
    token that is no ASCII integer, or a variable past n."""
    for ln, line in enumerate(lines[header_ln:], header_ln + 1):
        s = line.strip(_SPACE)
        if s.startswith("c"):
            continue
        if s.startswith("%"):
            break
        for tok in ascii_tokens(s):
            if tok == "-0":
                return DimacsError(f"line {ln}: '-0' is not a literal")
            try:
                if not plain_ascii(tok):
                    raise ValueError
                lit = int(tok)
            except ValueError:
                return DimacsError(f"line {ln}: bad token {tok!r}")
            if abs(lit) > n:
                return DimacsError(
                    f"line {ln}: variable {abs(lit)} exceeds declared {n}"
                )
    raise RuntimeError("no bad token after the header; this is a defect")
