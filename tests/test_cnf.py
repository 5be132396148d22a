"""CNF data model and DIMACS round trips."""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.cnf import (
    Assignment,
    Clause,
    CnfFormula,
    DimacsError,
    ParseWarning,
    parse_dimacs,
    serialize_dimacs,
)

from dimacs_reference import reference_parse_dimacs


def test_literal_int_round_trip():
    # a literal is its signed int: v is variable v, -v its negation
    c = Clause.from_ints((3, -7))
    assert c == (3, -7) and type(c[0]) is int
    assert str(c) == "3 -7 0"
    assert parse_dimacs(f"p cnf 7 1\n{c}\n").clauses == (c,)
    for lits in [(0,), (2, 0), (0, -1)]:
        with pytest.raises(ValueError, match="0 is not a literal"):
            Clause.from_ints(lits)
        with pytest.raises(ValueError, match="0 is not a literal"):
            Clause(lits)


def test_clause_rejects_empty_and_duplicates():
    for make in (Clause, Clause.from_ints):
        with pytest.raises(ValueError, match="empty clause"):
            make(())
    with pytest.raises(ValueError, match="duplicate literals"):
        Clause((1, 1))
    with pytest.raises(ValueError, match="duplicate literals"):
        Clause((1, -2, 1))
    # the same variable with both signs is no duplicate
    assert Clause((1, -1)) == (1, -1)
    # from_ints dedups instead, keeping the first occurrence's order
    assert Clause.from_ints((1, 1, -2)) == (1, -2)
    assert Clause.from_ints([-2, 3, -2, 3, 1]) == (-2, 3, 1)
    assert type(Clause.from_ints((1, 1))) is Clause


def test_clause_tautology_flag():
    assert Clause.from_ints((1, -1)).is_tautological
    assert not Clause.from_ints((1, -2)).is_tautological


def test_clause_satisfaction():
    c = Clause.from_ints((1, -2))
    assert not c.falsified_by(Assignment((True, True)))
    assert not c.falsified_by(Assignment((False, False)))
    assert c.falsified_by(Assignment((False, True)))


def test_assignment_mask_and_int_conversions():
    a = Assignment.from_mask(0b101, 3)  # vars 1 and 3 true
    assert a.values == (True, False, True)
    assert a.to_ints() == (1, -2, 3)
    assert str(a) == "1 -2 3"


def test_primitive_index_orders_variable_one_most_significant():
    # true contributes a 0 bit, so all-true sits at slot 0
    idx = {
        (True, True): 0,
        (True, False): 1,
        (False, True): 2,
        (False, False): 3,
    }
    for values, expected in idx.items():
        a = Assignment(values)
        assert a.primitive_index() == expected
        assert Assignment.from_primitive_index(expected, 2) == a


def test_formula_validates_variable_range():
    with pytest.raises(ValueError):
        CnfFormula.from_ints(2, [(1, 3)])
    with pytest.raises(ValueError):
        CnfFormula(0, ())


def test_satisfies_respects_empty_clause():
    f = CnfFormula(2, (Clause.from_ints((1, 2)),), empty_clause_count=1)
    assert not Assignment((True, True)).satisfies(f)
    assert f.has_empty_clause and f.m == 2


def test_parse_basic_file():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.n == 3 and f.m == 2
    assert f.clauses[0] == (1, -2)
    assert f.source_meta["declared_clauses"] == 2


def test_parse_clause_spanning_lines_and_bare_zero():
    f = parse_dimacs("p cnf 2 2\n1\n-2 0\n0\n")
    assert f.clauses[0] == (1, -2)
    assert f.empty_clause_count == 1


def test_parse_percent_trailer_is_end_of_input():
    # benchmark archives end with a lone % and a stray 0
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert f.m == 1 and not f.has_empty_clause


def test_parse_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")  # no header
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf x 1\n1 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 0 0\n")
    with pytest.raises(DimacsError, match=r"^line 2: variable 3 exceeds declared 2$"):
        parse_dimacs("p cnf 2 1\n1 3 0\n")  # variable out of range
    with pytest.raises(DimacsError, match=r"^line 2: '-0' is not a literal$"):
        parse_dimacs("p cnf 2 1\n1 -0\n")
    with pytest.raises(DimacsError, match=r"^line 2: bad token 'two'$"):
        parse_dimacs("p cnf 2 1\n1 two 0\n")
    # the line is counted past comments and clauses that span lines, and
    # the first bad token in reading order names the error
    text = "c x\np cnf 2 3\n1\n\nc y\n-2 0 2 0 -1 -3 x 0\n"
    with pytest.raises(DimacsError, match=r"^line 6: variable 3 exceeds declared 2$"):
        parse_dimacs(text)
    with pytest.raises(DimacsError, match=r"^line 4: bad token '\+x'$"):
        parse_dimacs("p cnf 2 2\n1 0\n2 0\n+x -0 0\n")
    with pytest.raises(DimacsError, match=r"^line 3: '-0' is not a literal$"):
        parse_dimacs("p cnf 2 2\n1 0\n2 -0 two -5 0\n")


def test_parse_warnings():
    with pytest.warns(ParseWarning):
        parse_dimacs("p cnf 2 1\n1 2\n")  # missing trailing 0
    with pytest.warns(ParseWarning):
        parse_dimacs("p cnf 2 5\n1 2 0\n")  # count mismatch


def _reference_outcome(parse, text):
    """What a parser makes of a text: its result, or its error's class and
    message, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = parse(text)
        except Exception as e:  # compared across the two parsers
            got = (type(e).__name__, str(e))
        else:
            got = (got.n, tuple(map(tuple, got.clauses)), got.empty_clause_count,
                   got.source_meta)
    return got, [(w.category, str(w.message)) for w in caught]


def _random_dimacs(rng):
    """DIMACS-like text: comments, blank lines, clauses spanning lines,
    duplicate literals, tautologies, bare zeros and odd whitespace, with now
    and then a bad header, token or variable, or a '%' trailer."""
    n = rng.randint(1, 6)
    lines = [rng.choice(["c start", "", "  c indented", "\t"])
             for _ in range(rng.randint(0, 2))]
    header = f"p cnf {n} {rng.randint(0, 8)}"
    if rng.random() < 0.04:
        header = rng.choice(["p cnf x 1", "p cnf 0 0", "1 2 0", "p  cnf 2", ""])
    if rng.random() < 0.97:
        lines.append(header)
    words = []
    for _ in range(rng.randint(0, 24)):
        r = rng.random()
        if r < 0.7:
            words.append(str(rng.choice([-1, 1]) * rng.randint(1, n)))
        elif r < 0.88:
            words.append("0")
        elif r < 0.95:
            words.append("\n" + rng.choice(["", "c note", "  ", "c 1 2 0"]) + "\n")
        else:
            words.append(rng.choice(["-0", "two", str(n + 1), str(-n - 1),
                                     "+1", "00", "p"]))
    lines.append(rng.choice([" ", "  ", "\t"]).join(words))
    if rng.random() < 0.15:
        lines += ["%", rng.choice(["0", "1 x 0", "garbage"])]
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def test_parse_matches_frozen_reference_on_seeded_texts():
    rng = random.Random(1403)
    for _ in range(4000):
        text = _random_dimacs(rng)
        assert _reference_outcome(parse_dimacs, text) == _reference_outcome(
            reference_parse_dimacs, text
        ), text


def test_satisfies_matches_clause_by_clause_evaluation():
    rng = random.Random(1404)
    for trial in range(400):
        n = rng.randint(1, 7)
        raw = [
            [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 3 * n))
        ]
        f = CnfFormula(
            n, tuple(Clause.from_ints(c) for c in raw), int(trial % 7 == 0)
        )
        for c, lits in zip(f.clauses, raw):
            # from_ints keeps the first of each literal, in order
            assert c == tuple(dict.fromkeys(lits))
            assert c.is_tautological == any(-lit in lits for lit in lits)
        for mask in range(1 << n):
            a = Assignment.from_mask(mask, n)
            holds = [any((lit > 0) == a.values[abs(lit) - 1] for lit in c) for c in raw]
            assert a.satisfies(f) == (not f.has_empty_clause and all(holds))
            assert [not c.falsified_by(a) for c in f.clauses] == holds


def test_serialize_round_trip_fixed():
    f = CnfFormula.from_ints(3, [(1, -2), (2, 3)])
    assert parse_dimacs(serialize_dimacs(f)) == f


@st.composite
def formulas(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=8))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(min_value=1, max_value=n))
        vs = draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(tuple(v if s else -v for v, s in zip(vs, signs)))
    empties = draw(st.integers(min_value=0, max_value=2))
    return CnfFormula(
        n,
        tuple(Clause.from_ints(c) for c in clauses),
        empty_clause_count=empties,
    )


def independent_pairs(k):
    """k disjoint copies of (a b)(-a -b): satisfiable, and one branching
    decision per pair for a search that splits on one variable at a time."""
    clauses = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        clauses += [(a, b), (-a, -b)]
    return CnfFormula.from_ints(2 * k, clauses)


def implication_chain(n):
    """x1, x1 -> x2 -> ... -> xn, and not xn: unsatisfiable through n unit
    propagations in a row."""
    clauses = [(1,)] + [(-i, i + 1) for i in range(1, n)] + [(-n,)]
    return CnfFormula.from_ints(n, clauses)


def two_wide_clauses(n):
    """(x1 v ... v xn)(-x1 v ... v -xn): satisfiable, a 3-term product, and
    one cofactor split per variable for the algebraic zero test."""
    return CnfFormula.from_ints(
        n, [tuple(range(1, n + 1)), tuple(-v for v in range(1, n + 1))]
    )


def pigeonhole(holes):
    """PHP(holes + 1, holes): unsatisfiable, and hard for resolution."""
    pigeons = holes + 1
    clauses = [
        tuple(i * holes + j + 1 for j in range(holes)) for i in range(pigeons)
    ]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append((-(a * holes + j + 1), -(b * holes + j + 1)))
    return CnfFormula.from_ints(pigeons * holes, clauses)


@given(formulas())
@settings(max_examples=200)
def test_serialize_parse_round_trip(f):
    assert parse_dimacs(serialize_dimacs(f)) == f
