"""CNF data model and DIMACS round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.cnf import (
    Assignment,
    Clause,
    CnfFormula,
    DimacsError,
    Literal,
    ParseWarning,
    parse_dimacs,
    serialize_dimacs,
)


def test_literal_int_round_trip():
    assert Literal.from_int(3) == Literal(3, False)
    assert Literal.from_int(-7) == Literal(7, True)
    assert Literal.from_int(-7).to_int() == -7
    with pytest.raises(ValueError):
        Literal.from_int(0)


def test_clause_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Clause(())
    with pytest.raises(ValueError):
        Clause((Literal(1, False), Literal(1, False)))
    # from_ints dedups instead
    assert Clause.from_ints((1, 1, -2)).to_ints() == (1, -2)


def test_clause_tautology_flag():
    assert Clause.from_ints((1, -1)).is_tautological
    assert not Clause.from_ints((1, -2)).is_tautological


def test_clause_satisfaction():
    c = Clause.from_ints((1, -2))
    assert c.satisfied_by(Assignment((True, True)))
    assert c.satisfied_by(Assignment((False, False)))
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
    assert f.clauses[0].to_ints() == (1, -2)
    assert f.source_meta["declared_clauses"] == 2


def test_parse_clause_spanning_lines_and_bare_zero():
    f = parse_dimacs("p cnf 2 2\n1\n-2 0\n0\n")
    assert f.clauses[0].to_ints() == (1, -2)
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
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")  # variable out of range
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 -0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 two 0\n")


def test_parse_warnings():
    with pytest.warns(ParseWarning):
        parse_dimacs("p cnf 2 1\n1 2\n")  # missing trailing 0
    with pytest.warns(ParseWarning):
        parse_dimacs("p cnf 2 5\n1 2 0\n")  # count mismatch


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
