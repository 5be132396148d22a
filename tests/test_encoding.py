"""Formula encoding: the clause product, its verdicts, and model reads.

Reference values come from truth tables (the brute-force oracle lives in
wittsat.oracle and is tested independently against DPLL).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.algebra import expand_primitive, identity_count, is_zero_element
from wittsat.cnf import Assignment, Clause, CnfFormula, TautologyError
from wittsat.encoding import (
    DroppedClauseWarning,
    TermBudgetError,
    count_models,
    encode_clause,
    encode_formula,
    is_unsatisfiable,
    models,
    ordered_clauses,
    substitute,
)
from wittsat.oracle import brute_force
from wittsat.selftest import _random_clause

from test_cnf import formulas


def test_encode_clause_marks_falsifying_fields():
    e = encode_clause(Clause.from_ints((1, -2)), 2)
    # the falsifier: a positive literal fails on pq, a negated one on qp
    assert e.to_text().splitlines() == ["1 * pq qp"]


def test_encode_clause_rejects_tautologies():
    with pytest.raises(TautologyError):
        encode_clause(Clause.from_ints((1, -1)), 2)


def test_encode_clause_is_the_falsification_indicator():
    c = Clause.from_ints((1, -3))
    e = encode_clause(c, 3)
    for mask in range(8):
        a = Assignment.from_mask(mask, 3)
        assert substitute(a, e) == int(c.falsified_by(a))


def test_single_model_formula_collapses_to_its_point():
    f = CnfFormula.from_ints(2, [(1, 2), (-1, 2), (1, -2)])
    e = expand_primitive(encode_formula(f))
    assert e.to_text().splitlines() == ["1 * qp qp"]
    assert models(f) == {Assignment((True, True))}
    assert count_models(f) == 1


def test_full_clause_universe_encodes_to_zero():
    # all four width-2 clauses over two variables leave nothing standing
    f = CnfFormula.from_ints(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    assert is_zero_element(encode_formula(f))
    assert is_unsatisfiable(f)
    assert count_models(f) == 0 and models(f) == set()


def test_empty_formula_is_the_identity():
    f = CnfFormula.from_ints(3, [])
    assert count_models(f) == 8
    assert not is_unsatisfiable(f)


def test_empty_clause_encodes_to_zero():
    f = CnfFormula(2, (Clause.from_ints((1, 2)),), empty_clause_count=1)
    assert is_zero_element(encode_formula(f))
    assert is_unsatisfiable(f)


def test_tautological_clause_is_dropped_with_warning():
    f = CnfFormula.from_ints(2, [(1, -1), (1, 2)])
    with pytest.warns(DroppedClauseWarning):
        e = encode_formula(f)
    assert e == encode_formula(CnfFormula.from_ints(2, [(1, 2)]))


def test_term_budget_is_enforced():
    f = CnfFormula.from_ints(
        6, [(1, 2, 3), (4, 5, 6), (1, 4, 5), (2, 3, 6), (1, 2, 6)]
    )
    with pytest.raises(TermBudgetError):
        encode_formula(f, term_budget=4)


def test_ordered_clauses_activity_sorts_by_variable_frequency():
    f = CnfFormula.from_ints(3, [(3,), (1, 2), (1,), (1, 3)])
    by_activity = ordered_clauses(f, "activity")
    # var 1 appears three times and var 3 twice, so (1, 3) scores highest
    assert by_activity[0].to_ints() == (1, 3)
    assert by_activity[-1].to_ints() == (3,)
    with pytest.raises(ValueError):
        ordered_clauses(f, "nope")


@pytest.mark.parametrize("seed", [0, 4])  # 7 models, unsatisfiable
def test_threshold_3sat_at_n15_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    f = CnfFormula.from_ints(15, [_random_clause(rng, 15, 3) for _ in range(64)])
    expected = set(brute_force(f).models)
    e = encode_formula(f)  # past the switch: one full pattern per model
    assert e.term_count == len(expected)
    assert all(identity_count(p, f.n) == 0 for p in e.terms)
    assert is_unsatisfiable(f) == (not expected)
    assert count_models(f) == len(expected) and models(f) == expected


def test_switched_product_is_zeroed_by_later_clauses():
    # three clauses leave 8 patterns, past 2^6 / 16, so the table takes over
    prefix = [(1, 2), (3, 4), (5, 6)]
    assert encode_formula(CnfFormula.from_ints(6, prefix)).term_count == 27
    f = CnfFormula.from_ints(6, prefix + [(-1,), (-2,)])
    assert brute_force(f).models == () and encode_formula(f).term_count == 0
    assert is_unsatisfiable(f) and count_models(f) == 0 and models(f) == set()


@given(formulas())
@settings(max_examples=150)
def test_substitute_matches_clause_semantics(f):
    e = encode_formula(f)
    for mask in range(1 << f.n):
        a = Assignment.from_mask(mask, f.n)
        assert substitute(a, e) == int(a.satisfies(f))


@given(formulas())
@settings(max_examples=150)
def test_models_and_count_match_brute_force(f):
    expected = set(brute_force(f).models)
    assert models(f) == expected
    assert count_models(f) == len(expected)


@given(formulas(), st.randoms())
@settings(max_examples=100)
def test_encoding_is_invariant_under_clause_order(f, rnd):
    shuffled = list(f.clauses)
    rnd.shuffle(shuffled)
    g = CnfFormula(f.n, tuple(shuffled), f.empty_clause_count)
    assert encode_formula(f) == encode_formula(g)
    assert encode_formula(f, order="activity") == encode_formula(g)
