"""Formula encoding: the clause product, its verdicts, and model reads.

Reference values come from truth tables (the brute-force oracle lives in
wittsat.oracle and is tested independently against DPLL).
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.algebra import (
    D_ID,
    D_PQ,
    D_QP,
    DiagonalElement,
    eval_at,
    identity_count,
    identity_element,
    zero_test_splits,
)
from wittsat.cnf import Assignment, Clause, CnfFormula, TautologyError
from wittsat.encoding import (
    DroppedClauseWarning,
    TermBudgetError,
    count_models,
    encode_clause,
    encode_formula,
    encode_table,
    is_unsatisfiable,
    models,
    table_cells,
)
from wittsat.oracle import brute_force
from wittsat.selftest import _random_clause, _random_formula

from test_algebra import _point_values
from test_cnf import formulas, pigeonhole, two_wide_clauses


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
        assert eval_at(e, a) == int(c.falsified_by(a))


def test_single_model_formula_collapses_to_its_point():
    f = CnfFormula.from_ints(2, [(1, 2), (-1, 2), (1, -2)])
    e = encode_formula(f)  # the table: one full pattern per model
    assert e.to_text().splitlines() == ["1 * qp qp"]
    assert models(e) == {Assignment((True, True))}
    assert count_models(e) == 1


def test_full_clause_universe_encodes_to_zero():
    # all four width-2 clauses over two variables leave nothing standing
    f = CnfFormula.from_ints(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    e = encode_formula(f)
    assert e.is_zero()
    assert is_unsatisfiable(f)
    assert count_models(e) == 0 and models(e) == set()


def test_empty_formula_is_the_identity():
    f = CnfFormula.from_ints(3, [])
    assert count_models(encode_formula(f)) == 8
    assert not is_unsatisfiable(f)


def test_empty_clause_encodes_to_zero():
    f = CnfFormula(2, (Clause.from_ints((1, 2)),), empty_clause_count=1)
    assert encode_formula(f).is_zero()
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


def test_explicit_budget_caps_the_table_cells():
    rng = np.random.default_rng(0)
    f = CnfFormula.from_ints(13, [_random_clause(rng, 13, 3) for _ in range(55)])
    e = encode_formula(f, term_budget=1 << 13)
    assert e == encode_formula(f)
    # one cell fewer refuses the table, and the sparse product outgrows it
    with pytest.raises(TermBudgetError):
        encode_formula(f, term_budget=(1 << 13) - 1)


@pytest.mark.parametrize("seed", [0, 4])  # 7 models, unsatisfiable
def test_threshold_3sat_at_n15_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    f = CnfFormula.from_ints(15, [_random_clause(rng, 15, 3) for _ in range(64)])
    expected = set(brute_force(f).models)
    e = encode_formula(f)  # the table: one full pattern per model
    assert e.term_count == len(expected)
    assert all(identity_count(p, f.n) == 0 for p in e.terms)
    assert is_unsatisfiable(f) == (not expected)
    assert count_models(e) == len(expected) and models(e) == expected


def test_switched_product_is_zeroed_by_later_clauses():
    # the table holds the product; the unit clauses zero all its cells
    prefix = [(1, 2), (3, 4), (5, 6)]
    assert encode_formula(CnfFormula.from_ints(6, prefix)).term_count == 27
    f = CnfFormula.from_ints(6, prefix + [(-1,), (-2,)])
    e = encode_formula(f)
    assert brute_force(f).models == () and e.term_count == 0
    assert is_unsatisfiable(f) and count_models(e) == 0 and models(e) == set()


def test_tautology_is_dropped_from_both_product_forms():
    # the table holds 2^6 cells by default; a budget one cell short keeps
    # the product sparse
    pairs = [(1, 2), (3, 4), (5, 6)]
    tautology = CnfFormula.from_ints(6, [(1, -1)] + pairs)
    with pytest.warns(DroppedClauseWarning):
        table = encode_formula(tautology)
    with pytest.warns(DroppedClauseWarning):
        sparse = encode_formula(tautology, term_budget=(1 << 6) - 1)
    assert table.term_count == 27 and sparse.term_count < 27
    assert table == sparse == encode_formula(CnfFormula.from_ints(6, pairs))


def _table_set(f):
    """The encoded table's set cells as a boolean vector over primitive
    indices, after checking the packed layout: one uint64 word per setting
    of the leading n - 6 variables, and a bit count equal to the cells."""
    n = f.n
    table = encode_table(f)
    assert table.dtype == np.uint64 and table.shape == (2,) * max(n - 6, 0)
    cells = table_cells(table, n)
    assert int(np.bitwise_count(table).sum()) == len(cells)
    assert bool(table.any()) == bool(len(cells))
    out = np.zeros(1 << n, dtype=bool)
    out[cells] = True
    return out


def _assert_table_matches_satisfies(f):
    got = _table_set(f)
    for mask in range(1 << f.n):
        a = Assignment.from_mask(mask, f.n)
        assert got[a.primitive_index()] == a.satisfies(f), a


# n < 6 fills part of one word, n = 6 exactly one, n = 7 two words
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("seed", range(4))
def test_packed_table_matches_satisfies(n, seed):
    rng = np.random.default_rng(100 * n + seed)
    _assert_table_matches_satisfies(_random_formula(rng, n, 2 * n))


# at n = 8 variables 1-2 are word axes and 3-8 lanes; n = 7 has one axis
@pytest.mark.parametrize(
    "n, clauses",
    [
        (8, [(3, -4), (-5, 8, 6), (7,)]),  # lane variables only
        (8, [(1, -2), (2,)]),  # word axes only; (1, -2) fixes both: a 0-d view
        (7, [(-1,), (2, 7)]),  # (-1) fixes the only word axis: a 0-d view
        (8, [(-1, 5), (2, -3, 8), (-2, 4), (1, 2, -6, 7)]),  # mixed
    ],
    ids=["lanes", "word-axes", "only-word-axis", "mixed"],
)
def test_packed_table_clause_placement(n, clauses):
    _assert_table_matches_satisfies(CnfFormula.from_ints(n, clauses))


def test_packed_table_empty_clause_clears_every_cell():
    for n in (3, 6, 8):
        f = CnfFormula(n, (Clause.from_ints((1, 2)),), empty_clause_count=1)
        assert not _table_set(f).any()


def test_packed_table_drops_a_tautology_with_warning():
    f = CnfFormula.from_ints(8, [(2, -2, 7), (1, -7), (3, 8)])
    with pytest.warns(DroppedClauseWarning):
        _assert_table_matches_satisfies(f)  # a tautology holds everywhere


def test_packed_table_at_n20_matches_satisfies():
    n = 20
    rng = np.random.default_rng(20001)
    f = CnfFormula.from_ints(n, [_random_clause(rng, n, 3) for _ in range(80)])
    got = _table_set(f)
    # every cell against a clause-by-clause evaluation of its index ...
    index = np.arange(1 << n)
    want = np.ones(1 << n, dtype=bool)
    for clause in f.clauses:
        holds = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            false = ((index >> (n - abs(lit))) & 1).astype(bool)
            holds |= ~false if lit > 0 else false
        want &= holds
    assert np.array_equal(got, want)
    # ... and every model plus as many other cells against satisfies
    models_ = np.flatnonzero(got)
    assert 0 < len(models_) < 1000
    others = rng.choice(np.flatnonzero(~got), size=len(models_), replace=False)
    for i in np.concatenate([models_, others]).tolist():
        a = Assignment.from_primitive_index(i, n)
        assert a.satisfies(f) == got[i]


@pytest.mark.parametrize("seed", range(6))
def test_unit_clauses_fold_into_the_sparse_product(seed):
    # a unit clause multiplies in as one pattern: the sparse product
    # (forced by a budget one cell short of the table) equals the product
    # built factor by factor and lists the same models
    rng = np.random.default_rng(seed)
    n = 8
    clauses = [_random_clause(rng, n, 3) for _ in range(10)]
    clauses += [_random_clause(rng, n, 1) for _ in range(3)]
    rng.shuffle(clauses)
    f = CnfFormula.from_ints(n, clauses)
    sparse = encode_formula(f, term_budget=(1 << n) - 1)
    assert sparse == _clause_product(f)
    assert models(sparse) == set(brute_force(f).models)


def test_unit_clauses_alone_are_one_pattern():
    f = CnfFormula.from_ints(5, [(1,), (-3,), (5,)])
    sparse = encode_formula(f, term_budget=(1 << 5) - 1)
    assert sparse.to_text().splitlines() == ["1 * qp 1 pq 1 qp"]


def test_zero_test_depth_does_not_grow_with_n():
    # 3000 splits in a row, far past the default recursion limit
    assert sys.getrecursionlimit() < 3000
    e = encode_formula(two_wide_clauses(3000))
    assert e.term_count == 3
    assert zero_test_splits(e) == (False, 3000)


def _clause_product(f):
    """The formula's product built factor by factor with ``*``, apart from
    the encoder, so the corpus pins the zero test alone."""
    product = identity_element(f.n)
    for clause in f.clauses:
        product = product * (identity_element(f.n) - encode_clause(clause, f.n))
    return product


def _split_corpus():
    """Seeded formulas and elements, each with its truth-table verdict."""
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, ratio = 12 + seed % 5, (1.0, 1.25, 1.5)[seed % 3]
        f = CnfFormula.from_ints(
            n, [_random_clause(rng, n, 3) for _ in range(round(ratio * n))]
        )
        cases.append((_clause_product(f), brute_force(f).verdict == "UNSAT"))
    php = pigeonhole(3)
    cases.append((_clause_product(php), brute_force(php).verdict == "UNSAT"))
    rnd = random.Random(6)
    for k in range(50):
        n = rnd.randint(1, 6)
        terms = {}
        for _ in range(rnd.randint(2, 10)):
            pat = sum(rnd.choice((D_QP, D_PQ, D_ID)) << (2 * i) for i in range(n))
            terms[pat] = rnd.choice((-3, -2, -1, 1, 2, 3))
        a = DiagonalElement(n, terms)
        if k % 3 == 0:
            a = a - DiagonalElement(n, _point_values(a))  # zero, sparse form
        zero = all(
            eval_at(a, Assignment.from_mask(m, n)) == 0 for m in range(1 << n)
        )
        cases.append((a, zero))
    return cases


# (verdict, splits) per corpus entry, as the zero test's split rule gives
# them: fewest identity fields, lowest position on ties, q_ip_i side first.
PINNED_SPLITS = [
    (False, 8), (False, 12), (False, 13), (False, 15), (False, 12), (False, 12),
    (False, 10), (False, 12), (False, 31), (False, 9), (False, 11), (False, 15),
    (False, 9), (False, 9), (False, 16), (False, 9), (False, 9), (False, 10),
    (False, 13), (False, 11), (True, 51), (True, 7), (False, 2), (False, 0),
    (True, 3), (False, 2), (False, 1), (True, 1), (False, 0), (False, 3),
    (True, 9), (False, 2), (False, 1), (True, 14), (False, 0), (False, 1),
    (True, 13), (False, 1), (False, 1), (True, 43), (False, 2), (False, 3),
    (True, 2), (False, 5), (False, 6), (True, 37), (False, 2), (False, 0),
    (True, 11), (False, 1), (False, 3), (True, 13), (False, 0), (False, 3),
    (True, 14), (False, 1), (False, 2), (True, 3), (False, 2), (False, 3),
    (True, 3), (False, 3), (False, 4), (True, 2), (False, 0), (False, 3),
    (True, 15), (False, 0), (False, 0), (True, 3), (False, 1),
]


def test_zero_test_split_counts_are_pinned():
    cases = _split_corpus()
    assert [zero for _, zero in cases].count(True) >= 10
    got = [zero_test_splits(e) for e, _ in cases]
    assert [zero for zero, _ in got] == [zero for _, zero in cases]
    assert got == PINNED_SPLITS


@given(formulas())
@settings(max_examples=150)
def test_eval_at_matches_clause_semantics(f):
    e = encode_formula(f)
    for mask in range(1 << f.n):
        a = Assignment.from_mask(mask, f.n)
        assert eval_at(e, a) == int(a.satisfies(f))


@given(formulas())
@settings(max_examples=150)
def test_models_and_count_match_brute_force(f):
    expected = set(brute_force(f).models)
    e = encode_formula(f)
    assert models(e) == expected
    assert count_models(e) == len(expected)


@given(formulas(), st.randoms())
@settings(max_examples=100)
def test_encoding_is_invariant_under_clause_order(f, rnd):
    shuffled = list(f.clauses)
    rnd.shuffle(shuffled)
    g = CnfFormula(f.n, tuple(shuffled), f.empty_clause_count)
    assert encode_formula(f) == encode_formula(g)
