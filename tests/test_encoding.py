"""Formula encoding: the clause product, its verdicts, and model reads.

Reference values come from truth tables (the brute-force oracle lives in
tests/oracle_reference.py and is tested independently against DPLL).  Tests
that read the product's value table go through slab_walk, whose slabs are
compared with the frozen numpy kernel of tests/table_reference.py;
encode_formula is the sparse product.
"""

import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.algebra import D_ID, D_PQ, D_QP, pattern_bits, zero_test_splits
from wittsat.cnf import Assignment, Clause, CnfFormula
from wittsat.encoding import (
    _literal_masks,
    DroppedClauseWarning,
    TermBudgetError,
    algebra_models,
    algebra_verdict,
    count_models,
    encode_formula,
    models,
    slab_walk,
)

from algebra_reference import CheckedElement, eval_at, identity_element
from formula_helpers import formula_from_ints, random_clause, random_formula
from oracle_reference import brute_force
from plane_reference import encode_clause, falsified_by
from table_reference import reference_table
from test_algebra import _point_values
from test_cnf import formulas, pigeonhole, two_wide_clauses


def test_encode_clause_marks_falsifying_fields():
    e = encode_clause(Clause((1, -2)), 2)
    # the falsifier: a positive literal fails on pq, a negated one on qp
    assert e.terms == {pattern_bits(2, {1: D_PQ, 2: D_QP}): 1}


def test_encode_clause_rejects_tautologies():
    with pytest.raises(ValueError, match="tautological"):
        encode_clause(Clause((1, -1)), 2)


def test_encode_clause_is_the_falsification_indicator():
    c = Clause((1, -3))
    e = encode_clause(c, 3)
    for mask in range(8):
        a = Assignment.from_mask(mask, 3)
        assert eval_at(e, a) == int(falsified_by(c, a))


def _layout(n):
    """(row bits, leading variables) of an n-variable table: a slab holds
    2^w cells, w = min(n, 14), and the L = n - w leading variables pick
    it."""
    w = min(n, 14)
    return w, n - w


def _walk_bits(f):
    """The set cells the slab walk yields, as a boolean vector over
    primitive indices, after checking the walk: slab indices ascending and
    below 2^L, and every slab nonzero and within its 2^w bits."""
    w, lead = _layout(f.n)
    bits = np.zeros(1 << f.n, dtype=bool)
    last = -1
    for index, slab in slab_walk(f):
        assert last < index < 1 << lead
        assert 0 < slab < 1 << (1 << w)
        last = index
        raw = np.frombuffer(slab.to_bytes(((1 << w) + 7) // 8, "little"), np.uint8)
        cells = np.unpackbits(raw, bitorder="little")[: 1 << w]
        bits[index << w : (index + 1) << w] = cells
    return bits


def _walk_cells(f):
    """The primitive indices of the walk's set cells, in ascending order."""
    return np.flatnonzero(_walk_bits(f)).tolist()


def _table_unsat(f):
    return next(slab_walk(f), None) is None


def test_single_model_formula_collapses_to_its_point():
    f = formula_from_ints(2, [(1, 2), (-1, 2), (1, -2)])
    # the table's one set cell is the model's primitive index, 0
    assert _walk_cells(f) == [0]
    e = encode_formula(f)
    assert models(e) == {Assignment((True, True))}
    assert count_models(e) == 1


def test_full_clause_universe_encodes_to_zero():
    # all four width-2 clauses over two variables leave nothing standing
    f = formula_from_ints(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    e = encode_formula(f)
    assert CheckedElement.of(e).is_zero()
    assert _table_unsat(f)
    assert count_models(e) == 0 and models(e) == set()


def test_empty_formula_is_the_identity():
    f = formula_from_ints(3, [])
    assert count_models(encode_formula(f)) == 8
    assert not _table_unsat(f)


def test_empty_clause_encodes_to_zero():
    f = CnfFormula(2, (Clause((1, 2)),), empty_clause_count=1)
    assert CheckedElement.of(encode_formula(f)).is_zero()
    assert _table_unsat(f)


def test_tautological_clause_is_dropped_with_warning():
    f = formula_from_ints(2, [(1, -1), (1, 2)])
    with pytest.warns(DroppedClauseWarning):
        e = encode_formula(f)
    assert CheckedElement.of(e) == encode_formula(formula_from_ints(2, [(1, 2)]))


def test_term_budget_is_enforced():
    f = formula_from_ints(
        6, [(1, 2, 3), (4, 5, 6), (1, 4, 5), (2, 3, 6), (1, 2, 6)]
    )
    with pytest.raises(TermBudgetError):
        encode_formula(f, term_budget=4)


def test_explicit_budget_caps_the_table_cells():
    rng = np.random.default_rng(0)
    f = formula_from_ints(13, [random_clause(rng, 13, 3) for _ in range(55)])
    # 2^13 cells fit: the table answers, as under the default budget
    verdict = algebra_verdict(f, 1 << 13)
    assert verdict == algebra_verdict(f)
    assert verdict[2]["slabs"] == 1 and verdict[2]["splits"] == 0
    assert algebra_models(f, 1 << 13, 1 << 13) == algebra_models(f, None, 1 << 13)
    # one cell fewer refuses the table, and the sparse product outgrows it
    for call in (
        lambda: algebra_verdict(f, (1 << 13) - 1),
        lambda: algebra_models(f, (1 << 13) - 1, 0),
        lambda: encode_formula(f, term_budget=(1 << 13) - 1),
    ):
        with pytest.raises(TermBudgetError):
            call()


@pytest.mark.parametrize("seed", [0, 4])  # 7 models, unsatisfiable
def test_threshold_3sat_at_n15_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    f = formula_from_ints(15, [random_clause(rng, 15, 3) for _ in range(64)])
    expected = set(brute_force(f).models)
    cells = _walk_cells(f)
    assert {Assignment.from_primitive_index(i, f.n) for i in cells} == expected
    assert algebra_models(f, None, 0) == (len(expected), None)
    assert _table_unsat(f) == (not expected)


def test_switched_product_is_zeroed_by_later_clauses():
    # the table holds the product; the unit clauses zero all its cells
    prefix = [(1, 2), (3, 4), (5, 6)]
    assert len(_walk_cells(formula_from_ints(6, prefix))) == 27
    f = formula_from_ints(6, prefix + [(-1,), (-2,)])
    e = encode_formula(f)
    assert brute_force(f).models == () and _table_unsat(f)
    assert count_models(e) == 0 and models(e) == set()


def test_tautology_is_dropped_from_both_product_forms():
    pairs = formula_from_ints(6, [(1, 2), (3, 4), (5, 6)])
    tautology = formula_from_ints(6, [(1, -1)] + list(pairs.clauses))
    with pytest.warns(DroppedClauseWarning):
        cells = _walk_cells(tautology)
    with pytest.warns(DroppedClauseWarning):
        sparse = encode_formula(tautology)
    assert len(cells) == 27 and sparse.term_count < 27
    assert {Assignment.from_primitive_index(i, 6) for i in cells} == models(sparse)
    assert cells == _walk_cells(pairs)
    assert CheckedElement.of(sparse) == encode_formula(pairs)


def _table_set(f):
    """The walk's set cells (:func:`_walk_bits`), after checking that the
    model count sums as many."""
    got = _walk_bits(f)
    assert algebra_models(f, None, 0) == (int(got.sum()), None)
    return got


def _truth_set(f):
    """The formula's value at every primitive index, clause by clause."""
    n = f.n
    index = np.arange(1 << n)
    want = np.full(1 << n, not f.has_empty_clause)
    for clause in f.clauses:
        holds = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            false = (index >> (n - abs(lit))) & 1 == 1
            holds |= ~false if lit > 0 else false
        want &= holds
    return want


def _assert_table_matches_satisfies(f):
    got = _table_set(f)
    for mask in range(1 << f.n):
        a = Assignment.from_mask(mask, f.n)
        assert got[a.primitive_index()] == a.satisfies(f), a


# n < 3 fills part of one byte, n = 3 exactly one, n = 8 one slab of 256
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("seed", range(4))
def test_packed_table_matches_satisfies(n, seed):
    rng = np.random.default_rng(100 * n + seed)
    _assert_table_matches_satisfies(random_formula(rng, n, 2 * n))


# at n = 8 a cell's index reads variables 3-8 in its low six bits (the
# lanes) and variables 1-2 in its top two (the word axes)
@pytest.mark.parametrize(
    "n, clauses",
    [
        (8, [(3, -4), (-5, 8, 6), (7,)]),  # lane variables only
        (8, [(1, -2), (2,)]),  # word axes only; (1, -2) fixes both
        (7, [(-1,), (2, 7)]),  # (-1) fixes the top bit
        (8, [(-1, 5), (2, -3, 8), (-2, 4), (1, 2, -6, 7)]),  # mixed
    ],
    ids=["lanes", "word-axes", "only-word-axis", "mixed"],
)
def test_packed_table_clause_placement(n, clauses):
    _assert_table_matches_satisfies(formula_from_ints(n, clauses))


# past n = 14 the first n - 14 variables are leading: they pick the slab
@pytest.mark.parametrize(
    "n, clauses",
    [
        (16, [(1, -2), (-1,)]),  # leading variables only
        (17, [(1, -2, 3), (-1, 2, -3, 4), (2, 3)]),  # keys fixing every one
        (16, [(1,), (2, 9), (-2, -10)]),  # a unit drops half the slabs
        (17, [(-1, 5), (2, -3, 17), (-2, 4), (1, 2, -6, 16)]),  # mixed
        (15, [(1, 15), (-1, 15), (2, -15), (-2, -15)]),  # no slab left
    ],
    ids=["leading-only", "every-leading", "dead-half", "mixed", "unsat"],
)
def test_leading_clause_placement(n, clauses):
    f = formula_from_ints(n, clauses)
    assert np.array_equal(_table_set(f), _truth_set(f))


def test_packed_table_empty_clause_clears_every_cell():
    for n in (3, 6, 8, 16):
        f = CnfFormula(n, (Clause((1, 2)),), empty_clause_count=1)
        assert not _table_set(f).any()
        # every slab counts as read
        unsat, model, counters = algebra_verdict(f)
        assert unsat and model is None
        assert counters == {"patterns": 0, "slabs": 1 << _layout(n)[1], "splits": 0}


def test_packed_table_drops_a_tautology_with_warning():
    f = formula_from_ints(8, [(2, -2, 7), (1, -7), (3, 8)])
    with pytest.warns(DroppedClauseWarning):
        _assert_table_matches_satisfies(f)  # a tautology holds everywhere


def test_packed_table_at_n20_matches_satisfies():
    n = 20
    rng = np.random.default_rng(20001)
    f = formula_from_ints(n, [random_clause(rng, n, 3) for _ in range(80)])
    got = _table_set(f)
    # every cell against a clause-by-clause evaluation of its index ...
    assert np.array_equal(got, _truth_set(f))
    # ... and every model plus as many other cells against satisfies
    models_ = np.flatnonzero(got)
    assert 0 < len(models_) < 1000
    others = rng.choice(np.flatnonzero(~got), size=len(models_), replace=False)
    for i in np.concatenate([models_, others]).tolist():
        a = Assignment.from_primitive_index(i, n)
        assert a.satisfies(f) == got[i]


def _reference_bits(f):
    """The frozen kernel's table as a boolean vector over primitive
    indices."""
    words = reference_table(f).astype("<u8").reshape(-1).view(np.uint8)
    return np.unpackbits(words, bitorder="little")[: 1 << f.n].astype(bool)


def _assert_table_matches_reference(f):
    """The walk's cells equal the frozen per-clause kernel's bit for bit,
    and both warn about the same dropped tautologies."""
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = _reference_bits(f)
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = _walk_bits(f)
    assert [str(w.message) for w in got_warned] == [
        str(w.message) for w in want_warned
    ]
    assert np.array_equal(got, want)


def _signed(rng, variables):
    return tuple(v if rng.integers(2) else -v for v in variables)


# widths 1 to n, unit clauses, repeated clauses, a repeated literal (which
# Clause drops), tautologies and the empty clause, at every n up to the
# cell budget: L = 0 leading variables up to n = 14, then up to 8
@pytest.mark.parametrize("n", range(1, 23))
@pytest.mark.parametrize("seed", range(2))
def test_table_equals_the_reference_at_every_n(n, seed):
    rng = np.random.default_rng(17000 + 100 * seed + n)
    for m in (0, n, 3 * n, 5 * n):
        clauses = [
            random_clause(rng, n, int(rng.integers(1, n + 1))) for _ in range(m)
        ]
        clauses.append(random_clause(rng, n, n))
        clauses.append(random_clause(rng, n, 1))
        clauses.append(clauses[0])
        clauses.append(clauses[-2] + clauses[-2][:1])
        if n > 1:
            v = int(rng.integers(1, n + 1))
            clauses.append((v, -v, *random_clause(rng, n, 1)))
        f = formula_from_ints(n, clauses)
        _assert_table_matches_reference(f)
    _assert_table_matches_reference(CnfFormula(n, f.clauses, empty_clause_count=1))


# clauses confined to one part of the layout: the leading variables (one
# clause fixing all of them) or the row variables, and mixed; n = 14 is the
# last n with no leading variable
@pytest.mark.parametrize("n", [7, 13, 14, 15, 16, 20, 22])
@pytest.mark.parametrize("seed", range(3))
def test_table_equals_the_reference_per_layout_part(n, seed):
    rng = np.random.default_rng(1000 * n + seed)
    lead = list(range(1, _layout(n)[1] + 1))
    row = list(range(len(lead) + 1, n + 1))
    clauses = []
    for part in (lead, row):
        for width in range(1, min(len(part), 4) + 1):
            chosen = rng.choice(part, size=width, replace=False)
            clauses.append(_signed(rng, (int(v) for v in chosen)))
    if lead:
        clauses.append(_signed(rng, lead))
        clauses.append(_signed(rng, lead + row[:2]))
    clauses += [random_clause(rng, n, 3) for _ in range(2 * n)]
    _assert_table_matches_reference(formula_from_ints(n, clauses))


def test_table_equals_the_reference_with_many_clauses():
    rng = np.random.default_rng(17200)
    for n in (9, 16):
        clauses = [
            random_clause(rng, n, int(rng.integers(1, 5))) for _ in range(549)
        ]
        _assert_table_matches_reference(formula_from_ints(n, clauses))


@pytest.mark.parametrize("n", [9, 16, 18])
def test_keys_repeated_across_many_clauses_are_kept(n):
    # the clauses of one key share one union; each must still clear its
    # own cells, a clause repeated many times and a run of clauses with
    # the same leading literals and different row literals among them
    rng = np.random.default_rng(17300 + n)
    lead = _layout(n)[1]
    clauses = [random_clause(rng, n, 4) for _ in range(256)]
    clauses += [clauses[-1]] * 293
    head = _signed(rng, range(1, min(lead, 2) + 1))
    for _ in range(300):
        tail = rng.choice(range(lead + 1, n + 1), size=2, replace=False)
        clauses.append(head + _signed(rng, (int(v) for v in tail)))
    _assert_table_matches_reference(formula_from_ints(n, clauses))


@pytest.mark.parametrize("n, ratio", [(3, 2.0), (6, 3.0), (14, 4.26), (15, 1.0),
                                      (16, 4.26), (19, 3.0), (21, 4.26)])
def test_the_slab_walk_yields_the_table_in_order(n, ratio):
    # the walk yields the reference table's nonzero slabs, in order, and
    # the verdict reads its model, slab and patterns off the first
    rng = np.random.default_rng(17500 + n)
    m = round(ratio * n)
    f = formula_from_ints(n, [random_clause(rng, n, 3) for _ in range(m)])
    w, lead = _layout(n)
    words = reference_table(f).astype("<u8").reshape(1 << lead, -1)
    rows = [int.from_bytes(row.tobytes(), "little") for row in words]
    got = list(slab_walk(f))
    assert got == [(i, row) for i, row in enumerate(rows) if row]
    unsat, model, counters = algebra_verdict(f)
    if got:
        index, slab = got[0]
        cell = index << w | (slab & -slab).bit_length() - 1
        assert not unsat and model == Assignment.from_primitive_index(cell, n)
        assert counters == {
            "patterns": slab.bit_count(), "slabs": index + 1, "splits": 0
        }
    else:
        assert unsat and model is None
        assert counters == {"patterns": 0, "slabs": 1 << lead, "splits": 0}


def test_table_working_memory_does_not_grow_with_the_clauses():
    """The falsifiers of the clauses of one key are ORed into one union as
    they are read, so the walk holds at most 3^L unions (9 at n = 16)
    besides the list of the clauses it reads, far below one falsifier per
    clause."""
    n, m = 16, 20_000
    rng = np.random.default_rng(17400)
    f = formula_from_ints(n, [random_clause(rng, n, 3) for _ in range(m)])
    slab_bytes = (1 << 14) // 8
    _literal_masks(n)  # the per-n literal masks are made once, not per call
    tracemalloc.start()
    try:
        count, _ = algebra_models(f, None, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 0
    clause_rows_bytes = m * slab_bytes  # one falsifier per clause: 41 MB
    assert peak <= 8 * m + 64 * slab_bytes < clause_rows_bytes // 100


def _units_formula(seed):
    """Ten 3-clauses and three unit clauses over 8 variables, shuffled."""
    rng = np.random.default_rng(seed)
    n = 8
    clauses = [random_clause(rng, n, 3) for _ in range(10)]
    clauses += [random_clause(rng, n, 1) for _ in range(3)]
    rng.shuffle(clauses)
    return formula_from_ints(n, clauses)


@pytest.mark.parametrize("seed", range(6))
def test_unit_clauses_fold_into_the_sparse_product(seed):
    # a unit clause multiplies in as one pattern: the sparse product equals
    # the product built factor by factor and lists the same models
    f = _units_formula(seed)
    sparse = encode_formula(f)
    assert CheckedElement.of(sparse) == _clause_product(f)
    assert models(sparse) == set(brute_force(f).models)


def test_unit_clauses_alone_are_one_pattern():
    f = formula_from_ints(5, [(1,), (-3,), (5,)])
    sparse = encode_formula(f)
    assert sparse.terms == {pattern_bits(5, {1: D_QP, 3: D_PQ, 5: D_QP}): 1}


def test_zero_test_depth_does_not_grow_with_n():
    # 3000 splits in a row, far past the default recursion limit
    assert sys.getrecursionlimit() < 3000
    e = encode_formula(two_wide_clauses(3000))
    assert e.term_count == 3
    zero, splits, point = zero_test_splits(e)
    assert (zero, splits) == (False, 3000)
    assert point.satisfies(two_wide_clauses(3000))


def _clause_product(f):
    """The formula's product built factor by factor with ``*``, apart from
    the encoder, so the corpus pins the zero test alone."""
    product = identity_element(f.n)
    for clause in f.clauses:
        product = product * (identity_element(f.n) - encode_clause(clause, f.n))
    return product


def _corpus_formulas():
    """Seeded random 3-SAT at n = 12-16 and ratios 1-1.5."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, ratio = 12 + seed % 5, (1.0, 1.25, 1.5)[seed % 3]
        yield formula_from_ints(
            n, [random_clause(rng, n, 3) for _ in range(round(ratio * n))]
        )


def _split_corpus():
    """Seeded formulas and elements, each with its truth-table verdict."""
    cases = []
    for f in _corpus_formulas():
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
        a = CheckedElement(n, terms)
        if k % 3 == 0:
            a = a - CheckedElement(n, _point_values(a))  # zero, sparse form
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
    assert [zero for zero, _, _ in got] == [zero for _, zero in cases]
    assert [(zero, splits) for zero, splits, _ in got] == PINNED_SPLITS
    for (e, _), (zero, _, point) in zip(cases, got):
        assert (point is None) == zero
        assert point is None or eval_at(e, point) != 0


def test_encoded_products_pass_the_validating_constructor():
    # encode_formula hands its dict to the element unchecked; the reference
    # constructor checks every pattern (in range, alive) and coefficient (an
    # int), drops zeros, and so must keep every term as it is
    formulas_ = [_units_formula(seed) for seed in range(6)]
    formulas_ += list(_corpus_formulas())
    formulas_.append(two_wide_clauses(3000))
    for f in formulas_:
        e = encode_formula(f)
        assert CheckedElement.of(e).terms == e.terms


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
    assert CheckedElement.of(encode_formula(f)) == encode_formula(g)
