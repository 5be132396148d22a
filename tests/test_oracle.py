"""Oracle layer: the two solvers against each other, the trail DPLL
against its frozen clause-copying predecessor, and the exact matrix backend
against hand-computed blocks."""

import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.algebra import (
    D_PQ,
    D_QP,
    DiagonalElement,
    EFBTerm,
    ResourceLimitError,
    WittVector,
    eval_at,
    identity_element,
    omega_element,
    pattern_bits,
)
from wittsat.cnf import Assignment, Clause, CnfFormula
from wittsat.geometry import cover_verdict
from wittsat.oracle import (
    GAMMA_LIMIT,
    SAT,
    UNSAT,
    DpllResult,
    GammaRep,
    brute_force,
    dpll,
)

from dpll_reference import reference_dpll
from test_cnf import formulas, implication_chain, independent_pairs, pigeonhole


def test_brute_force_known_model_set():
    f = CnfFormula.from_ints(2, [(1, 2)])
    res = brute_force(f)
    assert res.verdict == SAT
    assert set(res.models) == {
        Assignment((True, True)),
        Assignment((True, False)),
        Assignment((False, True)),
    }


def test_brute_force_unsat_and_guard():
    assert brute_force(CnfFormula.from_ints(1, [(1,), (-1,)])).verdict == UNSAT
    assert brute_force(CnfFormula(1, (), empty_clause_count=1)).verdict == UNSAT
    with pytest.raises(ResourceLimitError):
        brute_force(CnfFormula.from_ints(25, []))


def test_dpll_known_cases():
    sat = dpll(CnfFormula.from_ints(3, [(1, 2), (-1, 3), (-2, -3)]))
    assert sat.verdict == SAT and sat.model.satisfies(
        CnfFormula.from_ints(3, [(1, 2), (-1, 3), (-2, -3)])
    )
    unsat = dpll(CnfFormula.from_ints(2, [(1,), (-1, 2), (-2,)]))
    assert unsat.verdict == UNSAT and unsat.model is None


def test_dpll_model_after_backtracking():
    # x1 = True fails after setting x3 and x2 false; nothing set on that
    # branch may leak into the model, where the unset x2 reads True
    f = CnfFormula.from_ints(3, [(-1, -2, 3), (-3, -1), (1, 3), (-1, 2)])
    assert dpll(f).model.to_ints() == (-1, 2, 3)


def test_dpll_on_deep_independent_pairs():
    f = independent_pairs(1200)  # n=2400: one decision per pair
    stats = {}
    res = dpll(f, stats=stats)
    assert res.verdict == SAT and res.model.satisfies(f)
    assert stats == {"decisions": 1200, "propagations": 1200}


def test_dpll_on_long_implication_chain():
    assert dpll(implication_chain(3000)) == DpllResult(UNSAT, None)


def test_dpll_decision_budget():
    php = pigeonhole(6)
    stats = {}
    with pytest.raises(ResourceLimitError):
        dpll(php, decision_budget=1, stats=stats)
    assert stats["decisions"] == 2  # counted up to the one that overran
    assert dpll(php).verdict == UNSAT


def test_dpll_stats_on_trivial_formulas():
    for f in (
        CnfFormula(2, (), empty_clause_count=1),
        CnfFormula.from_ints(2, []),
    ):
        stats = {}
        dpll(f, stats=stats)
        assert stats == {"decisions": 0, "propagations": 0}
    # the unit x1 forces x2..x5, and x5 meets the unit -x5
    stats = {}
    assert dpll(implication_chain(5), stats=stats).verdict == UNSAT
    assert stats == {"decisions": 0, "propagations": 5}


def _assert_matches_reference(f):
    """Same verdict, model and decision count as the frozen reference, and
    a decision budget that runs out exactly below that count."""
    model, decisions = reference_dpll(f)
    stats = {}
    res = dpll(f, decision_budget=decisions, stats=stats)
    assert res == DpllResult(UNSAT if model is None else SAT, model)
    assert stats["decisions"] == decisions
    if decisions:
        with pytest.raises(ResourceLimitError):
            dpll(f, decision_budget=decisions - 1)


def _corpus_formula(rng):
    """n <= 12, widths 1-4; a clause may name a variable twice in either
    sign (a dropped duplicate or a tautology), some clauses repeat, and a
    few formulas carry an empty clause."""
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 5 * n)):
        width = rng.randint(1, min(n, 4))
        clauses.append([rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)])
    clauses += rng.sample(clauses, min(len(clauses), rng.randint(0, 2)))
    return CnfFormula(
        n,
        tuple(Clause.from_ints(c) for c in clauses),
        empty_clause_count=int(rng.random() < 0.02),
    )


def test_trail_dpll_matches_reference_on_seeded_corpus():
    rng = random.Random(2003)
    for _ in range(5000):
        _assert_matches_reference(_corpus_formula(rng))


def _random_3sat(rng, n, m, hidden=None):
    out = []
    while len(out) < m:
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        if hidden is None or any((lit > 0) == hidden[abs(lit) - 1] for lit in clause):
            out.append(clause)
    return CnfFormula.from_ints(n, out)


def _renamed_pigeonhole(rng, holes):
    f = pigeonhole(holes)
    name = list(range(1, f.n + 1))
    rng.shuffle(name)
    clauses = [[name[abs(l) - 1] * (1 if l > 0 else -1) for l in c] for c in f.clauses]
    rng.shuffle(clauses)
    return CnfFormula.from_ints(f.n, clauses)


@pytest.mark.parametrize(
    "family, copies", [("php7-6-renamed", 1), ("threshold-45", 6), ("planted-50", 3)]
)
def test_trail_dpll_matches_reference_on_search_families(family, copies):
    rng = random.Random(1962)
    for _ in range(copies):
        if family == "php7-6-renamed":
            f = _renamed_pigeonhole(rng, 6)
        elif family == "threshold-45":
            f = _random_3sat(rng, 45, round(4.26 * 45))
        else:
            hidden = [rng.random() < 0.5 for _ in range(50)]
            f = _random_3sat(rng, 50, round(4.26 * 50), hidden)
        _assert_matches_reference(f)


def _clause_over(draw, variables):
    width = draw(st.integers(min_value=1, max_value=min(3, len(variables))))
    vs = draw(st.lists(st.sampled_from(variables), min_size=width, max_size=width, unique=True))
    return [v if draw(st.booleans()) else -v for v in vs]


@st.composite
def component_formulas(draw):
    """Up to eight independent components of 1-4 variables each (n <= 20),
    their variables interleaved by a drawn renaming."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8))
    n = min(sum(sizes), 20)
    name = draw(st.permutations(range(1, n + 1)))
    clauses, start = [], 0
    for size in sizes:
        block = list(name[start : min(start + size, n)])
        if not block:
            break
        for _ in range(draw(st.integers(min_value=0, max_value=3 * len(block)))):
            clauses.append(_clause_over(draw, block))
        start += size
    return CnfFormula.from_ints(n, clauses)


@st.composite
def chain_formulas(draw):
    """A chain of implications l1 -> l2 -> ... over drawn literals, maybe
    forced at its start or refuted at its end, plus random side clauses
    (n <= 16, where the truth table stays a few milliseconds)."""
    n = draw(st.integers(min_value=2, max_value=16))
    order = draw(st.permutations(range(1, n + 1)))
    lits = [v if draw(st.booleans()) else -v
            for v in order[: draw(st.integers(min_value=2, max_value=n))]]
    clauses = [[-a, b] for a, b in zip(lits, lits[1:])]
    if draw(st.booleans()):
        clauses.append([lits[0]])
    if draw(st.booleans()):
        clauses.append([-lits[-1]])
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        clauses.append(_clause_over(draw, list(range(1, n + 1))))
    order_of = draw(st.permutations(range(len(clauses))))
    return CnfFormula.from_ints(n, [clauses[i] for i in order_of])


def _search_routes_agree_with_brute_force(f):
    truth = brute_force(f).verdict
    covered, witness = cover_verdict(f)
    assert covered == (truth == UNSAT)
    assert witness is None or witness.satisfies(f)
    res = dpll(f)
    assert res.verdict == truth
    assert res.model is None or res.model.satisfies(f)


@given(component_formulas())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_search_routes_on_independent_components(f):
    _search_routes_agree_with_brute_force(f)


@given(chain_formulas())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_search_routes_on_implication_chains(f):
    _search_routes_agree_with_brute_force(f)


@given(formulas())
@settings(max_examples=300)
def test_dpll_agrees_with_brute_force(f):
    assert dpll(f).verdict == brute_force(f).verdict


def test_gamma_blocks_at_n1_are_the_standard_ladder():
    rep = GammaRep(1)
    assert np.array_equal(rep.p(1), np.array([[0, 0], [1, 0]], dtype=object))
    assert np.array_equal(rep.q(1), np.array([[0, 1], [0, 0]], dtype=object))
    qp = np.dot(rep.q(1), rep.p(1))
    pq = np.dot(rep.p(1), rep.q(1))
    assert np.array_equal(qp, np.diag([Fraction(1), Fraction(0)]))
    assert np.array_equal(pq, np.diag([Fraction(0), Fraction(1)]))


def test_gamma_relations_and_null_squares():
    for n in (1, 2, 3):
        rep = GammaRep(n)
        assert rep.check_generator_relations()
        for i in range(1, n + 1):
            assert not np.dot(rep.p(i), rep.p(i)).any()
            assert not np.dot(rep.q(i), rep.q(i)).any()
            # {p_i, q_i} = 1
            anti = np.dot(rep.p(i), rep.q(i)) + np.dot(rep.q(i), rep.p(i))
            assert np.array_equal(anti, rep.identity())


def test_cross_position_vectors_anticommute():
    rep = GammaRep(3)
    vs = [rep.p(1), rep.q(2), rep.p(3)]
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            assert not (np.dot(vs[i], vs[j]) + np.dot(vs[j], vs[i])).any()


def test_identity_and_omega_matrices():
    rep = GammaRep(2)
    assert np.array_equal(rep.matrix_of(identity_element(2)), rep.identity())
    om = rep.matrix_of(omega_element(2))
    # sign flips once per false variable: slots TT, TF, FT, FF
    assert np.array_equal(
        om, np.diag([Fraction(1), Fraction(-1), Fraction(-1), Fraction(1)])
    )


def test_element_matrix_is_exact_past_int64():
    # the two patterns overlap on x1 true, x2 false, where they cancel to 0
    big = 2**70
    a = DiagonalElement(
        3, {pattern_bits(3, {1: D_QP}): big, pattern_bits(3, {2: D_PQ}): -big}
    )
    m = GammaRep(3).matrix_of(a)
    for mask in range(8):
        sigma = Assignment.from_mask(mask, 3)
        idx = sigma.primitive_index()
        assert m[idx, idx] == eval_at(a, sigma)
    assert set(np.diagonal(m)) == {big, -big, 0}
    assert not (m - np.diag(np.diagonal(m))).any()


def test_term_matrix_respects_position_order():
    rep = GammaRep(2)
    t = EFBTerm.from_text("1 * p q")
    direct = np.dot(rep.p(1), rep.q(2))
    assert np.array_equal(rep.matrix_of(t), direct)
    assert np.array_equal(rep.matrix_of(WittVector(2, "q")), rep.q(2))


def test_gamma_rejects_out_of_range():
    with pytest.raises(ValueError):
        GammaRep(GAMMA_LIMIT + 1)
    with pytest.raises(ValueError):
        GammaRep(0)
    rep = GammaRep(2)
    with pytest.raises(ValueError):
        rep.matrix_of(WittVector(3, "p"))
    with pytest.raises(TypeError):
        rep.matrix_of("qp")
