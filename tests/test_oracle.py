"""Oracle layer: the two solvers against each other, and the exact matrix
backend against hand-computed blocks."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings

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
from wittsat.cnf import Assignment, CnfFormula
from wittsat.oracle import (
    GAMMA_LIMIT,
    SAT,
    UNSAT,
    DpllResult,
    GammaRep,
    brute_force,
    dpll,
)

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
    res = dpll(f)
    assert res.verdict == SAT and res.model.satisfies(f)


def test_dpll_on_long_implication_chain():
    assert dpll(implication_chain(3000)) == DpllResult(UNSAT, None)


def test_dpll_decision_budget():
    php = pigeonhole(6)
    with pytest.raises(ResourceLimitError):
        dpll(php, decision_budget=1)
    assert dpll(php).verdict == UNSAT


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
