"""The DPLL route against the truth table and against its frozen
clause-copying predecessor, and the references of tests/oracle_reference.py
(the truth table, the exact matrix backend) against hand-computed cases."""

import hashlib
import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.algebra import D_PQ, D_QP, DiagonalElement, pattern_bits
from wittsat.cnf import Assignment, CnfFormula, ResourceLimitError
from wittsat.geometry import cover_verdict
from wittsat.oracle import dpll

from algebra_reference import (
    EFBTerm,
    NullVector,
    eval_at,
    identity_element,
    omega_element,
)
from dpll_reference import reference_dpll
from formula_helpers import binary_corpus_formula, corpus_formula, formula_from_ints
from oracle_reference import GAMMA_LIMIT, SAT, UNSAT, GammaRep, brute_force
from test_cnf import (
    formulas,
    implication_chain,
    independent_pairs,
    model_bits,
    pigeonhole,
    planted_3sat,
    random_3sat,
    renamed_pigeonhole,
    wide_clauses,
)


def test_brute_force_known_model_set():
    f = formula_from_ints(2, [(1, 2)])
    res = brute_force(f)
    assert res.verdict == SAT
    assert set(res.models) == {
        Assignment((True, True)),
        Assignment((True, False)),
        Assignment((False, True)),
    }


def test_brute_force_unsat_and_guard():
    assert brute_force(formula_from_ints(1, [(1,), (-1,)])).verdict == UNSAT
    assert brute_force(CnfFormula(1, (), empty_clause_count=1)).verdict == UNSAT
    with pytest.raises(ResourceLimitError):
        brute_force(formula_from_ints(25, []))


def test_dpll_known_cases():
    unsat, model, _ = dpll(formula_from_ints(3, [(1, 2), (-1, 3), (-2, -3)]))
    assert not unsat and model.satisfies(
        formula_from_ints(3, [(1, 2), (-1, 3), (-2, -3)])
    )
    unsat, model, _ = dpll(formula_from_ints(2, [(1,), (-1, 2), (-2,)]))
    assert unsat and model is None


def test_dpll_model_after_backtracking():
    # x1 = True fails after setting x3 and x2 false; nothing set on that
    # branch may leak into the model, where the unset x2 reads True
    f = formula_from_ints(3, [(-1, -2, 3), (-3, -1), (1, 3), (-1, 2)])
    assert dpll(f)[1].to_ints() == (-1, 2, 3)


def test_dpll_on_deep_independent_pairs():
    f = independent_pairs(1200)  # n=2400: one decision per pair
    unsat, model, stats = dpll(f)
    assert not unsat and model_bits(model) == "10" * 1200
    assert stats == {"decisions": 1200, "propagations": 1200}


def test_dpll_on_long_implication_chain():
    assert dpll(implication_chain(3000))[:2] == (True, None)


def test_dpll_decision_budget():
    php = pigeonhole(6)
    with pytest.raises(ResourceLimitError):
        dpll(php, decision_budget=1)
    assert dpll(php)[0]


def test_dpll_stats_on_trivial_formulas():
    for f in (
        CnfFormula(2, (), empty_clause_count=1),
        formula_from_ints(2, []),
    ):
        assert dpll(f)[2] == {"decisions": 0, "propagations": 0}
    # the unit x1 forces x2..x5, and x5 meets the unit -x5
    assert dpll(implication_chain(5)) == (
        True, None, {"decisions": 0, "propagations": 5}
    )


def _assert_matches_reference(f):
    """Same verdict, model and decision count as the frozen reference, and
    a decision budget that runs out exactly below that count."""
    model, decisions = reference_dpll(f)
    unsat, got, stats = dpll(f, decision_budget=decisions)
    assert (unsat, got) == (model is None, model)
    assert stats["decisions"] == decisions
    if decisions:
        with pytest.raises(ResourceLimitError):
            dpll(f, decision_budget=decisions - 1)


def test_trail_dpll_matches_reference_on_seeded_corpus():
    rng = random.Random(2003)
    for _ in range(5000):
        _assert_matches_reference(corpus_formula(rng))


def test_trail_dpll_matches_reference_on_binary_corpus():
    rng = random.Random(2022)
    for _ in range(3000):
        _assert_matches_reference(binary_corpus_formula(rng))


def _counters_digest(make, rng, count):
    """sha256 prefix over (unsat, model bits, decisions, propagations) of
    the first ``count`` formulas ``make(rng)`` draws."""
    h = hashlib.sha256()
    for _ in range(count):
        unsat, model, stats = dpll(make(rng))
        row = (unsat, model_bits(model), stats["decisions"], stats["propagations"])
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def test_dpll_counters_are_pinned_on_the_seeded_corpora():
    # the frozen reference counts no propagations, so these digests pin
    # them (with verdict, model and decisions) on both corpora above
    assert _counters_digest(corpus_formula, random.Random(2003), 5000) == (
        "0b060429ac6d4b2b"
    )
    assert _counters_digest(binary_corpus_formula, random.Random(2022), 3000) == (
        "c68e51c23a52c8bf"
    )


@pytest.mark.parametrize(
    "n, clauses, model, decisions, propagations",
    [
        (5, [], "11111", 0, 0),  # no clauses
        (4, [(1, -1), (3, -3), (-3, 3, 2), (4, -4)], "1111", 3, 0),
        (3, [(1, -1), (2, -2), (3, -3)], "111", 3, 0),  # binary tautologies
        # the units satisfy every clause before any decision
        (4, [(2,), (-4,), (1, 2), (-4, 3, -1), (2, -3, 4)], "1110", 0, 2),
        # -x2 is pure, and setting it leaves no clause: the pick's scan runs
        # through all 200,001 slots to its end
        (100_000, [(1,), (-2, 100_000)], "10" + "1" * 99_998, 0, 1),
    ],
    ids=["empty", "tautologies", "binary-tautologies", "units", "n100000"],
)
def test_dpll_reads_sat_where_no_clause_is_left(
    n, clauses, model, decisions, propagations
):
    unsat, got, stats = dpll(formula_from_ints(n, clauses))
    assert (unsat, model_bits(got)) == (False, model)
    assert stats == {"decisions": decisions, "propagations": propagations}


def test_binary_conflict_ends_the_propagation():
    # the unit x1 implies x2, -x2 and x3, in clause order; -x2 is already
    # false once x2 is set, so the propagation ends there and never sets x3
    f = formula_from_ints(3, [(1,), (-1, 2), (-1, -2), (-1, 3)])
    assert dpll(f) == (True, None, {"decisions": 0, "propagations": 2})
    # on a branch: x1, -x1 and x3 each sit in three clauses, so the first
    # decision sets x1 = True, which ends the same way after one
    # propagation; x1 = False then propagates x3, and x2 through the
    # ternary (-3 1 2)
    f = formula_from_ints(
        3, [(1, 3), (-1, 2), (-1, -2), (-1, 3), (-3, 1, 2), (1, 3, -2)]
    )
    assert dpll(f) == (False, Assignment((False, True, True)),
                       {"decisions": 1, "propagations": 3})


@pytest.mark.parametrize(
    "family, copies", [("php7-6-renamed", 1), ("threshold-45", 6), ("planted-50", 3)]
)
def test_trail_dpll_matches_reference_on_search_families(family, copies):
    rng = random.Random(1962)
    for _ in range(copies):
        if family == "php7-6-renamed":
            f = renamed_pigeonhole(rng, 6)
        elif family == "threshold-45":
            f = random_3sat(rng, 45, round(4.26 * 45))
        else:
            f = planted_3sat(rng, 50)
        _assert_matches_reference(f)


# (formula, verdict, model as 1/0 per variable, decisions, propagations):
# exact counters.  No change to how the search keeps its pure-literal counts
# or orders its propagation may move the decisions; propagations move only
# where a branch ends in a conflict (php7-6-renamed: 9621 while two-literal
# clauses kept counters, 9288 since their implication lists stop at the
# first false literal).  The branching rule moves both: from the lowest
# still-occurring variable to the literal in the most unsatisfied clauses,
# php7-6-renamed went from 1137 to 819 decisions, threshold-45 from 236 to
# 46, planted-50 from 15 to 25 and wide-60 from 5 to 4; php7-6 stayed at
# 719 (propagations 5503 -> 5143)
DPLL_GOLDEN = {
    "php7-6-renamed": (
        lambda: renamed_pigeonhole(random.Random(7), 6), UNSAT, None, 819, 8517
    ),
    "threshold-45": (
        lambda: random_3sat(random.Random(45), 45, round(4.26 * 45)),
        UNSAT, None, 46, 918,
    ),
    "planted-50": (
        lambda: planted_3sat(random.Random(50), 50),
        SAT, "00011010001101001000100001111001011010011000101110", 25, 256,
    ),
    "php7-6": (lambda: pigeonhole(6), UNSAT, None, 719, 5143),
    "wide-60": (
        lambda: wide_clauses(random.Random(60), 60, 300),
        SAT, "111011111111111111011111111111111111111111111111111111111111", 4, 0,
    ),
}


@pytest.mark.parametrize("family", list(DPLL_GOLDEN))
def test_dpll_counters_are_pinned_on_search_families(family):
    make, verdict, model, decisions, propagations = DPLL_GOLDEN[family]
    unsat, got, stats = dpll(make())
    assert (unsat, model_bits(got)) == (verdict == UNSAT, model)
    assert stats == {"decisions": decisions, "propagations": propagations}


def test_renaming_the_variables_barely_moves_the_decisions():
    # the branching rule reads clause counts, not variable names: sixteen
    # renamed copies of PHP(7,6) take 736-845 decisions (719 in natural
    # order)
    rng = random.Random(12)
    decisions = [
        dpll(renamed_pigeonhole(rng, 6))[2]["decisions"] for _ in range(16)
    ]
    assert max(decisions) <= 1.25 * min(decisions)


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
    return formula_from_ints(n, clauses)


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
    return formula_from_ints(n, [clauses[i] for i in order_of])


def _search_routes_agree_with_brute_force(f):
    truth = brute_force(f).verdict
    covered, witness, _ = cover_verdict(f)
    assert covered == (truth == UNSAT)
    assert witness is None or witness.satisfies(f)
    unsat, model, _ = dpll(f)
    assert unsat == (truth == UNSAT)
    assert model is None or model.satisfies(f)


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
    assert dpll(f)[0] == (brute_force(f).verdict == UNSAT)


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
    t = EFBTerm.from_symbols(("p", "q"))
    direct = np.dot(rep.p(1), rep.q(2))
    assert np.array_equal(rep.matrix_of(t), direct)
    assert np.array_equal(rep.matrix_of(NullVector(2, "q")), rep.q(2))


def test_gamma_rejects_out_of_range():
    with pytest.raises(ValueError):
        GammaRep(GAMMA_LIMIT + 1)
    with pytest.raises(ValueError):
        GammaRep(0)
    rep = GammaRep(2)
    with pytest.raises(ValueError):
        rep.matrix_of(NullVector(3, "p"))
    with pytest.raises(TypeError):
        rep.matrix_of("qp")
