"""Sign vectors, ternary patterns, null planes, and the cover test."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.algebra import (
    EFBTerm,
    ResourceLimitError,
    WittVector,
    mtnp_of_spinor,
)
from wittsat.cnf import Assignment, Clause, CnfFormula, TautologyError
from wittsat.geometry import (
    SignVector,
    TernaryPattern,
    TotallyNullPlane,
    assignment_of_sign_vector,
    check_intersection,
    compatible,
    cover_verdict,
    formula_patterns,
    induced_pattern,
    mtnp_of_assignment,
    plane_of_sign_vector,
    psi_z_expansion,
    tnp_of_clause,
)
from wittsat.oracle import brute_force

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


def test_sign_vector_text_round_trip():
    s = SignVector((1, -1, 1))
    assert s.to_text() == "+-+"
    assert SignVector.from_text("+-+") == s
    with pytest.raises(ValueError):
        SignVector((1, 0))


def _sign_vectors(n):
    return [SignVector(eps) for eps in itertools.product((1, -1), repeat=n)]


def test_pattern_matching_and_members():
    p = TernaryPattern.from_text("+*-")
    assert SignVector.from_text("++-").matches(p)
    assert SignVector.from_text("+--").matches(p)
    assert not SignVector.from_text("-+-").matches(p)
    members = {s.to_text() for s in _sign_vectors(3) if s.matches(p)}
    assert members == {"++-", "+--"}


def test_plane_rejects_clashing_generators():
    with pytest.raises(ValueError):
        TotallyNullPlane((WittVector(1, "p"), WittVector(1, "q")))


def test_null_span_criterion():
    # {p_i, q_i} = 1, so a plane cannot hold both; split positions are fine
    plane = TotallyNullPlane((WittVector(1, "p"), WittVector(2, "q")))
    assert len(plane.generators) == 2
    vectors = [WittVector(i, k) for i in (1, 2, 3) for k in "pq"]
    for u, v in itertools.combinations(vectors, 2):
        if u.index == v.index:
            with pytest.raises(ValueError):
                TotallyNullPlane((u, v))
        else:
            assert TotallyNullPlane((u, v)).generator_set == {
                (u.index, u.kind),
                (v.index, v.kind),
            }


def test_assignment_sign_vector_bijection():
    a = Assignment((True, False))
    s = mtnp_of_assignment(a)
    assert s.to_text() == "-+"  # true sits on the q side
    assert assignment_of_sign_vector(s) == a
    plane = plane_of_sign_vector(s)
    assert plane.generator_set == {(1, "q"), (2, "p")}


def test_spinor_route_matches_sign_vector_route():
    # first factors of the assignment's basis term == plane of its sign vector
    for values in itertools.product((True, False), repeat=3):
        a = Assignment(values)
        term = EFBTerm.from_symbols("qp" if v else "pq" for v in values)
        via_term = set(mtnp_of_spinor(term))
        via_signs = set(plane_of_sign_vector(mtnp_of_assignment(a)).generators)
        assert via_term == via_signs


def test_clause_plane_generators():
    plane = tnp_of_clause(Clause.from_ints((3, -1)), 4)
    assert plane.generators == (WittVector(1, "q"), WittVector(3, "p"))
    with pytest.raises(TautologyError):
        tnp_of_clause(Clause.from_ints((1, -1)), 2)


def test_induced_pattern_pins_literal_slots():
    p = induced_pattern(Clause.from_ints((1, -2)), 3)
    assert p.to_text() == "+-*"
    with pytest.raises(TautologyError):
        induced_pattern(Clause.from_ints((1, -1)), 2)


def test_compatible_is_falsification():
    c = Clause.from_ints((1, -2))
    assert compatible(c, Assignment((False, True)), verify=True)
    assert not compatible(c, Assignment((True, True)), verify=True)


def test_pattern_members_are_exactly_the_falsifying_assignments():
    for n in (2, 3):
        for ints in [(1,), (-2,), (1, -2), (-1, 2)]:
            if max(abs(i) for i in ints) > n:
                continue
            c = Clause.from_ints(ints)
            p = induced_pattern(c, n)
            matched = {
                assignment_of_sign_vector(s)
                for s in _sign_vectors(n)
                if s.matches(p)
            }
            falsified = {
                a
                for m in range(1 << n)
                if c.falsified_by(a := Assignment.from_mask(m, n))
            }
            assert matched == falsified


def test_full_width_universe_covers_and_loses_cover_without_one():
    # the clauses of the patterns ++, +-, -+ and --
    all_four = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    assert cover_verdict(CnfFormula.from_ints(2, all_four)) == (True, None)
    covered, w = cover_verdict(CnfFormula.from_ints(2, all_four[:3]))
    assert not covered and mtnp_of_assignment(w).to_text() == "--"


def test_witness_prefers_plus_on_free_positions():
    covered, w = cover_verdict(CnfFormula.from_ints(3, [(-1,)]))  # -**
    assert mtnp_of_assignment(w).to_text() == "+++"


def test_formula_patterns_skip_tautologies_and_honor_empty_clause():
    f = CnfFormula.from_ints(2, [(1, -1), (1, 2)])
    assert [p.to_text() for p in formula_patterns(f)] == ["++"]
    g = CnfFormula(2, (), empty_clause_count=1)
    assert [p.to_text() for p in formula_patterns(g)] == ["**"]
    assert cover_verdict(g) == (True, None)


def test_psi_z_expansion_enumerates_even_completions():
    c = Clause.from_ints((1, 2))
    terms = psi_z_expansion(c, 3)
    assert {str(t) for t in terms} == {"1 * pq pq qp", "1 * pq pq pq"}
    # a full-width clause pins everything: single term, no sign
    full = psi_z_expansion(Clause.from_ints((1, -2, 3)), 3)
    assert [str(t) for t in full] == ["1 * pq qp pq"]
    with pytest.raises(TautologyError):
        psi_z_expansion(Clause.from_ints((1, -1)), 2)


def test_expansion_plane_intersection_recovers_clause_plane():
    assert check_intersection(Clause.from_ints((1, 2)), 6)
    assert check_intersection(Clause.from_ints((-3,)), 5)


def test_cover_verdict_on_deep_independent_pairs():
    f = independent_pairs(1200)  # n=2400: one decision per pair
    covered, witness = cover_verdict(f, decision_budget=1200)
    assert not covered and model_bits(witness) == "01" * 1200
    with pytest.raises(ResourceLimitError):
        cover_verdict(f, decision_budget=1199)


def test_cover_verdict_on_long_implication_chain():
    assert cover_verdict(implication_chain(3000)) == (True, None)


def test_cover_verdict_on_duplicate_tautological_and_empty_clauses():
    rng = random.Random(401)
    for _ in range(300):
        n = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(0, 10)):
            width = rng.randint(1, n)
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), width)]
            if rng.random() < 0.2:
                lits.append(-lits[0])  # tautology
            clauses.append(Clause.from_ints(lits))
            if rng.random() < 0.3:
                clauses.append(clauses[-1])  # duplicate
        f = CnfFormula(n, tuple(clauses), empty_clause_count=int(rng.random() < 0.1))
        covered, witness = cover_verdict(f)
        assert covered == (brute_force(f).verdict == "UNSAT")
        assert covered or witness.satisfies(f)


def test_cover_verdict_decision_budget():
    php = pigeonhole(6)
    with pytest.raises(ResourceLimitError):
        cover_verdict(php, decision_budget=1)
    assert cover_verdict(php) == (True, None)


# (formula, witness as 1/0 per variable or None when covered, decisions):
# exact results, which no change to how the search keeps its branching
# weights may move
COVER_GOLDEN = {
    "php6-5-renamed": (lambda: renamed_pigeonhole(random.Random(6), 5), None, 124),
    "threshold-26": (
        lambda: random_3sat(random.Random(26), 26, round(4.26 * 26)),
        "11101010101101100101000110", 11,
    ),
    "threshold-14": (
        lambda: random_3sat(random.Random(14), 14, round(4.26 * 14)),
        "01000010100000", 7,
    ),
    "planted-30": (
        lambda: planted_3sat(random.Random(30), 30),
        "011001100101011000010100000000", 9,
    ),
    "php7-6": (lambda: pigeonhole(6), None, 719),
    "wide-60": (lambda: wide_clauses(random.Random(60), 60, 300), "0" * 60, 10),
}


@pytest.mark.parametrize("family", list(COVER_GOLDEN))
def test_cover_witness_and_decisions_are_pinned_on_search_families(family):
    # the decision count is the budget boundary: k decisions pass, k - 1 raise
    make, witness, decisions = COVER_GOLDEN[family]
    f = make()
    covered, found = cover_verdict(f, decision_budget=decisions)
    assert covered == (witness is None)
    assert model_bits(found) == witness
    with pytest.raises(ResourceLimitError):
        cover_verdict(f, decision_budget=decisions - 1)


@given(formulas())
@settings(max_examples=200)
def test_cover_verdict_matches_brute_force(f):
    covered, witness = cover_verdict(f)
    assert covered == (len(brute_force(f).models) == 0)
    if witness is not None:
        assert witness.satisfies(f)


@given(st.data())
@settings(max_examples=200)
def test_compatible_verify_mode_never_diverges(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    width = data.draw(st.integers(min_value=1, max_value=n))
    vs = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n),
            min_size=width,
            max_size=width,
            unique=True,
        )
    )
    signs = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    clause = Clause.from_ints(tuple(v if s else -v for v, s in zip(vs, signs)))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    a = Assignment.from_mask(mask, n)
    compatible(clause, a, verify=True)  # raises on any divergence
