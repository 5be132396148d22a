"""Sign vectors, ternary patterns, null planes, and the cover test; the
null-plane constructions of tests/plane_reference.py against each other."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittsat.cli import main
from wittsat.cnf import Assignment, Clause, CnfFormula, ResourceLimitError
from wittsat.geometry import (
    clause_slots,
    cover_verdict,
    formula_patterns,
    plane_text,
    sign_text,
)

from algebra_reference import EFBTerm, NullVector, mtnp_of_spinor
from cover_reference import reference_cover
from formula_helpers import (
    binary_corpus_formula,
    clause_universe,
    corpus_formula,
    formula_from_ints,
)
from oracle_reference import GammaRep, brute_force
from plane_reference import (
    check_intersection,
    compatible,
    falsified_by,
    generator_set,
    matches,
    plane_of_sign_vector,
    psi_z_expansion,
)
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


def _sign_vectors(n):
    return ["".join(signs) for signs in itertools.product("+-", repeat=n)]


def _pattern(ints, n):
    """The pattern that formula_patterns gives the one clause *ints*."""
    return formula_patterns(formula_from_ints(n, [ints]))[0]


def test_pattern_matching_and_members():
    p = _pattern((1, -3), 3)
    assert p == "+*-"
    assert sign_text(Assignment((False, True, False))) == "+-+"
    assert matches("++-", p)
    assert matches("+--", p)
    assert not matches("-+-", p)
    members = {s for s in _sign_vectors(3) if matches(s, p)}
    assert members == {"++-", "+--"}


def test_plane_rejects_clashing_generators(tmp_path, capsys):
    # a clause whose plane would hold both p_i and q_i is a tautology: the
    # geometry dump gives it no plane and the cover view no pattern
    for n in (1, 2):
        for ints in clause_universe(n):
            clause = Clause(ints + (-ints[0],))
            assert clause.is_tautological
            path = tmp_path / "taut.cnf"
            path.write_text(f"p cnf {n} 1\n{clause}\n")
            assert main(["geometry", "--json", str(path)]) == 0
            row = json.loads(capsys.readouterr().out)["clauses"][0]
            assert row == {"clause": str(clause), "generators": None}
            assert formula_patterns(formula_from_ints(n, [clause])) == []


def test_null_span_criterion():
    # {p_i, q_i} = 1, so a plane cannot hold both; split positions are fine
    # (checked exactly on the matrix backend); a clause plane holds at most
    # one vector per position unless the clause is a tautology
    rep = GammaRep(3)
    vectors = [NullVector(i, k) for i in (1, 2, 3) for k in "pq"]
    for u, v in itertools.combinations(vectors, 2):
        mu, mv = rep.matrix_of(u), rep.matrix_of(v)
        null = not (mu @ mu).any() and not (mu @ mv + mv @ mu).any()
        assert null == (u.index != v.index)
    for ints in clause_universe(3):
        positions = [g[1:] for g in plane_text(Clause(ints)).split()]
        assert len(set(positions)) == len(positions) == len(ints)
    assert plane_text(Clause((1, 2, -1))) == "p1 q1 p2"


def test_assignment_sign_vector_bijection():
    a = Assignment((True, False))
    s = sign_text(a)
    assert s == "-+"  # true sits on the q side
    texts = {sign_text(Assignment.from_mask(m, 3)) for m in range(8)}
    assert texts == set(_sign_vectors(3))
    assert plane_of_sign_vector(s) == {(1, "q"), (2, "p")}


def test_spinor_route_matches_sign_vector_route():
    # first factors of the assignment's basis term == plane of its sign vector
    for values in itertools.product((True, False), repeat=3):
        a = Assignment(values)
        term = EFBTerm.from_symbols("qp" if v else "pq" for v in values)
        via_term = set(mtnp_of_spinor(term))
        via_signs = plane_of_sign_vector(sign_text(a))
        assert via_term == via_signs


def test_clause_plane_generators():
    assert plane_text(Clause((3, -1))) == "q1 p3"
    assert generator_set(plane_text(Clause((3, -1)))) == {(1, "q"), (3, "p")}


def test_induced_pattern_pins_literal_slots():
    assert clause_slots(Clause((-2, 1))) == [(1, -1), (0, 1)]
    assert _pattern((1, -2), 3) == "+-*"
    # the slots, in literal order, and the text agree on every clause
    for ints in clause_universe(3):
        text = _pattern(ints, 3)
        pinned = [(abs(x) - 1, 1 if text[abs(x) - 1] == "+" else -1) for x in ints]
        assert clause_slots(Clause(ints)) == pinned


def test_compatible_is_falsification():
    c = Clause((1, -2))
    assert compatible(c, Assignment((False, True)), verify=True)
    assert not compatible(c, Assignment((True, True)), verify=True)


def test_pattern_members_are_exactly_the_falsifying_assignments():
    for n in (2, 3):
        for ints in [(1,), (-2,), (1, -2), (-1, 2)]:
            if max(abs(i) for i in ints) > n:
                continue
            c = Clause(ints)
            p = _pattern(ints, n)
            matched = {s for s in _sign_vectors(n) if matches(s, p)}
            falsified = {
                sign_text(a)
                for m in range(1 << n)
                if falsified_by(c, a := Assignment.from_mask(m, n))
            }
            assert matched == falsified


def test_full_width_universe_covers_and_loses_cover_without_one():
    # the clauses of the patterns ++, +-, -+ and --
    all_four = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    assert cover_verdict(formula_from_ints(2, all_four))[:2] == (True, None)
    covered, w, _ = cover_verdict(formula_from_ints(2, all_four[:3]))
    assert not covered and sign_text(w) == "--"


def test_witness_prefers_plus_on_free_positions():
    covered, w, _ = cover_verdict(formula_from_ints(3, [(-1,)]))  # -**
    assert sign_text(w) == "+++"


def test_formula_patterns_skip_tautologies_and_honor_empty_clause():
    f = formula_from_ints(2, [(1, -1), (1, 2)])
    assert formula_patterns(f) == ["++"]
    g = CnfFormula(2, (), empty_clause_count=1)
    assert formula_patterns(g) == ["**"]
    assert cover_verdict(g)[:2] == (True, None)


def test_psi_z_expansion_enumerates_even_completions():
    c = Clause((1, 2))
    terms = psi_z_expansion(c, 3)
    assert {str(t) for t in terms} == {"1 * pq pq qp", "1 * pq pq pq"}
    # a full-width clause pins everything: single term, no sign
    full = psi_z_expansion(Clause((1, -2, 3)), 3)
    assert [str(t) for t in full] == ["1 * pq qp pq"]
    with pytest.raises(ValueError):
        psi_z_expansion(Clause((1, -1)), 2)


def test_expansion_plane_intersection_recovers_clause_plane():
    assert check_intersection(Clause((1, 2)), 6)
    assert check_intersection(Clause((-3,)), 5)


def test_cover_verdict_on_deep_independent_pairs():
    f = independent_pairs(1200)  # n=2400: one decision per pair
    covered, witness, _ = cover_verdict(f, decision_budget=1200)
    assert not covered and model_bits(witness) == "01" * 1200
    with pytest.raises(ResourceLimitError):
        cover_verdict(f, decision_budget=1199)


def test_cover_verdict_on_long_implication_chain():
    assert cover_verdict(implication_chain(3000))[:2] == (True, None)


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
            clauses.append(Clause(lits))
            if rng.random() < 0.3:
                clauses.append(clauses[-1])  # duplicate
        f = CnfFormula(n, tuple(clauses), empty_clause_count=int(rng.random() < 0.1))
        covered, witness, _ = cover_verdict(f)
        assert covered == (brute_force(f).verdict == "UNSAT")
        assert covered or witness.satisfies(f)


def test_cover_verdict_decision_budget():
    php = pigeonhole(6)
    with pytest.raises(ResourceLimitError):
        cover_verdict(php, decision_budget=1)
    assert cover_verdict(php)[:2] == (True, None)


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
    covered, found, _ = cover_verdict(f, decision_budget=decisions)
    assert covered == (witness is None)
    assert model_bits(found) == witness
    with pytest.raises(ResourceLimitError):
        cover_verdict(f, decision_budget=decisions - 1)


def test_cover_counters():
    covered, _, stats = cover_verdict(independent_pairs(1200))
    assert covered is False
    assert stats == {"decisions": 1200, "propagations": 1200}
    # the unit x1 forces x2..x5, and x5 meets the unit -x5
    assert cover_verdict(implication_chain(5)) == (
        True, None, {"decisions": 0, "propagations": 5}
    )
    covered, _, stats = cover_verdict(CnfFormula(2, (), empty_clause_count=1))
    assert covered
    assert stats == {"decisions": 0, "propagations": 0}
    with pytest.raises(ResourceLimitError):
        cover_verdict(pigeonhole(6), decision_budget=1)


def _assert_cover_matches_reference(f):
    """Same witness, decisions and propagations as the frozen reference."""
    witness, decisions, propagations = reference_cover(f)
    covered, found, stats = cover_verdict(f)
    assert covered == (witness is None)
    assert (found and tuple(-1 if v else 1 for v in found.values)) == witness
    assert stats == {"decisions": decisions, "propagations": propagations}


def _clustered_tie_formula(rng, n):
    """Random 3-SAT over the variables within four places of every multiple
    of 64 below n, and of n, plus pairs (a b)(-a -b) across each multiple,
    so that the heaviest weights often tie on both sides of a pick: the
    cover search's bound then finds a tie past the pick through ``start``
    and one below it only after ``top`` drops.  About a third of the core
    variables keep one sign, so one side of a branching there kills no
    pattern."""
    edges = list(range(64, n, 64)) + [n]
    core = sorted({v for e in edges for v in range(e - 3, e + 5) if 1 <= v <= n})
    keep = {v: rng.choice((v, -v)) for v in core if rng.random() < 0.3}
    ratio = rng.choice((2.0, 3.5, 4.26, 5.0))
    clauses = [
        [keep.get(v, v if rng.random() < 0.5 else -v) for v in rng.sample(core, 3)]
        for _ in range(round(ratio * len(core)))
    ]
    for e in edges[:-1]:
        clauses += [(e, e + 1), (-e, -(e + 1))]
    rng.shuffle(clauses)
    return formula_from_ints(n, clauses)


def _star_formula(rng, n):
    """Clauses that all hold the hub variable, with one or two spokes: the
    hub outweighs every other position until it is set.  In half of them
    the hub and each spoke keep one sign, so a branching may kill no
    pattern."""
    hub = rng.randint(1, n)
    spokes = [v for v in range(1, n + 1) if v != hub]
    bias = rng.choice((0.5, 1.0))
    keep = {v: rng.choice((1, -1)) for v in range(1, n + 1)}
    clauses = []
    for _ in range(rng.randint(n, 3 * n)):
        lits = [v if rng.random() < 0.5 else -v
                for v in [hub] + rng.sample(spokes, rng.randint(1, 2))]
        if bias == 1.0:
            lits = [keep[abs(l)] * abs(l) for l in lits]
        clauses.append(lits)
    return formula_from_ints(n, clauses)


def _renamed_pairs(rng, k):
    f = independent_pairs(k)
    name = list(range(1, f.n + 1))
    rng.shuffle(name)
    return formula_from_ints(
        f.n, [[name[abs(l) - 1] * (1 if l > 0 else -1) for l in c] for c in f.clauses]
    )


def _reference_corpus(rng):
    """1,063 seeded formulas for the cover reference test."""
    for i in range(400):
        yield _clustered_tie_formula(rng, (63, 64, 65, 128, 129)[i % 5])
    for _ in range(200):
        yield corpus_formula(rng)
    for _ in range(100):
        yield _star_formula(rng, rng.choice((8, 40, 63, 64, 65, 129)))
    for _ in range(100):
        n = rng.randint(2, 40)
        yield wide_clauses(rng, n, rng.randint(1, 2 * n))
    for _ in range(100):
        yield random_3sat(rng, 26, round(4.26 * 26))
    for _ in range(100):
        yield planted_3sat(rng, rng.randint(20, 40))
    for holes in (2, 3, 4) * 15 + (5,) * 5:
        yield renamed_pigeonhole(rng, holes)
    for _ in range(10):
        yield _renamed_pairs(rng, 40)
    for k in (40, 100, 1200):
        yield independent_pairs(k)


def _backtrack_formula(n, extra):
    """Position 0 is the first branching.  At +1 it leaves all four patterns
    over positions 1 and 2, which cover every branch below; at -1 it kills
    them.  *extra* adds patterns as ``{position: sign}``."""
    core = [{0: 1, 1: s1, 2: s2} for s1 in (1, -1) for s2 in (1, -1)]
    return formula_from_ints(
        n, [[(q + 1) * s for q, s in p.items()] for p in core + extra]
    )


# Once the +1 side of position 0 is covered, the heaviest position is one
# whose weight only the backtrack raised again, above every weight the +1
# side left.  "restored": five patterns through position 128 that the +1
# side killed come back.  "unassigned": position 64 was assigned on the +1
# side by a flip that killed no pattern.  In both, the bound pushed at
# position 0 matches nothing after the -1 side, and the pick falls back to
# the largest weight.  "outweighed": the +1 side leaves top 4 and start 2;
# then position 4 weighs 5 and position 5, past that start, weighs 4, so a
# pick that kept the +1 side's bound in place of the one pushed at position
# 0 would take position 5.
BACKTRACK_BOUNDS = {
    "restored": (129, [{0: -1, 128: 1, 3 + i: 1} for i in range(5)]),
    "unassigned": (
        65,
        [{0: -1, 3 + 2 * i: 1, 4 + 2 * i: 1} for i in range(2)]
        + [{64: -1, 7 + 2 * i: 1, 8 + 2 * i: 1} for i in range(5)],
    ),
    "outweighed": (6, [{0: -1, 4: 1, 5: 1}, {0: -1, 4: -1, 5: 1},
                       {0: -1, 4: 1, 5: -1}, {0: -1, 4: -1, 3: 1},
                       {0: -1, 4: 1, 3: -1}, {0: -1, 5: -1, 3: 1}]),
}


@pytest.mark.parametrize("case", list(BACKTRACK_BOUNDS))
def test_cover_pick_resumes_the_bound_a_branching_pushed(case):
    n, extra = BACKTRACK_BOUNDS[case]
    _assert_cover_matches_reference(_backtrack_formula(n, extra))


def test_cover_pick_rescans_from_position_0_when_top_drops():
    # The first pick is position 2 (weight 3, tied with position 4).  Its +1
    # side kills the first pattern, so no weight stays at 3, and the
    # heaviest is then position 0 (weight 2), below the pick; position 3,
    # past the pick, also weighs 2.  The pick after it must be position 0.
    patterns = [{2: -1, 4: 1, 5: 1}, {2: 1, 0: 1, 3: 1},
                {2: 1, 4: -1, 1: 1}, {0: -1, 4: 1, 3: -1}]
    f = formula_from_ints(6, [[(q + 1) * s for q, s in p.items()] for p in patterns])
    assert reference_cover(f) == ((1, 1, 1, -1, 1, 1), 3, 2)
    _assert_cover_matches_reference(f)


def test_cover_walk_finishes_its_decrements_past_a_cover():
    # The first branching sets position 0 to +1; "cover" and "a" then queue
    # position 1 at -1 and at +1, and +1 comes off the queue first.  Its
    # occurrence list holds "unit", which it leaves with one slot, "cover",
    # whose slots then all agree, and "after".  On the -1 side of position 0,
    # "c" forces position 1 to +1 again, and "after" must then force
    # position 3: a walk that stopped at "cover" would leave "after" one
    # count too high once the undo had added its 1 back.
    patterns = [
        {0: 1, 4: 1}, {0: 1, 4: -1},  # keep position 0 as heavy as 1
        {1: 1, 2: 1},  # unit
        {0: 1, 1: 1},  # cover
        {1: 1, 3: 1},  # after
        {0: 1, 1: -1},  # a
        {0: -1, 1: -1},  # c
    ]
    f = formula_from_ints(5, [[(q + 1) * s for q, s in p.items()] for p in patterns])
    assert reference_cover(f) == ((-1, 1, -1, -1, 1), 1, 4)
    _assert_cover_matches_reference(f)


def test_cover_matches_reference_on_binary_corpus():
    # two-slot patterns carry the pigeonhole time
    rng = random.Random(2022)
    for _ in range(3000):
        _assert_cover_matches_reference(binary_corpus_formula(rng))


def test_cover_matches_reference_on_seeded_corpus():
    count = 0
    for f in _reference_corpus(random.Random(1801)):
        _assert_cover_matches_reference(f)
        count += 1
    assert count == 1063


@given(formulas())
@settings(max_examples=200)
def test_cover_verdict_matches_brute_force(f):
    covered, witness, _ = cover_verdict(f)
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
    clause = Clause(tuple(v if s else -v for v, s in zip(vs, signs)))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    a = Assignment.from_mask(mask, n)
    compatible(clause, a, verify=True)  # raises on any divergence
