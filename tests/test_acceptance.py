"""Acceptance gate: ten checks at full scale, each against an independent
reference (tests/oracle_reference.py, tests/algebra_reference.py,
tests/plane_reference.py).

Each check raises AssertionError on failure and returns a short stats
string.  Each test prints one visible line, "ACCEPTANCE <name>: PASS" or
"... FAIL (reason)", bypassing capture so the summary survives in logs."""

import itertools
import time

import numpy as np
import pytest

from wittsat.algebra import D_ID, D_PQ, D_QP
from wittsat.cnf import Assignment, Clause, CnfFormula
from wittsat.encoding import (
    TermBudgetError,
    algebra_models,
    encode_formula,
    models,
    slab_walk,
)
from wittsat.geometry import cover_verdict, formula_patterns, sign_text
from wittsat.oracle import dpll
from wittsat.ortho import (
    NonTransversalError,
    haar_samples,
    orthogonal_cover_report,
    rebase_residuals,
    witt_rebase,
)

from algebra_reference import (
    CheckedElement,
    EFBTerm,
    NullVector,
    diag_mul,
    eval_at,
    mtnp_of_spinor,
    vector_action,
)
from formula_helpers import (
    clause_universe,
    formula_from_ints,
    random_clause,
    random_formula,
)
from oracle_reference import UNSAT, GammaRep, brute_force
from plane_reference import (
    check_intersection,
    compatible,
    falsified_by,
    intersect_dim,
    matches,
    mtnp_from_isometry,
    strict_membership,
)


def _table_unsat(f: CnfFormula) -> bool:
    """The algebraic verdict: the product's value table has no set cell."""
    return next(slab_walk(f), None) is None


def check_unsat_equivalence(n3_cases: int = 1000, seed: int = 101) -> str:
    """Algebraic verdict equals the truth table: exhaustively over every
    clause subset on two variables, then on seeded three-variable formulas."""
    t0 = time.perf_counter()
    universe = clause_universe(2)
    assert len(universe) == 8
    for mask in range(1 << len(universe)):
        chosen = [c for i, c in enumerate(universe) if (mask >> i) & 1]
        f = formula_from_ints(2, chosen)
        assert _table_unsat(f) == (brute_force(f).verdict == UNSAT)
    rng = np.random.default_rng(seed)
    for _ in range(n3_cases):
        f = random_formula(rng, 3, int(rng.integers(1, 5)))
        assert _table_unsat(f) == (brute_force(f).verdict == UNSAT)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    return f"256 exhaustive + {n3_cases} seeded formulas, {elapsed:.1f}s"


def check_route_agreement(cases: int = 500, seed: int = 102) -> str:
    """Three independent verdict routes agree on seeded 3-SAT at n=12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    unsat_count = 0
    for _ in range(cases):
        m = int(rng.integers(12, 61))
        f = random_formula(rng, 12, m, max_width=3)
        algebraic = _table_unsat(f)
        covered, witness, _ = cover_verdict(f)
        solver = dpll(f)[0]
        assert algebraic == covered == solver, f"routes diverge on {f}"
        if witness is not None:
            assert witness.satisfies(f)
        unsat_count += algebraic
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"
    return f"{cases} instances ({unsat_count} unsat), {elapsed:.1f}s"


def check_model_sets(cases: int = 200, seed: int = 103) -> str:
    """The models read off the encoded product are exactly the brute-force
    models, from the value table and, where a pattern budget one below 2^n
    holds the sparse product, from the cofactor walk."""
    rng = np.random.default_rng(seed)
    walked = 0
    for _ in range(cases):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(0, 3 * n + 1))
        f = random_formula(rng, n, m)
        expected = set(brute_force(f).models)
        count, listed = algebra_models(f, None, 1 << n)
        assert count == len(expected) and set(listed or ()) == expected
        try:
            sparse = encode_formula(f, term_budget=(1 << n) - 1)
        except TermBudgetError:
            continue
        assert models(sparse) == expected
        walked += 1
    assert walked > 0, "no sparse product fit its pattern budget"
    return f"{cases} seeded instances, n <= 10, {walked} walked sparse"


def _random_element(rng: np.random.Generator, n: int) -> CheckedElement:
    terms: dict[int, int] = {}
    for _ in range(int(rng.integers(1, 5))):
        pat = 0
        for i in range(n):
            pat |= int(rng.choice((D_QP, D_PQ, D_ID))) << (2 * i)
        c = int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
        terms[pat] = terms.get(pat, 0) + c
    return CheckedElement(n, terms)


def check_matrix_backend(pairs: int = 1000, seed: int = 104) -> str:
    """Exact matrix image: generator relations, product homomorphism, and
    evaluations equal to diagonal entries, all with zero tolerance."""
    reps = {n: GammaRep(n) for n in range(1, 5)}
    for rep in reps.values():
        assert rep.check_generator_relations()
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        n = int(rng.integers(1, 5))
        rep = reps[n]
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        ma, mb = rep.matrix_of(a), rep.matrix_of(b)
        assert np.array_equal(rep.matrix_of(diag_mul(a, b)), np.dot(ma, mb))
        for mask in range(1 << n):
            sigma = Assignment.from_mask(mask, n)
            idx = sigma.primitive_index()
            assert ma[idx, idx] == eval_at(a, sigma)
    return f"relations n<=4 + {pairs} product/evaluation pairs, exact"


def check_annihilation_planes() -> str:
    """For every basis term at n=3: a null vector kills it from the left
    exactly when the vector lies in the term's plane, per the symbols and per
    the matrix backend, and surviving actions match matrices exactly."""
    n = 3
    rep = GammaRep(n)
    vectors = [NullVector(i, k) for i in range(1, n + 1) for k in ("p", "q")]
    checked = 0
    for bits in range(1 << (2 * n)):
        term = EFBTerm(n, bits, 1)
        plane = set(mtnp_of_spinor(term))
        term_matrix = rep.matrix_of(term)
        for v in vectors:
            acted = vector_action(v, term)
            symbolic_zero = acted is None
            assert symbolic_zero == (v in plane)
            product = np.dot(rep.matrix_of(v), term_matrix)
            assert symbolic_zero == (not product.any())
            if acted is not None:
                assert np.array_equal(product, rep.matrix_of(acted))
            checked += 1
    return f"{checked} vector/term actions at n=3, symbolic == matrix"


def check_clause_plane_intersection(cases: int = 200, seed: int = 106) -> str:
    """The expansion planes of a narrow clause meet exactly in its plane."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, n - 2))
        clause = Clause(random_clause(rng, n, k))
        assert check_intersection(clause, n)
    return f"{cases} seeded clauses with width < n-2, n <= 8"


def check_cover_equivalence(
    sampled_per_n: int = 5000, seed: int = 107, minimum: int = 10_000
) -> str:
    """Pattern cover of the sign hypercube == unsatisfiability, exhaustively
    for tiny variable counts and on seeded families above that."""
    total = 0
    for n in (1, 2):
        universe = clause_universe(n)
        for mask in range(1 << len(universe)):
            chosen = [c for i, c in enumerate(universe) if (mask >> i) & 1]
            f = formula_from_ints(n, chosen)
            total += _assert_cover_matches(f)
    rng = np.random.default_rng(seed)
    for n in (3, 4):
        for _ in range(sampled_per_n):
            m = int(rng.integers(0, 4 * n + 1))
            f = random_formula(rng, n, m, max_width=n)
            total += _assert_cover_matches(f)
    assert total >= minimum, f"only {total} formulas exercised"
    return f"{total} formulas, covers == UNSAT with verified witnesses"


def _assert_cover_matches(f: CnfFormula) -> int:
    covered, witness, _ = cover_verdict(f)
    assert covered == (brute_force(f).verdict == UNSAT)
    if not covered:
        assert witness.satisfies(f)
    return 1


def check_witt_rebase(pairs_per_n: int = 100, seed: int = 108) -> str:
    """Transversal graph planes rebase to a Witt pair within 1e-9; meeting
    planes are rejected with the exact intersection dimension."""
    accepted = 0
    for n in range(2, 7):
        rng = np.random.default_rng(seed + n)
        count = 0
        while count < pairs_per_n:
            t1, t2 = haar_samples(n, 2, rng)
            try:
                p_rows, q_rows, pairing = witt_rebase(t1, t2)
            except NonTransversalError:
                continue
            res = {"pairing": pairing, **rebase_residuals(p_rows, q_rows, t2)}
            assert max(res.values()) <= 1e-9, f"residuals {res} at n={n}"
            count += 1
            accepted += 1
        for r in range(1, n + 1):
            t1 = haar_samples(n, 1, rng)[0]
            flip = np.diag([1.0] * r + [-1.0] * (n - r))
            t2 = t1 @ flip
            assert intersect_dim(mtnp_from_isometry(t1), mtnp_from_isometry(t2)) == r
            try:
                witt_rebase(t1, t2)
            except NonTransversalError as e:
                assert e.intersection_dim == r
                assert str(r) in str(e)
            else:
                raise AssertionError(f"rebase accepted a pair meeting in dim {r}")
    return f"{accepted} transversal pairs over n=2..6, residuals <= 1e-9"


def check_group_sampling(samples: int = 1000, seed: int = 109) -> str:
    """Deterministic sampling report on a fixed unsatisfiable instance:
    discrete cover holds and agrees with brute force, strict membership of
    continuous samples is the measure-zero control, and at this odd n almost
    every sample rebases against a coordinate plane."""
    clauses = list(itertools.product((1, -1), repeat=3))
    f = formula_from_ints(3, [tuple(s * v for v, s in zip((1, 2, 3), signs))
                                 for signs in clauses])
    report = orthogonal_cover_report(f, samples, seed)
    again = orthogonal_cover_report(f, samples, seed)
    assert report == again, "report is not deterministic for a fixed seed"
    assert report["discrete_cover"] is True
    assert report["discrete_cover"] == (brute_force(f).verdict == UNSAT)
    assert report["strict_fraction"] == 0.0
    assert report["transversal_fraction"] >= 0.99
    return (
        f"{samples} samples: strict={report['strict_fraction']:.3f}, "
        f"rebasable={report['transversal_fraction']:.3f}"
    )


def check_compatibility_triangle(max_n: int = 4) -> str:
    """The three falsification readings agree on every clause/assignment
    pair, and match the sign-pattern test and strict membership in the
    assignment's diagonal isometry, exhaustively for n <= 4."""
    pairs = 0
    for n in range(1, max_n + 1):
        for ints in clause_universe(n):
            clause = Clause(ints)
            pattern = formula_patterns(formula_from_ints(n, [ints]))[0]
            for mask in range(1 << n):
                a = Assignment.from_mask(mask, n)
                agreed = compatible(clause, a, verify=True)
                assert agreed == falsified_by(clause, a)
                signs = sign_text(a)
                assert agreed == matches(signs, pattern)
                t = np.diag([1.0 if e == "+" else -1.0 for e in signs])
                assert agreed == strict_membership(t, clause)
                pairs += 1
    return (f"{pairs} clause/assignment pairs, three definitions + patterns "
            "+ strict membership")


CHECKS = {
    "unsat-equivalence": check_unsat_equivalence,
    "route-agreement": check_route_agreement,
    "model-sets": check_model_sets,
    "matrix-backend": check_matrix_backend,
    "annihilation-planes": check_annihilation_planes,
    "clause-plane-intersection": check_clause_plane_intersection,
    "cover-equivalence": check_cover_equivalence,
    "witt-rebase": check_witt_rebase,
    "group-sampling": check_group_sampling,
    "compatibility-triangle": check_compatibility_triangle,
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name, capsys):
    try:
        info = CHECKS[name]()
    except AssertionError as e:
        with capsys.disabled():
            print(f"\nACCEPTANCE {name}: FAIL ({e})")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: PASS ({info})")
