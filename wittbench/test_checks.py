"""Known answers for the benchmark's own generators and checkers.

    python3 -m pytest wittbench/test_checks.py -q
"""

import numpy as np
import pytest

import checks
import instances as gen


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_independent_pairs_have_two_to_the_k_models(k):
    n, clauses = gen.independent_pairs(k)
    count, models = checks.truth_table(n, clauses, keep=1 << k)
    assert count == len(models) == 2**k
    assert all(checks.satisfies(clauses, m) for m in models)
    assert checks.satisfies(clauses, checks.solve(n, clauses))


def test_solve_does_not_recurse_on_many_pairs():
    n, clauses = gen.independent_pairs(1200)
    assert checks.satisfies(clauses, checks.solve(n, clauses))


@pytest.mark.parametrize("holes", [2, 3])
def test_pigeonhole_is_unsat_by_truth_table(holes):
    n, clauses = gen.pigeonhole(holes)
    assert checks.truth_table(n, clauses, keep=0)[0] == 0


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_pigeonhole_is_unsat_by_solve(seed):
    rng = None if seed is None else np.random.default_rng(seed)
    n, clauses = gen.pigeonhole(4, rng)
    assert n == 20 and len(clauses) == 5 + 4 * 10
    assert checks.solve(n, clauses) is None


@pytest.mark.parametrize("seed", range(5))
def test_planted_models_are_found_and_verified(seed):
    rng = np.random.default_rng(seed)
    clauses = gen.planted_3sat(rng, 40, 170)
    model = checks.solve(40, clauses)
    assert model is not None and checks.satisfies(clauses, model)
    small = gen.planted_3sat(rng, 12, 51)
    assert checks.truth_table(12, small, keep=0)[0] >= 1


def test_all_sign_family_is_unsat():
    clauses = gen.all_sign(np.random.default_rng(0), 9)
    assert len(clauses) == 8 + 9
    assert checks.truth_table(9, clauses, keep=0)[0] == 0


def test_solve_agrees_with_truth_table_on_random_3sat():
    rng = np.random.default_rng(7)
    for _ in range(40):
        clauses = gen.random_3sat(rng, 10, 45)
        count, _ = checks.truth_table(10, clauses, keep=0)
        model = checks.solve(10, clauses)
        assert (model is not None) == (count > 0)
        assert model is None or checks.satisfies(clauses, model)


def test_truth_table_lists_exact_models():
    # (x1 or x2) and (not x1): only x1 = false, x2 = true, x3 free
    count, models = checks.truth_table(3, [(1, 2), (-1,)], keep=10)
    assert count == 2
    assert sorted(models) == [(-1, 2, -3), (-1, 2, 3)]
    assert checks.truth_table(3, [(1, 2), (-1,)], keep=1) == (2, [])


def test_satisfies_reads_signed_literals():
    assert checks.satisfies([(1, -2)], [1, 2])
    assert not checks.satisfies([(1, -2)], [-1, 2])


@pytest.mark.parametrize("meet", [0, 1, 3])
def test_orthogonal_pairs_meet_in_the_stated_dimension(meet):
    t1, t2 = gen.orthogonal_pair(np.random.default_rng(meet), 9, meet)
    for t in (t1, t2):
        assert np.abs(t.T @ t - np.eye(9)).max() < 1e-12
    eig = np.linalg.eigvals(t1.T @ t2)
    assert int((np.abs(eig - 1) < 1e-6).sum()) == meet
    assert np.sort(np.abs(eig - 1))[meet] > 0.25


def test_witt_basis_errors_accepts_a_known_basis_and_rejects_a_wrong_one():
    n = 3
    eye = np.eye(n)
    p = np.hstack([eye, eye])  # graph plane of t1 = I
    q = np.hstack([eye, -eye]) / 4  # graph plane of t2 = -I, dual to p
    assert checks.witt_basis_errors(p, q, eye, -eye) == []
    assert checks.witt_basis_errors(p, 2 * q, eye, -eye)
    assert checks.witt_basis_errors(p, q, eye, eye)


def test_binomial_band_holds_one_half():
    low, high = checks.binomial_band(500)
    assert low < 0.5 < high and high - low < 0.25
