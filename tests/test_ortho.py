"""Floating-point geometry: orthogonal matrices, graph planes, Witt
rebasing, and the sampling report."""

import numpy as np
import pytest

from wittsat.cnf import Assignment, Clause, CnfFormula
from wittsat.geometry import induced_pattern, mtnp_of_assignment
from wittsat.ortho import (
    NonOrthogonalMatrixError,
    NonTransversalError,
    NullFrame,
    OrthogonalMatrix,
    WittBasis,
    eigenvalue_one_multiplicity,
    intersect_dim,
    matrices_from_text,
    matrix_to_text,
    mtnp_from_isometry,
    neutral_gram,
    orthogonal_cover_report,
    rebase_residuals,
    sample_orthogonal,
    strict_membership,
    witt_rebase,
)
from wittsat.selftest import clause_universe


def test_orthogonal_matrix_validation():
    OrthogonalMatrix(2, [[0, 1], [1, 0]])
    with pytest.raises(NonOrthogonalMatrixError):
        OrthogonalMatrix(2, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        OrthogonalMatrix(2, [[1, 0, 0], [0, 1, 0]])
    assert OrthogonalMatrix.diagonal([1, -1]).det() == pytest.approx(-1.0)


def test_neutral_form_signs():
    # first block counts positively, second negatively
    e1_x = np.array([[1.0, 0.0, 0.0, 0.0]])
    e1_y = np.array([[0.0, 0.0, 1.0, 0.0]])
    assert neutral_gram(e1_x, e1_x)[0, 0] == 1.0
    assert neutral_gram(e1_y, e1_y)[0, 0] == -1.0
    assert neutral_gram(e1_x, e1_y)[0, 0] == 0.0


def test_graph_planes_are_null_of_full_dimension():
    for n in (1, 2, 4):
        t = sample_orthogonal(n, seed=5 + n)
        frame = mtnp_from_isometry(t)
        assert frame.dim == n and frame.ambient_n == n
        v = frame.vectors
        assert np.abs(neutral_gram(v, v)).max() <= 1e-6
    # a frame mixing the two blocks unevenly is not null
    v = NullFrame([[1.0, 0.0, 0.0, 0.0]]).vectors
    assert np.abs(neutral_gram(v, v)).max() > 1e-6


def test_intersection_dimensions_of_partial_flips():
    n = 4
    t1 = sample_orthogonal(n, seed=11)
    for r in range(n + 1):
        flip = np.diag([1.0] * r + [-1.0] * (n - r))
        t2 = OrthogonalMatrix(n, t1.entries @ flip)
        d = intersect_dim(mtnp_from_isometry(t1), mtnp_from_isometry(t2))
        assert d == r


def test_strict_membership_on_diagonals_is_pattern_match():
    for n in (2, 3):
        for ints in clause_universe(n):
            clause = Clause.from_ints(ints)
            pattern = induced_pattern(clause, n)
            for mask in range(1 << n):
                a = Assignment.from_mask(mask, n)
                s = mtnp_of_assignment(a)
                t = OrthogonalMatrix.diagonal([float(e) for e in s.eps])
                assert strict_membership(t, clause) == s.matches(pattern)


def test_strict_membership_fails_off_axis():
    c = np.cos(np.pi / 4)
    rot = OrthogonalMatrix(2, [[c, -c], [c, c]])
    assert not strict_membership(rot, Clause.from_ints((1,)))
    assert not strict_membership(rot, Clause.from_ints((-1, 2)))


def test_sampling_is_deterministic_and_orthogonal():
    a = sample_orthogonal(3, seed=42)
    b = sample_orthogonal(3, seed=42)
    assert np.array_equal(a.entries, b.entries)
    assert np.abs(a.entries.T @ a.entries - np.eye(3)).max() < 1e-12
    assert not np.array_equal(a.entries, sample_orthogonal(3, seed=43).entries)


def test_sampling_hits_both_determinant_classes_evenly():
    dets = [np.linalg.det(sample_orthogonal(3, seed=s).entries) for s in range(2000)]
    assert all(abs(abs(d) - 1.0) < 1e-10 for d in dets)
    plus = sum(d > 0 for d in dets) / len(dets)
    assert 0.44 < plus < 0.56


def test_eigenvalue_one_multiplicity_known_cases():
    assert eigenvalue_one_multiplicity(np.eye(3)) == 3
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert eigenvalue_one_multiplicity(rot90) == 0
    assert eigenvalue_one_multiplicity(np.diag([1.0, -1.0])) == 1


def test_rebase_of_opposite_reference_planes_is_the_split_basis():
    basis = witt_rebase(
        OrthogonalMatrix.identity(2), OrthogonalMatrix(2, -np.eye(2))
    )
    assert np.allclose(basis.p_vectors, np.array([[1, 0, 1, 0], [0, 1, 0, 1]]))
    assert np.allclose(
        basis.q_vectors, np.array([[0.25, 0, -0.25, 0], [0, 0.25, 0, -0.25]])
    )
    assert basis.pairing_residual() < 1e-15


def test_witt_basis_validation_and_coordinates():
    p = np.hstack([np.eye(2), np.eye(2)]) / 2.0
    q = np.hstack([np.eye(2), -np.eye(2)]) / 2.0
    basis = WittBasis(p, q)
    v = p[0] + 3.0 * q[1]
    alpha, beta = basis.coordinates(v[None, :])
    assert np.allclose(alpha, [[1.0, 0.0]])
    assert np.allclose(beta, [[0.0, 3.0]])
    with pytest.raises(ValueError):
        WittBasis(p, p)  # q side fails the pairing


def test_rebase_rejects_meeting_planes_with_dimension():
    t = sample_orthogonal(3, seed=9)
    with pytest.raises(NonTransversalError) as info:
        witt_rebase(t, t)
    assert info.value.intersection_dim == 3
    flip = OrthogonalMatrix(3, t.entries @ np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(NonTransversalError) as info2:
        witt_rebase(t, flip)
    assert info2.value.intersection_dim == 1


def test_rebase_residuals_are_tiny_for_random_transversal_pairs():
    done = 0
    seed = 0
    while done < 5:
        seed += 1
        t1 = sample_orthogonal(4, seed=seed)
        t2 = sample_orthogonal(4, seed=1000 + seed)
        try:
            basis = witt_rebase(t1, t2)
        except NonTransversalError:
            continue
        res = rebase_residuals(basis, t1, t2)
        assert max(res.values()) < 1e-9
        done += 1


def test_matrix_text_round_trip_and_errors():
    t = sample_orthogonal(3, seed=2)
    text = matrix_to_text(t) + matrix_to_text(np.eye(2))
    parsed = matrices_from_text(text)
    assert len(parsed) == 2
    assert np.array_equal(parsed[0], t.entries)
    assert np.array_equal(parsed[1], np.eye(2))
    for bad in ("", "2\n1 0 0 1 extra", "2\n1 0 0", "x\n1"):
        with pytest.raises(ValueError):
            matrices_from_text(bad)


def test_cover_report_on_satisfiable_formula():
    f = CnfFormula.from_ints(2, [(1,), (2,)])
    report = orthogonal_cover_report(f, samples=50, seed=3)
    assert report["discrete_cover"] is False
    assert report["strict_fraction"] == 0.0
    assert report["samples"] == 50 and report["n"] == 2
    assert 0.0 <= report["transversal_to_p_fraction"] <= report["transversal_fraction"] <= 1.0
    with pytest.raises(ValueError):
        orthogonal_cover_report(f, samples=-1, seed=0)


def test_cover_report_zero_samples_edge():
    f = CnfFormula.from_ints(1, [(1,), (-1,)])
    report = orthogonal_cover_report(f, samples=0, seed=0)
    assert report["discrete_cover"] is True
    assert report["strict_fraction"] == 0.0
    assert report["transversal_fraction"] == 0.0
