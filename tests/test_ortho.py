"""Floating-point geometry: orthogonal matrices, graph planes, Witt
rebasing, and the sampling report."""

import itertools
import json
import warnings

import numpy as np
import pytest

from wittsat.cli import main
from wittsat.cnf import (
    Assignment,
    Clause,
    CnfFormula,
    ResourceLimitError,
    TautologyError,
)
from wittsat.geometry import induced_pattern, mtnp_of_assignment
from wittsat.ortho import (
    NonOrthogonalMatrixError,
    NonTransversalError,
    NullFrame,
    OrthogonalMatrix,
    WittBasis,
    eigenvalue_one_multiplicity,
    haar_samples,
    matrices_from_text,
    matrix_to_text,
    mtnp_from_isometry,
    neutral_gram,
    orthogonal_cover_report,
    rebase_residuals,
    sample_orthogonal,
    witt_rebase,
    _solve_each,
)

from formula_helpers import clause_universe, random_clause
from oracle_reference import UNSAT, brute_force
from plane_reference import intersect_dim, matches, strict_membership


def test_orthogonal_matrix_validation():
    OrthogonalMatrix(2, [[0, 1], [1, 0]])
    with pytest.raises(NonOrthogonalMatrixError):
        OrthogonalMatrix(2, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        OrthogonalMatrix(2, [[1, 0, 0], [0, 1, 0]])
    flip = OrthogonalMatrix.from_array(np.diag([1, -1]))
    assert flip.n == 2 and np.array_equal(flip.entries, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_orthogonal_matrix_rejects_non_finite_entries(bad):
    # a NaN residual fails every comparison, so a tolerance test alone
    # must be written `not residual <= tol`; the error names the entry,
    # and no RuntimeWarning from the residual's matmul gets out
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonOrthogonalMatrixError, match=r"row 2, column 2"):
            OrthogonalMatrix.from_array([[1, 0], [0, bad]])


def test_haar_samples_reject_a_nan_residual(monkeypatch):
    # a sample the program drew is no user input: a defect, not bad input
    monkeypatch.setattr(
        np.linalg, "qr", lambda a: (np.full(a.shape, np.nan), np.ones(a.shape))
    )
    with pytest.raises(RuntimeError, match="orthogonality residual nan"):
        haar_samples(3, 2, np.random.default_rng(0))


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
        assert frame.vectors.shape == (n, 2 * n)
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
                t = OrthogonalMatrix.from_array(np.diag([float(e) for e in s.eps]))
                assert strict_membership(t, clause) == matches(s, pattern)


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
        OrthogonalMatrix(2, np.eye(2)), OrthogonalMatrix(2, -np.eye(2))
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


def test_strict_membership_error_cases():
    t = OrthogonalMatrix(2, np.eye(2))
    with pytest.raises(TautologyError):
        strict_membership(t, Clause.from_ints((1, -1)))
    with pytest.raises(ValueError):
        strict_membership(t, Clause.from_ints((3,)))
    with pytest.raises(ValueError):
        strict_membership(t, Clause.from_ints((1,)), tol=1.0)
    # diag(1, -1) holds x1 and -x2, so (x1 -x2) but not (x2)
    flip = OrthogonalMatrix.from_array(np.diag([1.0, -1.0]))
    assert strict_membership(flip, Clause.from_ints((1, -2)))
    assert not strict_membership(flip, Clause.from_ints((2,)))
    # a small rotation keeps its diagonal within tol of 1, but not its columns
    c, s = np.cos(1e-3), np.sin(1e-3)
    tilt = OrthogonalMatrix(2, [[c, -s], [s, c]])
    assert abs(c - 1.0) < 1e-6
    assert not strict_membership(tilt, Clause.from_ints((1,)))


def test_a_singular_pair_does_not_fail_the_stack():
    a = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    b = np.ones((3, 2, 4))
    x = _solve_each(a, b)
    assert np.array_equal(x[0], b[0]) and np.array_equal(x[2], b[2] / 2.0)
    assert np.isnan(x[1]).all()
    # NaN rows fail the Witt check instead of passing it
    with pytest.raises(ValueError):
        WittBasis(np.hstack([np.eye(2), np.eye(2)]), np.full((2, 4), np.nan))


def _reference_report(f: CnfFormula, samples: int, seed: int) -> dict:
    """The report by its definition: one Gaussian draw, one QR, one
    strict_membership per clause and one witt_rebase per reference plane at a
    time, and the discrete cover over every diagonal sign matrix.  Whether a
    sample meets a reference plane is decided here by a frozen eigvals test,
    not by witt_rebase, so the reference does not follow the code it checks."""
    n = f.n
    usable = [c for c in f.clauses if not c.is_tautological]
    discrete = f.has_empty_clause or all(
        any(strict_membership(OrthogonalMatrix.from_array(np.diag(signs)), c) for c in usable)
        for signs in itertools.product((1.0, -1.0), repeat=n)
    )
    rng = np.random.default_rng(seed)
    strict = rebased = p_side = 0
    references = (OrthogonalMatrix(n, np.eye(n)), OrthogonalMatrix(n, -np.eye(n)))
    for _ in range(samples):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        t = OrthogonalMatrix(n, q * d)
        strict += any(strict_membership(t, c) for c in usable)
        for side, reference in enumerate(references):
            m = reference.entries.T @ t.entries
            if (np.abs(np.linalg.eigvals(m) - 1.0) <= 1e-6).any():
                continue  # the q side is tried only after the p side meets
            try:
                witt_rebase(reference, t)
            except NonTransversalError as e:
                pytest.fail(f"witt_rebase rejects a sample found transversal: {e}")
            except ValueError:
                break
            rebased += 1
            p_side += side == 0
            break
    frac = (lambda k: k / samples) if samples else (lambda k: 0.0)
    return {
        "discrete_cover": discrete,
        "strict_fraction": frac(strict),
        "transversal_fraction": frac(rebased),
        "transversal_to_p_fraction": frac(p_side),
        "samples": samples,
        "seed": seed,
        "n": n,
    }


def _seeded_formula(rng: np.random.Generator, n: int, kind: int) -> CnfFormula:
    m = int(rng.integers(1, 4 * n + 2))
    clauses = [random_clause(rng, n, int(rng.integers(1, min(n, 3) + 1)))
               for _ in range(m)]
    if kind == 1 and n >= 2:
        clauses.append((1, -1, 2))  # tautological: ignored by the report
    if kind == 2 and n >= 3:  # every sign vector covered
        clauses[:0] = [(a, 2 * b, 3 * c)
                       for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    f = CnfFormula.from_ints(n, clauses)
    if kind == 3:
        f = CnfFormula(n, f.clauses, empty_clause_count=1)
    return f


def test_stacked_report_equals_the_per_matrix_definition():
    rng = np.random.default_rng(909)
    cases = []
    for n in range(2, 11):
        for kind in range(4):
            cases.append((_seeded_formula(rng, n, kind), 5, kind))
    # at n=1 every sample is +-1, so about half hold (x1)
    axis = CnfFormula.from_ints(1, [(1,)])
    assert 0 < orthogonal_cover_report(axis, 40, 3)["strict_fraction"] < 1
    cases.append((axis, 40, 3))
    # stacks past one chunk
    cases.append((CnfFormula.from_ints(2, [(1, 2), (-1,)]), 300, 4))
    cases.append((CnfFormula.from_ints(7, [(1, -2, 3), (-4,)]), 260, 5))
    cases.append((CnfFormula.from_ints(3, [(1, -1)]), 30, 6))  # nothing usable
    # at n=40 a stack holds fewer samples than at small n
    cases.append((CnfFormula.from_ints(40, [(-1, -2), (-3,)]), 170, 7))
    for f, samples, seed in cases:
        report = orthogonal_cover_report(f, samples, seed)
        assert report == _reference_report(f, samples, seed), (f, samples, seed)


def test_discrete_cover_is_the_unsat_verdict():
    rng = np.random.default_rng(910)
    verdicts = set()
    for n in range(1, 13):
        for kind in (0, 0, 2):
            f = _seeded_formula(rng, n, kind)
            unsat = brute_force(f).verdict == UNSAT
            assert orthogonal_cover_report(f, 0, 0)["discrete_cover"] == unsat
            verdicts.add(unsat)
    assert verdicts == {True, False}


def test_transversal_fraction_by_parity():
    # odd n: a sample has eigenvalue +1 or -1, set by its determinant, and
    # rebases against the other reference; even n: a det -1 sample has both
    for n in (7, 8, 9, 10):
        f = CnfFormula.from_ints(n, [(1, 2, 3)])
        frac = orthogonal_cover_report(f, 2000, 700 + n)["transversal_fraction"]
        if n % 2:
            assert frac >= 0.99
        else:
            assert abs(frac - 0.5) <= 0.05  # 4.5 standard deviations at p=1/2


def test_discrete_scan_budget_counts_visited_isometries():
    covered = CnfFormula.from_ints(
        4, [(a, 2 * b) for a in (1, -1) for b in (1, -1)]
    )
    assert orthogonal_cover_report(covered, 0, 0, scan_budget=16)["discrete_cover"]
    with pytest.raises(ResourceLimitError):
        orthogonal_cover_report(covered, 0, 0, scan_budget=15)
    # (x1) holds for the first four vectors of the scan, +-- order, and
    # fails at the fifth
    sat = CnfFormula.from_ints(3, [(1,)])
    assert orthogonal_cover_report(sat, 0, 0, scan_budget=5)["discrete_cover"] is False
    with pytest.raises(ResourceLimitError):
        orthogonal_cover_report(sat, 0, 0, scan_budget=4)
    # past 63 variables the leading positions read +1 for every vector the
    # scan can reach; (x100) fails first at the second vector
    wide = CnfFormula.from_ints(100, [(100,)])
    assert orthogonal_cover_report(wide, 0, 0, scan_budget=2)["discrete_cover"] is False
    with pytest.raises(ResourceLimitError):
        orthogonal_cover_report(wide, 0, 0, scan_budget=1)
    with pytest.raises(ResourceLimitError):
        orthogonal_cover_report(CnfFormula.from_ints(100, [(1,), (-1,)]), 0, 0,
                                scan_budget=5000)
    # an empty clause covers everything without a scan
    empty = CnfFormula(20, (), empty_clause_count=1)
    assert orthogonal_cover_report(empty, 0, 0, scan_budget=1)["discrete_cover"]


def _pre_stack_rebase(a1: np.ndarray, a2: np.ndarray) -> tuple[int, str, str]:
    """What the rebase command printed, and its exit code, when witt_rebase
    solved one pair at a time: the reference for its output."""
    t1 = OrthogonalMatrix.from_array(a1)
    t2 = OrthogonalMatrix.from_array(a2)
    n = t1.n
    m = t1.entries.T @ t2.entries
    r = int((np.abs(np.linalg.eigvals(m) - 1.0) <= 1e-6).sum())
    if r:
        return 1, "", f"not transversal: planes meet in dimension {r}\n"
    p_rows = np.hstack([np.eye(n), t1.entries.T])
    b_rows = np.hstack([np.eye(n), t2.entries.T])
    q_rows = np.linalg.solve((2.0 * (np.eye(n) - m)).T, b_rows)
    basis = WittBasis(p_rows, q_rows)
    payload = {
        "n": n,
        "residuals": rebase_residuals(basis, t1, t2),
        "p_rows": basis.p_vectors.tolist(),
        "q_rows": basis.q_vectors.tolist(),
    }
    return 0, json.dumps(payload, sort_keys=True) + "\n", ""


@pytest.mark.parametrize("n", [6, 129])
def test_rebase_json_is_unchanged_by_the_stacked_core(tmp_path, capsys, n):
    t1 = sample_orthogonal(n, seed=n)
    pairs = [(t1.entries, t1.entries @ np.diag([1.0] * r + [-1.0] * (n - r)))
             for r in (1, 2)]
    seed = 1000
    while len(pairs) < 4:  # two transversal pairs
        seed += 1
        t2 = sample_orthogonal(n, seed=seed).entries
        if eigenvalue_one_multiplicity(t1.entries.T @ t2) == 0:
            pairs.append((t1.entries, t2))
    codes = []
    for i, (a1, a2) in enumerate(pairs):
        path = tmp_path / f"pair{i}.txt"
        path.write_text(matrix_to_text(a1) + matrix_to_text(a2))
        code = main(["rebase", str(path), "--json"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == _pre_stack_rebase(a1, a2)
        codes.append(code)
    assert codes == [1, 1, 0, 0]


def _rotation(angle: float) -> np.ndarray:
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


def _boundary_matrix(rng: np.random.Generator, n: int, side: float,
                     factors: tuple[float, ...]) -> np.ndarray:
    """A Haar conjugate of a block-diagonal orthogonal matrix with one block
    side * R(theta) per factor f, where |lambda - side| = 2 sin(theta/2) is
    f * 1e-6 (VERIFY_TOL); rotations far from +-1 fill the rest, and at odd n a
    last entry -side."""
    d = np.zeros((n, n))
    i = 0
    for f in factors:
        d[i:i + 2, i:i + 2] = side * _rotation(2.0 * np.arcsin(f * 1e-6 / 2.0))
        i += 2
    for i in range(i, n - 1, 2):
        d[i:i + 2, i:i + 2] = _rotation(rng.uniform(0.5, np.pi - 0.5))
    if n % 2:
        d[n - 1, n - 1] = -side
    u = haar_samples(n, 1, rng)[0]
    return u @ d @ u.T


@pytest.mark.parametrize("n", [3, 7, 10, 14])
def test_eigenvalues_at_the_tolerance_boundary(monkeypatch, n):
    # eigenvalues at 0.99 and 1.01 tol from +1 or -1: the report's p/q flags
    # and eigenvalue_one_multiplicity follow a frozen eigvals classification
    import wittsat.ortho as ortho

    rng = np.random.default_rng(4400 + n)
    shapes = [(0.99,), (1.01,)] + ([(0.99, 1.01)] if n >= 4 else [])
    cases = [(side, factors) for side in (1.0, -1.0) for factors in shapes]
    stack = np.stack([_boundary_matrix(rng, n, *case) for case in cases])
    meets_p, meets_q = [], []
    for (side, factors), m in zip(cases, stack):
        lam = np.linalg.eigvals(m)
        plus = int((np.abs(lam - 1.0) <= 1e-6).sum())
        minus = int((np.abs(lam + 1.0) <= 1e-6).sum())
        near = 2 * factors.count(0.99)
        assert (plus, minus) == ((near, n % 2) if side > 0 else (n % 2, near))
        assert eigenvalue_one_multiplicity(m) == plus
        assert eigenvalue_one_multiplicity(-m) == minus
        meets_p.append(plus > 0)
        meets_q.append(minus > 0)
    meets_p, meets_q = np.array(meets_p), np.array(meets_q)

    tried = []
    rebased = ortho._rebased
    monkeypatch.setattr(ortho, "haar_samples", lambda n, count, rng: stack[:count])
    monkeypatch.setattr(ortho, "_rebased",
                        lambda sign, t: tried.append((sign, t)) or rebased(sign, t))
    orthogonal_cover_report(CnfFormula.from_ints(n, [(1,)]), len(stack), 0)
    (p_sign, p_tried), (q_sign, q_tried) = tried
    assert (p_sign, q_sign) == (1.0, -1.0)
    assert np.array_equal(p_tried, stack[~meets_p])
    assert np.array_equal(q_tried, stack[meets_p & ~meets_q])


def _meeting_pair(rng: np.random.Generator, n: int, r: int):
    """(t1, t2) whose graph planes meet in dimension r, with t2 moved off
    O(n) to an orthogonality residual of about 3e-11."""
    t1, u = haar_samples(n, 2, rng)
    core = np.eye(n)
    for i in range(r, n - 1, 2):
        core[i:i + 2, i:i + 2] = _rotation(rng.uniform(0.3, np.pi))
    if (n - r) % 2:
        core[n - 1, n - 1] = -1.0
    t2 = t1 @ u @ core @ u.T
    g = 1e-12 * rng.standard_normal((n, n))
    scale = 3e-11 / np.abs((t2 + g).T @ (t2 + g) - np.eye(n)).max()
    return t1, t2 + scale * g


@pytest.mark.parametrize("n", [9, 129])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_rebase_counts_a_meeting_within_the_input_tolerance(tmp_path, capsys, n, r):
    # user matrices need only be orthogonal within --tol (1e-9): a residual
    # of ~3e-11 moves the spectrum's symmetric part by more than tol^2 / 2
    t1, t2 = _meeting_pair(np.random.default_rng(5500 + 10 * n + r), n, r)
    residual = np.abs(t2.T @ t2 - np.eye(n)).max()
    assert 2e-11 <= residual <= 5e-11
    path = tmp_path / "pair.txt"
    path.write_text(matrix_to_text(t1) + matrix_to_text(t2))
    assert main(["rebase", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"not transversal: planes meet in dimension {r}\n"
    )


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_rebase_checks_the_basis_at_the_input_tolerance(tmp_path, capsys, n):
    # a transversal pair, its rotations at least 0.3 from the identity, with
    # 1e-7 added to every entry of the second matrix: orthogonal within
    # --tol 1e-5 but not within 1e-9, and so is its Witt basis.  It is
    # rebased and its residuals reported, not an internal error.
    t1, t2 = _meeting_pair(np.random.default_rng(6600 + n), n, 0)
    t2 = t2 + 1e-7
    path = tmp_path / "pair.txt"
    path.write_text(matrix_to_text(t1) + matrix_to_text(t2))
    assert main(["rebase", str(path), "--tol", "1e-5", "--json"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    residuals = json.loads(out.out)["residuals"]
    assert 1e-9 < residuals["pairing"] <= 1e-5
