"""Floating-point geometry: orthogonal matrices, graph planes, Witt
rebasing, and the sampling report."""

import itertools
import json
import random
import warnings

import numpy as np
import pytest

from wittsat.cli import main
from wittsat.cnf import Assignment, Clause, CnfFormula, ResourceLimitError
from wittsat.geometry import cover_verdict, formula_patterns, sign_text
from wittsat.ortho import (
    CONSTRUCTION_TOL,
    NonOrthogonalMatrixError,
    NonTransversalError,
    _holds_some,
    checked_orthogonal,
    haar_samples,
    matrices_from_text,
    neutral_gram,
    orthogonal_cover_report,
    rebase_residuals,
    witt_rebase,
)

from formula_helpers import clause_universe, formula_from_ints, random_clause
from oracle_reference import UNSAT, brute_force
from plane_reference import (
    intersect_dim,
    matches,
    matrix_to_text,
    mtnp_from_isometry,
    sample_orthogonal,
    strict_membership,
)
from test_cnf import pigeonhole, random_3sat


def test_orthogonal_matrix_validation():
    # checked_orthogonal returns the user's matrix itself, made read-only
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert checked_orthogonal(swap, CONSTRUCTION_TOL) is swap
    assert not swap.flags.writeable
    with pytest.raises(NonOrthogonalMatrixError):
        checked_orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]), CONSTRUCTION_TOL)


@pytest.mark.parametrize("entries, message", [
    ([[np.nan]],
     "row 1, column 1 is nan; an orthogonal matrix has finite entries"),
    ([[1e200]],
     "orthogonality residual overflows: row 1, column 1 is 1e+200; an "
     "orthogonal matrix has entries in [-1, 1]"),
    ([[2.0]], "orthogonality residual 3.000e+00 exceeds 1.0e-09"),
], ids=["non-finite", "overflow", "past-tol"])
def test_orthogonal_matrix_messages(entries, message):
    with pytest.raises(NonOrthogonalMatrixError) as info:
        checked_orthogonal(np.array(entries), CONSTRUCTION_TOL)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_orthogonal_matrix_rejects_non_finite_entries(bad):
    # a NaN residual fails every comparison, so a tolerance test alone
    # must be written `not residual <= tol`; the error names the entry,
    # and no RuntimeWarning from the residual's matmul gets out
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonOrthogonalMatrixError, match=r"row 2, column 2"):
            checked_orthogonal(np.array([[1.0, 0.0], [0.0, bad]]),
                               CONSTRUCTION_TOL)


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
        v = mtnp_from_isometry(t)
        assert v.shape == (n, 2 * n)
        assert np.abs(neutral_gram(v, v)).max() <= 1e-6
    # a frame mixing the two blocks unevenly is not null
    v = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert np.abs(neutral_gram(v, v)).max() > 1e-6


def test_intersection_dimensions_of_partial_flips():
    n = 4
    t1 = sample_orthogonal(n, seed=11)
    for r in range(n + 1):
        flip = np.diag([1.0] * r + [-1.0] * (n - r))
        t2 = t1 @ flip
        d = intersect_dim(mtnp_from_isometry(t1), mtnp_from_isometry(t2))
        assert d == r


def test_strict_membership_on_diagonals_is_pattern_match():
    for n in (2, 3):
        for ints in clause_universe(n):
            clause = Clause(ints)
            pattern = formula_patterns(formula_from_ints(n, [ints]))[0]
            for mask in range(1 << n):
                s = sign_text(Assignment.from_mask(mask, n))
                t = np.diag([1.0 if e == "+" else -1.0 for e in s])
                assert strict_membership(t, clause) == matches(s, pattern)


def test_holds_some_counts_rows_with_every_literal_signed():
    clause = Clause((1, -3))
    rows = {
        "held": [1, 0, -1],
        "unsigned": [1, 0, 0],
        "flipped": [1, 0, 1],
        "all zero": [0, 0, 0],
    }
    for name, row in rows.items():
        signs = np.array([row], dtype=np.int8)
        assert _holds_some(signs, [clause]) == (name == "held"), name
    # two clauses, where only the second is held
    row = np.array([[1, -1, 0]], dtype=np.int8)
    assert _holds_some(row, [Clause((1, 3)), Clause((-2,))]) == 1
    assert _holds_some(row, [Clause((1, 3)), Clause((2,))]) == 0
    # a row counts once, however many clauses it holds
    signs = np.array([[1, -1, -1], [0, 0, 0], [1, 0, -1]], dtype=np.int8)
    assert _holds_some(signs, [Clause((1, -3)), Clause((-2,))]) == 2
    assert _holds_some(signs, []) == 0


def test_strict_membership_fails_off_axis():
    c = np.cos(np.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    assert not strict_membership(rot, Clause((1,)))
    assert not strict_membership(rot, Clause((-1, 2)))


def test_sampling_is_deterministic_and_orthogonal():
    a = sample_orthogonal(3, seed=42)
    b = sample_orthogonal(3, seed=42)
    assert np.array_equal(a, b)
    assert np.abs(a.T @ a - np.eye(3)).max() < 1e-12
    assert not np.array_equal(a, sample_orthogonal(3, seed=43))


def test_sampling_hits_both_determinant_classes_evenly():
    dets = [np.linalg.det(sample_orthogonal(3, seed=s)) for s in range(2000)]
    assert all(abs(abs(d) - 1.0) < 1e-10 for d in dets)
    plus = sum(d > 0 for d in dets) / len(dets)
    assert 0.44 < plus < 0.56


def _meeting_dimension(m: np.ndarray) -> int:
    """The dimension in which witt_rebase finds the planes of I and m to
    meet, 0 when it rebases them."""
    try:
        witt_rebase(np.eye(len(m)), m)
    except NonTransversalError as e:
        return e.intersection_dim
    return 0


def test_meeting_dimension_known_cases():
    assert _meeting_dimension(np.eye(3)) == 3
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert _meeting_dimension(rot90) == 0
    assert _meeting_dimension(np.diag([1.0, -1.0])) == 1


def test_rebase_of_opposite_reference_planes_is_the_split_basis():
    p_rows, q_rows, residual = witt_rebase(np.eye(2), -np.eye(2))
    assert np.allclose(p_rows, np.array([[1, 0, 1, 0], [0, 1, 0, 1]]))
    assert np.allclose(
        q_rows, np.array([[0.25, 0, -0.25, 0], [0, 0.25, 0, -0.25]])
    )
    assert residual < 1e-15


def test_witt_basis_validation_keeps_its_residual():
    # witt_rebase returns the Witt residual it checked the basis with: past
    # zero for an input 2e-10 off O(2), within the bound at tol 1e-9
    import wittsat.ortho as ortho

    t2 = -np.eye(2) + 1e-10
    p_rows, q_rows, residual = witt_rebase(np.eye(2), t2)
    assert residual == float(ortho._witt_residual(p_rows, q_rows))
    assert 0.0 < residual <= CONSTRUCTION_TOL


def test_rebase_rejects_meeting_planes_with_dimension():
    t = sample_orthogonal(3, seed=9)
    with pytest.raises(NonTransversalError) as info:
        witt_rebase(t, t)
    assert info.value.intersection_dim == 3
    flip = t @ np.diag([1.0, -1.0, -1.0])
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
            p_rows, q_rows, pairing = witt_rebase(t1, t2)
        except NonTransversalError:
            continue
        res = rebase_residuals(p_rows, q_rows, t2)
        assert max(pairing, *res.values()) < 1e-9
        done += 1


def test_matrix_text_round_trip_and_errors():
    t = sample_orthogonal(3, seed=2)
    text = matrix_to_text(t) + matrix_to_text(np.eye(2))
    parsed = matrices_from_text(text)
    assert len(parsed) == 2
    assert np.array_equal(parsed[0], t)
    assert np.array_equal(parsed[1], np.eye(2))
    for bad in ("", "2\n1 0 0 1 extra", "2\n1 0 0", "x\n1"):
        with pytest.raises(ValueError):
            matrices_from_text(bad)


def test_cover_report_on_satisfiable_formula():
    f = formula_from_ints(2, [(1,), (2,)])
    report = orthogonal_cover_report(f, samples=50, seed=3)
    assert report["discrete_cover"] is False
    assert report["strict_fraction"] == 0.0
    assert report["samples"] == 50 and report["n"] == 2
    assert 0.0 <= report["transversal_to_p_fraction"] <= report["transversal_fraction"] <= 1.0


def test_cover_report_zero_samples_edge():
    f = formula_from_ints(1, [(1,), (-1,)])
    report = orthogonal_cover_report(f, samples=0, seed=0)
    assert report["discrete_cover"] is True
    assert report["strict_fraction"] == 0.0
    assert report["transversal_fraction"] == 0.0


def test_strict_membership_error_cases():
    t = np.eye(2)
    with pytest.raises(ValueError, match="tautological"):
        strict_membership(t, Clause((1, -1)))
    with pytest.raises(ValueError):
        strict_membership(t, Clause((3,)))
    # diag(1, -1) holds x1 and -x2, so (x1 -x2) but not (x2)
    flip = np.diag([1.0, -1.0])
    assert strict_membership(flip, Clause((1, -2)))
    assert not strict_membership(flip, Clause((2,)))
    # a small rotation keeps its diagonal within tol of 1, but not its columns
    c, s = np.cos(1e-3), np.sin(1e-3)
    tilt = np.array([[c, -s], [s, c]])
    assert abs(c - 1.0) < 1e-6
    assert not strict_membership(tilt, Clause((1,)))


def test_nan_q_rows_fail_the_witt_check(monkeypatch):
    # a NaN residual fails every comparison, so the check must be written
    # `not residual <= bound` to reject it instead of passing it
    import wittsat.ortho as ortho

    solve = ortho._rebase_stack

    def nan_q_rows(*args):
        p_rows, q_rows = solve(*args)
        return p_rows, np.full(q_rows.shape, np.nan)

    monkeypatch.setattr(ortho, "_rebase_stack", nan_q_rows)
    with pytest.raises(ValueError, match="^Witt pairing residual nan exceeds "):
        witt_rebase(np.eye(2), -np.eye(2))


def _reference_report(f: CnfFormula, samples: int, seed: int) -> dict:
    """The report by its definition: one Gaussian draw, one QR, one
    strict_membership per clause and one witt_rebase per reference plane at a
    time, and the discrete cover over every diagonal sign matrix.  Whether a
    sample meets a reference plane is decided here by a frozen eigvals test,
    not by witt_rebase, so the reference does not follow the code it checks."""
    n = f.n
    usable = [c for c in f.clauses if not c.is_tautological]
    discrete = f.has_empty_clause or all(
        any(strict_membership(np.diag(signs), c) for c in usable)
        for signs in itertools.product((1.0, -1.0), repeat=n)
    )
    rng = np.random.default_rng(seed)
    strict = rebased = p_side = 0
    references = (np.eye(n), -np.eye(n))
    for _ in range(samples):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        t = q * d
        strict += any(strict_membership(t, c) for c in usable)
        for side, reference in enumerate(references):
            m = reference.T @ t
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
    f = formula_from_ints(n, clauses)
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
    axis = formula_from_ints(1, [(1,)])
    assert 0 < orthogonal_cover_report(axis, 40, 3)["strict_fraction"] < 1
    cases.append((axis, 40, 3))
    cases.append((formula_from_ints(2, [(1, 2), (-1,)]), 300, 4))
    cases.append((formula_from_ints(7, [(1, -2, 3), (-4,)]), 260, 5))
    cases.append((formula_from_ints(3, [(1, -1)]), 30, 6))  # nothing usable
    # a stack holds 2^18 entries: 495 samples at n=23 and 163 at n=40, so
    # these reports span two stacks; all +1 holds neither formula's clauses,
    # so the reference's scan of 2^n sign vectors stops at its first
    cases.append((formula_from_ints(23, [(-1, 2), (-5,)]), 600, 8))
    cases.append((formula_from_ints(40, [(-1, -2), (-3,)]), 170, 7))
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
        f = formula_from_ints(n, [(1, 2, 3)])
        frac = orthogonal_cover_report(f, 2000, 700 + n)["transversal_fraction"]
        if n % 2:
            assert frac >= 0.99
        else:
            assert abs(frac - 0.5) <= 0.05  # 4.5 standard deviations at p=1/2


def test_discrete_cover_budget_counts_cover_decisions():
    # the budget is the cover search's: the report answers at exactly the
    # decisions the search makes and raises one below, on PHP, random
    # ratio-6 and satisfiable formulas past any 2^n scan
    rng = random.Random(36)
    formulas = [pigeonhole(4), pigeonhole(5), random_3sat(rng, 30, 180),
                random_3sat(rng, 40, 240), formula_from_ints(100, [(100,)]),
                random_3sat(rng, 60, 120)]
    for f in formulas:
        covered, _, counters = cover_verdict(f)
        decisions = counters["decisions"]
        assert orthogonal_cover_report(f, 0, 0, budget=decisions)["discrete_cover"] is covered
        if decisions:
            with pytest.raises(ResourceLimitError, match="cover search exceeded"):
                orthogonal_cover_report(f, 0, 0, budget=decisions - 1)
    assert {cover_verdict(f)[0] for f in formulas} == {True, False}
    # an empty clause covers everything without a search
    empty = CnfFormula(20, (), empty_clause_count=1)
    assert orthogonal_cover_report(empty, 0, 0, budget=1)["discrete_cover"]


def _pre_stack_rebase(a1: np.ndarray, a2: np.ndarray) -> tuple[int, str, str]:
    """What the rebase command printed, and its exit code, when witt_rebase
    solved one pair at a time: the reference for its output."""
    n = len(a1)
    m = a1.T @ a2
    r = int((np.abs(np.linalg.eigvals(m) - 1.0) <= 1e-6).sum())
    if r:
        return 1, "", f"not transversal: planes meet in dimension {r}\n"
    p_rows = np.hstack([np.eye(n), a1.T])
    b_rows = np.hstack([np.eye(n), a2.T])
    q_rows = np.linalg.solve((2.0 * (np.eye(n) - m)).T, b_rows)
    pairing = max(np.abs(g).max() for g in (
        2.0 * neutral_gram(p_rows, q_rows) - np.eye(n),
        neutral_gram(p_rows, p_rows), neutral_gram(q_rows, q_rows)))
    assert pairing <= 1e-9
    payload = {
        "n": n,
        "residuals": {
            "pairing": float(pairing),
            # the general product the program measures p_side by: numpy
            # multiplies an array by its own transpose with syrk, which
            # rounds differently
            "p_side": float(np.abs(2.0 * neutral_gram(p_rows, p_rows.copy())).max()),
            "q_side": float(np.abs(2.0 * neutral_gram(b_rows, q_rows)).max()),
        },
        "p_rows": p_rows.tolist(),
        "q_rows": q_rows.tolist(),
    }
    return 0, json.dumps(payload, sort_keys=True) + "\n", ""


@pytest.mark.parametrize("n", [6, 129])
def test_rebase_json_is_unchanged_by_the_stacked_core(tmp_path, capsys, n):
    t1 = sample_orthogonal(n, seed=n)
    pairs = [(t1, t1 @ np.diag([1.0] * r + [-1.0] * (n - r))) for r in (1, 2)]
    seed = 1000
    while len(pairs) < 4:  # two transversal pairs
        seed += 1
        t2 = sample_orthogonal(n, seed=seed)
        if (np.abs(np.linalg.eigvals(t1.T @ t2) - 1.0) > 1e-6).all():
            pairs.append((t1, t2))
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
    # and witt_rebase's meeting dimension follow a frozen eigvals
    # classification
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
        assert _meeting_dimension(m) == plus
        assert _meeting_dimension(-m) == minus
        meets_p.append(plus > 0)
        meets_q.append(minus > 0)
    meets_p, meets_q = np.array(meets_p), np.array(meets_q)

    tried = []
    rebased = ortho._rebased
    monkeypatch.setattr(ortho, "haar_samples", lambda n, count, rng: stack[:count])
    monkeypatch.setattr(ortho, "_rebased",
                        lambda sign, t: tried.append((sign, t)) or rebased(sign, t))
    orthogonal_cover_report(formula_from_ints(n, [(1,)]), len(stack), 0)
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


def _rebase_json(tmp_path, capsys, t1, t2, *extra):
    """Exit code, stderr and the JSON payload (None unless it exits 0) of
    rebase --json on the pair."""
    path = tmp_path / "pair.txt"
    path.write_text(matrix_to_text(t1) + matrix_to_text(t2))
    code = main(["rebase", str(path), "--json", *extra])
    out = capsys.readouterr()
    return code, out.err, json.loads(out.out) if code == 0 else None


def _nearly_meeting_pair(
    theta: float, n: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """(q, q r) for a Haar q at even n: r turns one plane by theta and
    each other by 1 rad, so the graph planes are transversal with
    |lambda - 1| = 2 sin(theta/2)."""
    q = haar_samples(n, 1, np.random.default_rng(7))[0]
    r = np.zeros((n, n))
    r[:2, :2] = _rotation(theta)
    for i in range(2, n, 2):
        r[i:i + 2, i:i + 2] = _rotation(1.0)
    return q, q @ r


@pytest.mark.parametrize("theta", [1e-4, 1e-3])
def test_rebase_of_planes_that_nearly_meet(tmp_path, capsys, theta):
    # at 1e-4 the Witt residual (about 1.1e-8) is past 1e-9 but within the
    # bound the basis is checked at, 8 * 1e-9 / theta^2
    code, err, payload = _rebase_json(
        tmp_path, capsys, *_nearly_meeting_pair(theta)
    )
    assert (code, err) == (0, "")
    assert payload["residuals"]["pairing"] <= 8e-9 / theta**2
    if theta == 1e-4:
        assert payload["residuals"]["pairing"] > 1e-9


def test_rebase_of_a_nearly_meeting_pair_at_a_loose_tolerance(tmp_path, capsys):
    # min |lambda - 1| = 0.00432: orthogonal within 1e-5 after the shift,
    # the Witt residual is 5.8e-4, past the flat 1e-5 of the input check
    t1, t2 = haar_samples(6, 2, np.random.default_rng(6606))
    if np.linalg.det(t1.T @ t2) < 0:
        t2[:, 0] *= -1.0
    code, err, payload = _rebase_json(tmp_path, capsys, t1, t2 + 1e-7,
                                      "--tol", "1e-5")
    assert (code, err) == (0, "")
    assert 1e-4 < payload["residuals"]["pairing"] < 1e-3


def _perturbed_pair(rng: np.random.Generator):
    """(t1, t2, residual): a Haar t1 and a t2 whose graph plane is turned
    off t1's by a rotation angle between 1e-5 and 3 rad, moved off O(n) by
    Gaussian noise of scale 1e-12 to 1e-7; residual is the larger of the
    two orthogonality residuals."""
    n = int(rng.integers(2, 9))
    t1, u = haar_samples(n, 2, rng)
    core = np.eye(n)
    core[:2, :2] = _rotation(10 ** rng.uniform(-5.0, 0.5))
    for i in range(2, n - 1, 2):
        core[i:i + 2, i:i + 2] = _rotation(rng.uniform(0.3, np.pi))
    if n % 2:
        core[n - 1, n - 1] = -1.0
    t2 = t1 @ u @ core @ u.T
    t2 = t2 + 10 ** rng.uniform(-12.0, -7.0) * rng.standard_normal((n, n))
    residual = max(np.abs(t.T @ t - np.eye(n)).max() for t in (t1, t2))
    return t1, t2, residual


def test_rebase_never_fails_a_pair_that_tol_admits(tmp_path, capsys):
    # each pair at --tol equal to its own orthogonality residual, the
    # tightest tolerance that admits it; the basis check then holds it to
    # a bound in its conditioning, not to the flat tolerance
    past_tol = 0
    for seed in range(80):
        t1, t2, residual = _perturbed_pair(np.random.default_rng(7700 + seed))
        code, err, payload = _rebase_json(tmp_path, capsys, t1, t2,
                                          "--tol", repr(float(residual)))
        assert (code, err) == (0, ""), seed
        past_tol += payload["residuals"]["pairing"] > residual
    assert past_tol >= 60


def test_rebase_bound_grows_with_n(tmp_path, capsys):
    # at n = 129 a perturbation aligned with the nearly shared direction
    # of the planes gives a Witt residual of about 10 * tol / sigma^2,
    # past a factor 8; the q side's bound is n * tol / (4 sigma^2)
    n = 129
    rng = np.random.default_rng(1)
    a = rng.standard_normal((n, n))
    a[:, 0] = np.sqrt(0.5 / (n - 1))
    a[0, 0] = np.sqrt(0.5)
    u, _ = np.linalg.qr(a)
    core = -np.eye(n)
    core[:2, :2] = _rotation(1e-3)
    t2 = u @ core @ u.T
    w = np.sign(np.linalg.inv(np.eye(n) - t2)[:, 0])
    t2 = t2 - 0.49e-9 * t2 @ np.outer(w, w)
    assert np.abs(t2.T @ t2 - np.eye(n)).max() <= 1e-9
    code, err, payload = _rebase_json(tmp_path, capsys, np.eye(n), t2)
    assert (code, err) == (0, "")
    assert payload["residuals"]["pairing"] > 8e-9 / 1e-3**2


def _double_the_q_rows(monkeypatch):
    """Make witt_rebase's solve return every q row twice over: a basis with
    pairing residual 1, which the basis check must reject."""
    import wittsat.ortho as ortho

    solve = ortho._rebase_stack

    def doubled(*args):
        p_rows, q_rows = solve(*args)
        return p_rows, 2.0 * q_rows

    monkeypatch.setattr(ortho, "_rebase_stack", doubled)


def test_the_basis_check_catches_doubled_q_rows(monkeypatch):
    pairs = [(np.eye(2), -np.eye(2)), _nearly_meeting_pair(1e-4),
             haar_samples(5, 2, np.random.default_rng(8))]
    _double_the_q_rows(monkeypatch)
    for a1, a2 in pairs:
        with pytest.raises(ValueError, match="Witt pairing residual"):
            witt_rebase(a1, a2)


# The check's bound, max(8, n/2) * tol / sigma^2, is 3.2, 80 and 3.2 on
# these admitted pairs at n = 6, so a residual of 1 passes it and rebase
# would print the wrong basis with exit 0.
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 5, rebase never prints a basis its check could not "
    "have rejected: the check's bound scales with the admitted --tol, not the "
    "inputs' measured error, and passes a wrong basis here",
)
@pytest.mark.parametrize("theta, tol", [(5e-5, 1e-9), (1e-3, 1e-5), (5e-3, 1e-5)])
def test_the_basis_check_catches_doubled_q_rows_at_n6(monkeypatch, theta, tol):
    a1, a2 = _nearly_meeting_pair(theta, n=6)
    _double_the_q_rows(monkeypatch)
    with pytest.raises(ValueError, match="Witt pairing residual"):
        witt_rebase(a1, a2, tol)
