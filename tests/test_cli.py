"""Command line behavior: output shapes and exit codes."""

import io
import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wittsat.cli import main
from wittsat.cnf import Assignment, CnfFormula, serialize_dimacs
from wittsat.oracle import brute_force, dpll
from wittsat.ortho import matrix_to_text, sample_orthogonal
from wittsat.selftest import _random_clause

from test_cnf import independent_pairs, pigeonhole, two_wide_clauses

SAT_TEXT = "p cnf 2 2\n1 2 0\n-1 0\n"
UNSAT_TEXT = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.cnf"
    path.write_text(SAT_TEXT)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT_TEXT)
    return str(path)


def test_check_sat_all_routes(sat_file, capsys):
    assert main(["check", sat_file]) == 0
    out = capsys.readouterr().out
    assert "status: SAT" in out
    assert "algebra: SAT" in out and "cover: SAT" in out and "dpll: SAT" in out
    assert "model:" in out


def test_check_unsat_exit_code(unsat_file, capsys):
    assert main(["check", unsat_file]) == 1
    assert "status: UNSAT" in capsys.readouterr().out


def test_check_json_payload(unsat_file, sat_file, capsys):
    assert main(["check", "--json", unsat_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "UNSAT"
    assert payload["routes"] == {
        "algebra": "UNSAT",
        "cover": "UNSAT",
        "dpll": "UNSAT",
    }
    assert "model" not in payload
    assert set(payload["timings"]) == {"algebra", "cover", "dpll"}
    assert set(payload["stats"]) == {
        "patterns", "splits", "dpll_decisions", "dpll_propagations"
    }
    assert main(["check", "--json", sat_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "SAT"
    assert payload["model"] == [-1, 2]


def test_check_solver_codes(sat_file, unsat_file, capsys):
    assert main(["check", "--solver-codes", sat_file]) == 10
    out = capsys.readouterr().out
    assert out.startswith("s SATISFIABLE")
    assert any(line.startswith("v ") and line.endswith(" 0")
               for line in out.splitlines())
    assert main(["check", "--solver-codes", unsat_file]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_check_single_route(sat_file, capsys):
    assert main(["check", "--route", "dpll", sat_file]) == 0
    out = capsys.readouterr().out
    assert "dpll: SAT" in out and "algebra" not in out


def test_check_dpll_route_reports_search_counters(tmp_path, sat_file, capsys):
    # without --json the DPLL counters must not reach the algebra's line
    assert main(["check", "--route", "dpll", sat_file]) == 0
    assert "patterns" not in capsys.readouterr().out
    path = tmp_path / "pairs.cnf"
    path.write_text(serialize_dimacs(independent_pairs(3)))
    assert main(["check", str(path), "--route", "dpll", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"] == {"dpll_decisions": 3, "dpll_propagations": 3}


def test_consecutive_calls_share_no_state(tmp_path, sat_file, capsys):
    # one parser serves every call in a process; no option may carry over
    assert main(["check", "--json", sat_file]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "SAT"
    assert main(["check", sat_file]) == 0
    assert "status: SAT" in capsys.readouterr().out
    php = tmp_path / "php4-3.cnf"
    php.write_text(serialize_dimacs(pigeonhole(3)))
    assert main(["check", str(php), "--route", "dpll", "--limit", "1"]) == 3
    capsys.readouterr()
    assert main(["check", str(php), "--route", "dpll"]) == 1
    assert "status: UNSAT" in capsys.readouterr().out
    assert main(["check", sat_file, "--route", "cover"]) == 0
    assert "cover: SAT" in capsys.readouterr().out
    assert main(["geometry", sat_file]) == 0
    out = capsys.readouterr().out
    assert "clause" in out and "status" not in out and "covered" not in out


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(UNSAT_TEXT))
    assert main(["check", "-"]) == 1
    assert "status: UNSAT" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 nope 0\n")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.cnf")]) == 2


def test_term_budget_exit_code(tmp_path, capsys):
    f = tmp_path / "wide.cnf"
    f.write_text("p cnf 6 3\n1 2 3 0\n4 5 6 0\n1 4 5 0\n")
    assert main(["check", "--route", "algebra", "--limit", "2", str(f)]) == 3
    assert "error:" in capsys.readouterr().err


def test_term_budget_env_fallback(tmp_path, monkeypatch, capsys):
    f = tmp_path / "wide.cnf"
    f.write_text("p cnf 6 3\n1 2 3 0\n4 5 6 0\n1 4 5 0\n")
    monkeypatch.setenv("WITTSAT_LIMIT", "2")
    assert main(["check", "--route", "algebra", str(f)]) == 3
    capsys.readouterr()
    monkeypatch.setenv("WITTSAT_LIMIT", "banana")
    assert main(["check", "--route", "algebra", str(f)]) == 2
    assert "WITTSAT_LIMIT" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize(
    "command",
    [["check", "--route", "algebra"], ["check", "--route", "cover"],
     ["check", "--route", "dpll"], ["models"], ["geometry"]],
    ids=["algebra", "cover", "dpll", "models", "geometry"],
)
def test_nonpositive_limit_is_bad_input(sat_file, monkeypatch, capsys, command, source):
    argv = command + [sat_file]
    if source == "flag":
        argv += ["--limit", "-5"]
    else:
        monkeypatch.setenv("WITTSAT_LIMIT", "-1")
    assert main(argv) == 2
    assert "must be positive" in capsys.readouterr().err


def test_search_routes_answer_deep_independent_pairs(tmp_path, capsys):
    f = independent_pairs(1200)  # n=2400: one decision per pair
    path = tmp_path / "pairs.cnf"
    path.write_text(serialize_dimacs(f))
    for route in ("cover", "dpll"):
        assert main(["check", str(path), "--route", route, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        model = Assignment(tuple(v > 0 for v in payload["model"]))
        assert model.satisfies(f)


def test_algebra_route_answers_two_wide_clauses(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text(serialize_dimacs(two_wide_clauses(3000)))
    assert main(["check", str(path), "--route", "algebra", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "SAT"
    assert payload["stats"] == {"patterns": 3, "splits": 3000}


def _algebra_json(capsys, path, *extra):
    code = main(["check", path, "--route", "algebra", "--json", *extra])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("n", [60, 70])
def test_a_limit_past_what_a_table_can_hold_stays_sparse(tmp_path, capsys, n):
    # 2^60 cells cannot be allocated and numpy arrays stop at 64 axes, so
    # a --limit above 2^n leaves these products sparse instead of failing
    path = tmp_path / "wide.cnf"
    path.write_text(serialize_dimacs(two_wide_clauses(n)))
    code, payload = _algebra_json(capsys, str(path), "--limit", str(1 << (n + 1)))
    assert code == 0
    assert payload["stats"] == {"patterns": 3, "splits": n}


def test_decision_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "php7-6.cnf"
    path.write_text(serialize_dimacs(pigeonhole(6)))
    for route in ("cover", "dpll"):
        assert main(["check", str(path), "--route", route, "--limit", "1"]) == 3
        assert "error:" in capsys.readouterr().err
        assert main(["check", str(path), "--route", route]) == 1
        capsys.readouterr()


def _random_file(tmp_path, n, ratio, seed):
    rng = np.random.default_rng(seed)
    f = CnfFormula.from_ints(
        n, [_random_clause(rng, n, 3) for _ in range(round(ratio * n))]
    )
    path = tmp_path / f"random-{n}-{ratio}-{seed}.cnf"
    path.write_text(serialize_dimacs(f))
    return f, str(path)


@pytest.mark.parametrize("seed", range(12))  # seeds 8 and 9 are unsatisfiable
def test_check_reports_an_early_cost_switch(tmp_path, capsys, seed):
    f, path = _random_file(tmp_path, 13 + seed % 4, 4.26, seed)
    expected = brute_force(f)
    code = main(["check", path, "--route", "algebra", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == expected.verdict
    assert code == (1 if expected.verdict == "UNSAT" else 0)
    assert payload["stats"]["patterns"] == len(expected.models)


@pytest.mark.parametrize("seed", [1, 2])  # unsatisfiable, satisfiable
def test_algebra_route_answers_threshold_n22(tmp_path, capsys, seed):
    f, path = _random_file(tmp_path, 22, 4.26, seed)
    expected = dpll(f).verdict
    code = main(["check", path, "--route", "algebra", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == expected
    assert code == (1 if expected == "UNSAT" else 0)


@pytest.mark.parametrize("case", [*range(9), "php4-3"])
def test_sparse_route_below_the_cell_budget(tmp_path, capsys, case):
    # a --limit one cell short of 2^n keeps the product sparse, so the
    # cofactor zero test still runs on formulas the table would take
    if case == "php4-3":
        f = pigeonhole(3)  # n=12, unsatisfiable
        path = tmp_path / "php4-3.cnf"
        path.write_text(serialize_dimacs(f))
        path = str(path)
    else:
        n, ratio = 12 + case % 3, (1.0, 1.25, 1.5)[case // 3]
        f, path = _random_file(tmp_path, n, ratio, case)
    expected = brute_force(f)
    code = 1 if expected.verdict == "UNSAT" else 0
    sparse_code, sparse = _algebra_json(capsys, path, "--limit", str((1 << f.n) - 1))
    table_code, table = _algebra_json(capsys, path)
    assert sparse_code == table_code == code
    assert sparse["status"] == table["status"] == expected.verdict
    assert table["stats"] == {"patterns": len(expected.models), "splits": 0}


@pytest.mark.parametrize(
    "n, ratio, seed",
    [(18, 2.0, 1), (19, 3.0, 2), (20, 2.0, 1), (21, 2.5, 3), (22, 2.5, 3),
     (22, 3.0, 3)],
)
def test_algebra_route_answers_mid_ratio_formulas(tmp_path, capsys, n, ratio, seed):
    f, path = _random_file(tmp_path, n, ratio, 1000 * n + seed)
    expected = dpll(f).verdict
    code, payload = _algebra_json(capsys, path)
    assert payload["status"] == expected
    assert code == (1 if expected == "UNSAT" else 0)


def test_models_counts_a_ratio_one_formula_at_n20(tmp_path, capsys):
    f, path = _random_file(tmp_path, 20, 1.0, 20000)
    assert main(["models", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(brute_force(f).models) > 1024
    assert payload["models"] is None


def test_models_lists_from_the_table_and_from_the_sparse_form(tmp_path, capsys):
    # a --limit one cell short of 2^n lists through the cofactor walk
    for n, ratio, seed in [(12, 3.0, 12), (8, 2.0, 8000), (10, 1.0, 10001),
                           (11, 1.5, 11002), (12, 1.0, 12002), (12, 2.5, 12000)]:
        f, path = _random_file(tmp_path, n, ratio, seed)
        expected = [list(a.to_ints()) for a in brute_force(f).models]
        listings = []
        for extra in ([], ["--limit", str((1 << n) - 1)]):
            assert main(["models", path, "--json", *extra]) == 0
            listings.append(json.loads(capsys.readouterr().out)["models"])
        assert 0 < len(expected) <= 1024
        assert listings[0] == listings[1]
        assert sorted(listings[0]) == sorted(expected)


@pytest.mark.parametrize("n", [23, 25])
def test_models_lists_past_the_cell_budget(tmp_path, capsys, n):
    # n-10 unit clauses and one 10-wide clause: 1023 models, listed from
    # the sparse product at any n (n=25 once exited 3 at a 24-position cap)
    rng = np.random.default_rng(n)
    units = [(v if rng.integers(2) else -v,) for v in range(1, n - 9)]
    wide = tuple(v if rng.integers(2) else -v for v in range(n - 9, n + 1))
    f = CnfFormula.from_ints(n, units + [wide])
    path = tmp_path / f"units-{n}.cnf"
    path.write_text(serialize_dimacs(f))
    assert main(["models", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    listed = payload["models"]
    assert payload["count"] == len(listed) == 1023
    assert len({tuple(m) for m in listed}) == 1023
    assert all(Assignment(tuple(v > 0 for v in m)).satisfies(f) for m in listed)


def test_check_verifies_every_route_model(sat_file, monkeypatch, capsys):
    # under --route all DPLL's model is the one printed, but the cover
    # witness is checked on its own
    def wrong_witness(f, **kwargs):
        return False, Assignment((True, True))

    monkeypatch.setattr("wittsat.cli.cover_verdict", wrong_witness)
    assert main(["check", sat_file, "--route", "all"]) == 4
    assert "cover model failed verification" in capsys.readouterr().err


def test_cover_honours_the_budget(tmp_path, monkeypatch, capsys):
    path = tmp_path / "php7-6.cnf"
    path.write_text(serialize_dimacs(pigeonhole(6)))
    assert main(["cover", str(path), "--limit", "1"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["cover", str(path), "--limit", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert main(["cover", str(path)]) == 1
    capsys.readouterr()
    monkeypatch.setenv("WITTSAT_LIMIT", "1")
    assert main(["cover", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def _all_sign_file(tmp_path, n, seed):
    """All 8 sign clauses over 3 seeded variables, so every sign vector is
    covered and the discrete scan must visit all 2^n of them."""
    rng = np.random.default_rng(seed)
    a, b, c = (int(v) for v in rng.choice(np.arange(1, n + 1), 3, replace=False))
    clauses = [(sa * a, sb * b, sc * c)
               for sa in (1, -1) for sb in (1, -1) for sc in (1, -1)]
    path = tmp_path / f"all-sign-{n}.cnf"
    path.write_text(serialize_dimacs(CnfFormula.from_ints(n, clauses)))
    return str(path)


def test_geometry_honours_the_budget(tmp_path, monkeypatch, capsys):
    big = _all_sign_file(tmp_path, 30, seed=30)
    argv = ["geometry", big, "--samples", "1", "--json"]
    assert main(argv + ["--limit", "4096"]) == 3
    assert "4096 diagonal isometries" in capsys.readouterr().err
    monkeypatch.setenv("WITTSAT_LIMIT", "4096")
    assert main(argv) == 3
    capsys.readouterr()
    monkeypatch.delenv("WITTSAT_LIMIT")
    # without a budget the scan is unbounded; n=14 is 2^14 vectors
    assert main(["geometry", _all_sign_file(tmp_path, 14, seed=14),
                 "--samples", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["discrete_cover"] is True


def test_internal_error_is_not_unsat(sat_file, monkeypatch, capsys):
    def crash(f, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("wittsat.cli.dpll", crash)
    assert main(["check", "--route", "dpll", sat_file]) == 4
    assert "error: internal: RuntimeError: boom" in capsys.readouterr().err


def test_models_listing_and_json(sat_file, unsat_file, capsys):
    assert main(["models", sat_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "models: 1"
    assert "-1 2" in out
    assert main(["models", "--json", unsat_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0 and payload["models"] is None


def test_models_enum_cap(sat_file, capsys):
    assert main(["models", "--max-enum", "0", sat_file]) == 0
    out = capsys.readouterr().out
    assert "not listed" in out


def test_models_empty_formula_counts_all_assignments(tmp_path, capsys):
    f = tmp_path / "empty.cnf"
    f.write_text("p cnf 3 0\n")
    assert main(["models", str(f)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "models: 8"


def test_cover_output(unsat_file, sat_file, capsys):
    assert main(["cover", unsat_file]) == 1
    lines = capsys.readouterr().out.splitlines()
    # one bare pattern line per clause, then the verdict
    assert lines[:2] == ["+", "-"]
    assert "covered: yes" in lines
    assert main(["cover", "--json", sat_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["covered"] is False
    assert payload["witness"] is not None


def test_geometry_dumps_planes_and_signs(tmp_path, capsys):
    f = tmp_path / "one.cnf"
    f.write_text("p cnf 2 1\n1 -2 0\n")
    assert main(["geometry", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "clause 1 -2 0: p1 q2"
    assert "assignment 1 2: --" in lines
    assert "assignment -1 -2: ++" in lines
    assert not any("discrete_cover" in line for line in lines)


def test_geometry_report_deterministic(unsat_file, capsys):
    assert main(["geometry", "--samples", "20", "--seed", "7", "--json",
                 unsat_file]) == 0
    first = capsys.readouterr().out
    assert main(["geometry", "--samples", "20", "--seed", "7", "--json",
                 unsat_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["discrete_cover"] is True
    assert payload["samples"] == 20
    assert payload["clauses"][0]["generators"] == ["p1"]


def test_rebase_two_files_and_single_file(tmp_path, capsys):
    # opposite determinant classes, so the pair is transversal at odd n
    t1 = sample_orthogonal(3, seed=1)
    t2 = sample_orthogonal(3, seed=102)
    f1 = tmp_path / "a.mat"
    f2 = tmp_path / "b.mat"
    f1.write_text(matrix_to_text(t1))
    f2.write_text(matrix_to_text(t2))
    assert main(["rebase", str(f1), str(f2)]) == 0
    out = capsys.readouterr().out
    assert "pairing residual:" in out and "p1:" in out
    both = tmp_path / "both.mat"
    both.write_text(matrix_to_text(t1) + matrix_to_text(t2))
    assert main(["rebase", "--json", str(both)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert max(payload["residuals"].values()) < 1e-9
    assert len(payload["p_rows"]) == 3 and len(payload["p_rows"][0]) == 6


def test_rebase_error_paths(tmp_path, capsys):
    ident = tmp_path / "i.mat"
    ident.write_text(matrix_to_text(np.eye(2)))
    assert main(["rebase", str(ident), str(ident)]) == 1
    assert "not transversal" in capsys.readouterr().err
    assert main(["rebase", str(ident)]) == 2  # only one matrix
    capsys.readouterr()
    skewed = tmp_path / "skew.mat"
    skewed.write_text("2\n1.0 1.0\n0.0 1.0\n")
    assert main(["rebase", str(skewed), str(ident)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_rebase_names_a_non_finite_entry(tmp_path, capsys, bad):
    ident = tmp_path / "i.mat"
    ident.write_text(matrix_to_text(np.eye(2)))
    broken = tmp_path / "broken.mat"
    broken.write_text(f"2\n1.0 0.0\n0.0 {bad}\n")
    with warnings.catch_warnings():
        # a RuntimeWarning raised here would reach main's defect branch (exit 4)
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["rebase", str(broken), str(ident)]) == 2
    err = capsys.readouterr().err
    assert f"row 2, column 2 is {bad}" in err


@pytest.mark.parametrize("rows, named", [
    ("1e200 1e200\n1e200 -1e200", "row 1, column 1 is 1e+200"),
    ("1e-3 0.0\n0.0 -3e200", "row 2, column 2 is -3e+200"),
])
def test_rebase_names_the_entry_that_overflows_the_residual(tmp_path, capsys,
                                                             rows, named):
    ident = tmp_path / "i.mat"
    ident.write_text(matrix_to_text(np.eye(2)))
    huge = tmp_path / "huge.mat"
    huge.write_text(f"2\n{rows}\n")
    with warnings.catch_warnings():
        # an overflow warning raised here would reach main's defect branch
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["rebase", str(huge), str(ident)]) == 2
    err = capsys.readouterr().err
    assert named in err


def test_selftest_wiring(monkeypatch, capsys):
    import wittsat.selftest as selftest
    from wittsat.selftest import Check

    good = Check("always-good", lambda: "fine", {}, {})
    bad = Check("always-bad", lambda: (_ for _ in ()).throw(AssertionError("no")),
                {}, {})
    monkeypatch.setattr(selftest, "CHECKS", (good,))
    assert main(["selftest", "--quick"]) == 0
    assert "ok   always-good" in capsys.readouterr().out
    monkeypatch.setattr(selftest, "CHECKS", (good, bad))
    assert main(["selftest"]) == 1
    assert "FAIL always-bad" in capsys.readouterr().out


def test_console_entry_point_version():
    exe = shutil.which("wittsat")
    cmd = [exe] if exe else [sys.executable, "-m", "wittsat.cli"]
    got = subprocess.run(
        cmd + ["--version"], capture_output=True, text=True, check=True
    )
    assert got.stdout.strip() == "0.1.0"
