"""Command line behavior: output shapes and exit codes."""

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wittsat
import wittsat.cli
from wittsat.cli import _build_parser, main
from wittsat.cnf import Assignment, CnfFormula
from wittsat.geometry import cover_verdict
from wittsat.oracle import dpll

from dimacs_reference import serialize_dimacs
from formula_helpers import formula_from_ints, random_clause
from oracle_reference import brute_force
from plane_reference import matrix_to_text, sample_orthogonal
from test_cnf import independent_pairs, pigeonhole, random_3sat, two_wide_clauses

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
        "patterns", "slabs", "splits", "cover_decisions", "cover_propagations",
        "dpll_decisions", "dpll_propagations",
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


@pytest.mark.parametrize(
    "flags", [["--json", "--solver-codes"], ["--solver-codes", "--json"]]
)
def test_json_and_solver_codes_exclude_each_other(sat_file, capsys, flags):
    # asked for both, check used to print s/v lines and drop the JSON
    with pytest.raises(SystemExit) as exit_info:
        main(["check", *flags, sat_file])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


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


def test_check_cover_route_reports_search_counters(tmp_path, capsys):
    path = tmp_path / "pairs.cnf"
    path.write_text(serialize_dimacs(independent_pairs(3)))
    assert main(["check", str(path), "--route", "cover", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"] == {"cover_decisions": 3, "cover_propagations": 3}


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 2 2\n1 -1 0\n2 0\n", "dropping tautological clause 1 -1 0"),
        ("p cnf 2 3\n1 2 0\n-1 0\n", "header declares 3 clauses, found 2"),
        ("p cnf 2 2\n1 2 0\n-1", "unterminated final clause (missing trailing 0)"),
    ],
)
def test_warnings_print_their_message_only(tmp_path, capsys, text, message):
    path = tmp_path / "warn.cnf"
    path.write_text(text)
    for _ in range(2):  # every call prints its own warnings
        assert main(["check", str(path)]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: {message}\n"
        assert ".py:" not in err
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the filters in force still apply
        assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""


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


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` over the bytes.  Its text layer decodes
    as stdin's does under a C or POSIX locale, with ``surrogateescape``,
    which would read a stray byte rather than refuse it; its ``buffer``
    holds the bytes themselves."""
    return io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape")


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", _stdin(UNSAT_TEXT.encode()))
    assert main(["check", "-"]) == 1
    assert "status: UNSAT" in capsys.readouterr().out


def test_a_file_reads_alike_in_crlf_with_comments_and_through_stdin(
    tmp_path, monkeypatch
):
    # a file and stdin are read as bytes and decoded once, so CR LF line
    # ends reach the parser
    rng = np.random.default_rng(35)
    f = formula_from_ints(
        8,
        [random_clause(rng, 8, 3) for _ in range(30)] + [(1, -1, 2), (3,), (-4, 5)],
    )
    text = serialize_dimacs(f)
    header, *rest = text.splitlines()
    variants = {
        "lf": text,
        "crlf": text.replace("\n", "\r\n"),
        "comments": "\n".join(
            ["c a comment", header, "c clauses follow", *rest, "%", "0"]
        ) + "\n",
    }
    for name, variant in variants.items():
        (tmp_path / name).write_bytes(variant.encode())
    for extra in ([], ["--json"]):
        expected = _answer(["check", str(tmp_path / "lf"), *extra])
        assert expected[0] in (0, 1) and expected[1]
        for name in ("crlf", "comments"):
            assert _answer(["check", str(tmp_path / name), *extra]) == expected, name
        for name, variant in variants.items():
            monkeypatch.setattr(sys, "stdin", _stdin(variant.encode()))
            assert _answer(["check", "-", *extra]) == expected, name


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["check"], b"c caf\xe9\np cnf 2 1\n1 2 0\n",
         "can't decode byte 0xe9 in position 5"),
        (["check"], b"p cnf 3 1\n1 \xff 0\n", "can't decode byte 0xff"),
        (["check"], "p cnf 3 1\n1\xa02 0\n".encode(),
         "line 2: bad token '1\\xa02'"),
        (["rebase"], b"2\n1 0\n0 \xff\n2\n1 0\n0 1\n", "can't decode byte 0xff"),
    ],
    ids=["latin1-comment", "stray-byte", "nbsp-token", "rebase-stray-byte"],
)
def test_the_same_bytes_answer_alike_by_path_and_through_stdin(
    tmp_path, monkeypatch, argv, data, message
):
    # stdin is decoded as a file is, strict UTF-8, and DIMACS whitespace is
    # ASCII either way
    path = tmp_path / "input"
    path.write_bytes(data)
    by_path = _answer([argv[0], str(path), *argv[1:]])
    monkeypatch.setattr(sys, "stdin", _stdin(data))
    assert _answer([argv[0], "-", *argv[1:]]) == by_path
    code, out, err = by_path
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err


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
    assert payload["stats"] == {"patterns": 3, "slabs": 0, "splits": 3000}


def _algebra_json(capsys, path, *extra):
    code = main(["check", path, "--route", "algebra", "--json", *extra])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("n", [60, 70])
def test_a_limit_past_what_a_table_can_hold_stays_sparse(tmp_path, capsys, n):
    # the table form stops at 2^32 cells, so a --limit above 2^n leaves
    # these products sparse
    path = tmp_path / "wide.cnf"
    path.write_text(serialize_dimacs(two_wide_clauses(n)))
    code, payload = _algebra_json(capsys, str(path), "--limit", str(1 << (n + 1)))
    assert code == 0
    assert payload["stats"] == {"patterns": 3, "slabs": 0, "splits": n}


@pytest.mark.parametrize("n, form", [(32, "table"), (33, "sparse")])
def test_the_table_form_stops_at_2_to_the_32_cells(tmp_path, capsys, n, form):
    path = tmp_path / "wide.cnf"
    path.write_text(serialize_dimacs(two_wide_clauses(n)))
    code, payload = _algebra_json(capsys, str(path), "--limit", str(1 << (n + 1)))
    assert code == 0
    if form == "table":  # the first slab holds every cell but all-true
        assert payload["stats"] == {"patterns": (1 << 14) - 1, "slabs": 1, "splits": 0}
    else:
        assert payload["stats"] == {"patterns": 3, "slabs": 0, "splits": n}


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
    f = formula_from_ints(
        n, [random_clause(rng, n, 3) for _ in range(round(ratio * n))]
    )
    path = tmp_path / f"random-{n}-{ratio}-{seed}.cnf"
    path.write_text(serialize_dimacs(f))
    return f, str(path)


def _expected_slab_walk(f):
    """(slabs, patterns, model) that the table's slab walk must report, from
    brute_force: the slabs up to the one holding the lowest-primitive-index
    model, that slab's models and that model; every slab, 0 and None when
    unsatisfiable."""
    indices = sorted(a.primitive_index() for a in brute_force(f).models)
    if not indices:
        return 1 << max(f.n - 14, 0), 0, None
    slab = indices[0] >> 14
    in_slab = sum(1 for i in indices if i >> 14 == slab)
    return slab + 1, in_slab, Assignment.from_primitive_index(indices[0], f.n)


@pytest.mark.parametrize("seed", range(12))  # seeds 8 and 9 are unsatisfiable
def test_check_reports_an_early_cost_switch(tmp_path, capsys, seed):
    # n = 13 and 14 are one slab; n = 15 and 16 have two and four
    f, path = _random_file(tmp_path, 13 + seed % 4, 4.26, seed)
    expected = brute_force(f)
    code = main(["check", path, "--route", "algebra", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == expected.verdict
    assert code == (1 if expected.verdict == "UNSAT" else 0)
    slabs, patterns, model = _expected_slab_walk(f)
    assert (payload["stats"]["slabs"], payload["stats"]["patterns"]) == (
        slabs, patterns
    )
    assert payload.get("model") == (None if model is None else list(model.to_ints()))


@pytest.mark.parametrize("seed", [1, 2])  # unsatisfiable, satisfiable
def test_algebra_route_answers_threshold_n22(tmp_path, capsys, seed):
    f, path = _random_file(tmp_path, 22, 4.26, seed)
    expected = "UNSAT" if dpll(f)[0] else "SAT"
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
    assert table["stats"] == {
        "patterns": len(expected.models), "slabs": 1, "splits": 0
    }


@pytest.mark.parametrize(
    "n, ratio, seed",
    [(18, 2.0, 1), (19, 3.0, 2), (20, 2.0, 1), (21, 2.5, 3), (22, 2.5, 3),
     (22, 3.0, 3)],
)
def test_algebra_route_answers_mid_ratio_formulas(tmp_path, capsys, n, ratio, seed):
    f, path = _random_file(tmp_path, n, ratio, 1000 * n + seed)
    expected = "UNSAT" if dpll(f)[0] else "SAT"
    code, payload = _algebra_json(capsys, path)
    assert payload["status"] == expected
    assert code == (1 if expected == "UNSAT" else 0)


def _slab_corpus():
    """Seeded formulas over 2 to 256 slabs (n = 15-22): random 3-SAT at
    ratios 1-5, and on top of that unit clauses, tautologies, an empty
    clause, and a formula whose clauses are all tautologies."""
    cases = []
    for n, ratio in ((15, 1.0), (16, 5.0), (17, 2.0), (18, 4.0), (19, 3.0),
                     (20, 4.26), (21, 2.0), (22, 1.0), (22, 4.26)):
        rng = np.random.default_rng(19000 + 10 * n + int(ratio))
        clauses = [random_clause(rng, n, 3) for _ in range(round(ratio * n))]
        cases.append((f"n{n}-r{ratio}", formula_from_ints(n, clauses)))
    rng = np.random.default_rng(19100)
    base = [random_clause(rng, 16, 3) for _ in range(32)]
    units = [(-1,), (5,), (-15,)]  # a leading, a row and a lane variable
    cases.append(("units", formula_from_ints(16, base + units)))
    tautologies = [(1, -1, 5), (-3, 9, 3)]
    cases.append(("tautologies", formula_from_ints(16, base + tautologies)))
    with_empty = CnfFormula(17, formula_from_ints(17, base).clauses, 1)
    cases.append(("empty-clause", with_empty))
    cases.append(("no-live-clause", formula_from_ints(15, tautologies)))
    return cases


SLAB_CORPUS = _slab_corpus()


@pytest.mark.parametrize(
    "label, f", SLAB_CORPUS, ids=[label for label, _ in SLAB_CORPUS]
)
def test_the_slab_walk_on_a_seeded_corpus(tmp_path, capsys, label, f):
    path = tmp_path / f"{label}.cnf"
    path.write_text(serialize_dimacs(f))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tautologies' warnings
        code, payload = _algebra_json(capsys, str(path))
        models_code = main(["models", str(path), "--json"])
    listing = json.loads(capsys.readouterr().out)
    verdict = "UNSAT" if dpll(f)[0] else "SAT"
    assert payload["status"] == verdict
    assert code == models_code == (1 if verdict == "UNSAT" else 0)
    stats = payload["stats"]
    if f.n <= 20:
        slabs, patterns, model = _expected_slab_walk(f)
        assert (stats["slabs"], stats["patterns"]) == (slabs, patterns)
        assert payload.get("model") == (
            None if model is None else list(model.to_ints())
        )
        expected = sorted(brute_force(f).models, key=Assignment.primitive_index)
        assert listing["count"] == len(expected)
        if len(expected) <= 1024:
            assert listing["models"] == (
                [list(a.to_ints()) for a in expected] if expected else None
            )
    elif verdict == "UNSAT":
        assert (stats["slabs"], stats["patterns"]) == (1 << (f.n - 14), 0)
    else:
        model = Assignment(tuple(v > 0 for v in payload["model"]))
        assert model.satisfies(f)
        assert stats["slabs"] == (model.primitive_index() >> 14) + 1
        assert 0 < stats["patterns"] <= listing["count"]


@pytest.mark.parametrize("limit", [None, "sparse"])
def test_the_algebra_route_prints_a_verified_model(tmp_path, capsys, limit):
    # from the table's first set cell, and from the first leaf of the
    # cofactor walk when a --limit one cell short of 2^n keeps it sparse
    # (which the products of ratios past 3 outgrow)
    cases = [
        _random_file(tmp_path, 10 + seed % 3, ratio, 19200 + seed)
        for seed, ratio in enumerate((1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 6.0))
        if limit is None or ratio <= 3.0
    ]
    php = tmp_path / "php4-3.cnf"
    php.write_text(serialize_dimacs(pigeonhole(3)))
    cases.append((pigeonhole(3), str(php)))
    for f, path in cases:
        extra = [] if limit is None else ["--limit", str((1 << f.n) - 1)]
        code, payload = _algebra_json(capsys, path, *extra)
        assert code == (1 if dpll(f)[0] else 0)
        if code == 0:
            model = Assignment(tuple(v > 0 for v in payload["model"]))
            assert model.satisfies(f)
            assert payload["stats"]["slabs"] == (0 if limit else 1)
        else:
            assert "model" not in payload
    # the text form prints the model too, and the slabs with the patterns
    f, path = cases[0]
    extra = [] if limit is None else ["--limit", str((1 << f.n) - 1)]
    assert main(["check", path, "--route", "algebra", *extra]) == 0
    out = capsys.readouterr().out
    assert "model: " in out and f"slabs: {0 if limit else 1}" in out


def test_route_all_prints_the_dpll_model(tmp_path, capsys):
    f, path = _random_file(tmp_path, 12, 2.0, 19300)
    models_ = {}
    for route in ("all", "dpll", "algebra"):
        assert main(["check", path, "--route", route, "--json"]) == 0
        models_[route] = json.loads(capsys.readouterr().out)["model"]
    assert models_["all"] == models_["dpll"] != models_["algebra"]


@pytest.mark.parametrize("form", ["table", "sparse"])
def test_a_wrong_algebra_model_exits_4(sat_file, monkeypatch, capsys, form):
    # SAT_TEXT's only model is -1 2; primitive index 0 is 1 2
    if form == "table":
        # the first slab's first cell, primitive index 0
        monkeypatch.setattr("wittsat.encoding.slab_walk", lambda f: iter([(0, 1)]))
        argv = ["check", sat_file, "--route", "algebra"]
    else:
        monkeypatch.setattr(
            "wittsat.encoding.zero_test_splits",
            lambda element: (False, 1, Assignment((True, True))),
        )
        argv = ["check", sat_file, "--route", "algebra", "--limit", "3"]
    assert main(argv) == 4
    assert "error: algebra model failed verification" in capsys.readouterr().err


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
    f = formula_from_ints(n, units + [wide])
    path = tmp_path / f"units-{n}.cnf"
    path.write_text(serialize_dimacs(f))
    assert main(["models", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    listed = payload["models"]
    assert payload["count"] == len(listed) == 1023
    assert len({tuple(m) for m in listed}) == 1023
    assert all(Assignment(tuple(v > 0 for v in m)).satisfies(f) for m in listed)


@pytest.mark.parametrize(
    "argv, name, wrong, message",
    [
        (["check", "--route", "all"], "dpll", lambda f, budget: (True, None, {}),
         "error: routes disagree: algebra=SAT, cover=SAT, dpll=UNSAT"),
        (["models"], "algebra_models", lambda f, budget, max_enum: (1, []),
         "error: enumeration disagrees with the count"),
    ],
    ids=["route-disagreement", "count-vs-enumeration"],
)
def test_a_broken_cross_check_exits_4(sat_file, monkeypatch, capsys, argv,
                                      name, wrong, message):
    monkeypatch.setattr(f"wittsat.cli.{name}", wrong)
    assert main([argv[0], sat_file, *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_check_verifies_every_route_model(sat_file, monkeypatch, capsys):
    # under --route all DPLL's model is the one printed, but the cover
    # witness is checked on its own
    def wrong_witness(f, budget):
        return False, Assignment((True, True)), {}

    monkeypatch.setattr("wittsat.cli.cover_verdict", wrong_witness)
    assert main(["check", sat_file, "--route", "all"]) == 4
    assert "cover model failed verification" in capsys.readouterr().err


def test_a_wrong_dpll_model_exits_4(sat_file, monkeypatch, capsys):
    # dpll does not check its own model: check verifies it, as every route's
    monkeypatch.setattr(
        "wittsat.cli.dpll", lambda f, budget: (False, Assignment((True, True)), {})
    )
    assert main(["check", sat_file, "--route", "dpll"]) == 4
    assert "error: dpll model failed verification" in capsys.readouterr().err


def test_check_calls_the_search_routes_by_their_cli_names(
    sat_file, monkeypatch, capsys
):
    # the benchmark's tracer (wittbench/worker.py) replaces these two names
    # on wittsat.cli, and reads the formula at args[0] of cover_verdict and
    # the witness at result[1]
    calls = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] = (args, result)
            return result

        return wrapper

    for name in ("cover_verdict", "dpll"):
        monkeypatch.setattr(
            f"wittsat.cli.{name}", recording(name, getattr(wittsat.cli, name))
        )
    assert main(["check", sat_file, "--json"]) == 0
    capsys.readouterr()
    assert set(calls) == {"cover_verdict", "dpll"}
    args, result = calls["cover_verdict"]
    assert isinstance(args[0], CnfFormula) and args[0].n == 2
    assert result[1] == Assignment((False, True))  # SAT_TEXT's only model


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


def test_geometry_honours_the_budget(tmp_path, monkeypatch, capsys):
    # --limit counts the cover search's decisions, as it does for cover:
    # geometry exits 3 exactly when cover does, and otherwise reports
    # cover's verdict as its discrete_cover
    rng = random.Random(36)
    formulas = {"php5-4": pigeonhole(4), "php6-5": pigeonhole(5),
                "ratio6-24": random_3sat(rng, 24, 144),
                "ratio2-40": random_3sat(rng, 40, 80)}
    seen = set()
    for name, f in formulas.items():
        path = tmp_path / f"{name}.cnf"
        path.write_text(serialize_dimacs(f))
        decisions = cover_verdict(f)[2]["decisions"]
        for limit in sorted({1, decisions // 2, decisions - 1, decisions} - {0}):
            cover = main(["cover", str(path), "--limit", str(limit), "--json"])
            cover_out = capsys.readouterr().out
            code = main(["geometry", str(path), "--samples", "1", "--limit",
                         str(limit), "--json"])
            out, err = capsys.readouterr()
            assert (code == 3) == (cover == 3), (name, limit)
            if code == 3:
                assert err.startswith("error: cover search exceeded") and not out
            else:
                covered = json.loads(cover_out)["covered"]
                assert code == 0 and json.loads(out)["discrete_cover"] is covered
            seen.add(code)
    assert seen == {0, 3}
    php = str(tmp_path / "php6-5.cnf")
    monkeypatch.setenv("WITTSAT_LIMIT", "1")
    assert main(["geometry", php, "--samples", "1", "--json"]) == 3
    capsys.readouterr()


def test_geometry_reads_discrete_cover_on_an_unsat_file_at_n24(tmp_path, capsys):
    # 2^24 diagonal isometries: discrete_cover is the cover search's
    # verdict, which takes milliseconds here
    f = random_3sat(random.Random(24), 24, 144)
    assert dpll(f)[0]
    path = tmp_path / "ratio6-24.cnf"
    path.write_text(serialize_dimacs(f))
    assert main(["geometry", str(path), "--samples", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["discrete_cover"] is True


def test_internal_error_is_not_unsat(sat_file, monkeypatch, capsys):
    def crash(f, budget):
        raise RuntimeError("boom")

    monkeypatch.setattr("wittsat.cli.dpll", crash)
    assert main(["check", "--route", "dpll", sat_file]) == 4
    assert "error: internal: RuntimeError: boom" in capsys.readouterr().err


def test_a_value_error_inside_a_route_is_internal(sat_file, monkeypatch, capsys):
    # a defect that raises ValueError (numpy's shape mismatch) is no bad input
    def mismatched(f, budget):
        return np.zeros(3) + np.zeros(2)

    monkeypatch.setattr("wittsat.cli.dpll", mismatched)
    assert main(["check", "--route", "dpll", sat_file]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "error: internal: ValueError: operands could not be broadcast" in err


def test_a_failed_orthogonal_sample_is_internal(sat_file, monkeypatch, capsys):
    monkeypatch.setattr(
        np.linalg, "qr", lambda a: (np.full(a.shape, np.nan), np.ones(a.shape))
    )
    assert main(["geometry", sat_file, "--samples", "4"]) == 4
    assert "error: internal: RuntimeError: sampled orthogonality" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["check"], b"p cnf 2 1\n1 \xff 0\n", "can't decode byte 0xff"),
        (["check"], b"p cnf " + b"9" * 5000 + b" 1\n1 0\n", "4300 digits"),
        (["geometry", "--samples", "2", "--seed", "-3"], b"p cnf 2 1\n1 0\n",
         "--seed must be nonnegative, got -3"),
        (["geometry", "--seed", "-1"], b"p cnf 2 1\n1 0\n",
         "--seed must be nonnegative, got -1"),
        (["geometry", "--samples", "-5"], b"p cnf 2 1\n1 0\n",
         "--samples must be nonnegative, got -5"),
        (["models", "--max-enum", "-3"], b"p cnf 2 1\n1 0\n",
         "--max-enum must be nonnegative, got -3"),
        (["rebase"], b"2\n1 0\n0 1\n3\n1 0 0\n0 1 0\n0 0 1\n",
         "matrix sizes differ"),
        (["rebase"], b"2\n1 0\n0 x\n", "bad matrix entry"),
        (["rebase"], b"2\n1 0\n0\n", "truncated"),
        (["rebase"], b"c\n", "expected a matrix size"),
        (["rebase"], b"0\n", "bad matrix size"),
        (["rebase"], b"", "no matrices found"),
        # int() and float() also read '_' separators and other scripts'
        # digits (here Arabic-Indic), which the file formats do not
        (["check"], b"p cnf 12 1\n1_2 0\n", "line 2: bad token '1_2'"),
        (["check"], "p cnf 3 1\n1 \u0662 0\n".encode(),
         "line 2: bad token '\u0662'"),
        (["check"], "p cnf \u0663 1\n1 0\n".encode(), "line 1: malformed header"),
        (["rebase"], "2\n\u0661 0\n0 1\n2\n1 0\n0 1\n".encode(),
         "bad matrix entry: could not convert string to float: '\u0661'"),
        (["rebase"], b"2\n1 0\n0 1_0\n2\n1 0\n0 1\n",
         "bad matrix entry: could not convert string to float: '1_0'"),
        (["rebase"], "\u0662\n1 0\n0 1\n".encode(),
         "expected a matrix size, got '\u0662'"),
        # whitespace is ASCII only: another script's space (here no-break
        # space and the line separator) is part of a token
        (["check"], "p cnf 3 1\n\xa0c a comment\n1 2 0\n".encode(),
         "line 2: bad token '\\xa0c'"),
        (["check"], "p cnf 3 1\n1 2 0\u2028c a comment\n".encode(),
         "line 2: bad token '0\\u2028c'"),
        (["check"], "p cnf 3 1\xa0\n1 2 0\n".encode(), "line 1: malformed header"),
        (["rebase"], "2\n1\xa00\n0 1\n2\n1 0\n0 1\n".encode(),
         "bad matrix entry: could not convert string to float: '1\\xa00'"),
    ],
    ids=["utf8", "long-header", "seed", "seed-without-samples", "samples",
         "max-enum", "sizes", "entry", "truncated", "size-token", "size-zero",
         "empty", "underscore-token", "digit-token", "digit-header",
         "digit-entry", "underscore-entry", "digit-size", "nbsp-comment",
         "line-separator", "nbsp-header", "nbsp-entry"],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input"
    path.write_bytes(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_models_listing_and_json(sat_file, unsat_file, capsys):
    assert main(["models", sat_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "models: 1"
    assert "-1 2" in out
    assert main(["models", "--json", unsat_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0 and payload["models"] is None


MORE_THAN_ONE = "models: 3\n(more than --max-enum 1, not listed)\n"
THREE_UNLISTED = '{"count": 3, "m": 1, "models": null, "n": 2}\n'


@pytest.mark.parametrize(
    "text, argv, code, out",
    [
        # --limit 3 is below 2^2 cells, so these take the sparse form
        ("p cnf 2 2\n1 0\n-1 0\n", ["--limit", "3"], 1, "models: 0\n"),
        ("p cnf 2 1\n1 2 0\n", ["--max-enum", "1"], 0, MORE_THAN_ONE),
        ("p cnf 2 1\n1 2 0\n", ["--max-enum", "1", "--limit", "3"], 0,
         MORE_THAN_ONE),
        ("p cnf 2 1\n1 2 0\n", ["--max-enum", "1", "--json"], 0, THREE_UNLISTED),
        ("p cnf 2 1\n1 2 0\n", ["--max-enum", "1", "--limit", "3", "--json"], 0,
         THREE_UNLISTED),
    ],
    ids=["unsat-sparse", "over-cap-table", "over-cap-sparse",
         "over-cap-table-json", "over-cap-sparse-json"],
)
def test_models_prints_a_count_it_does_not_list(tmp_path, capsys, text, argv,
                                                code, out):
    path = tmp_path / "f.cnf"
    path.write_text(text)
    assert main(["models", str(path), *argv]) == code
    assert capsys.readouterr().out == out


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
    f.write_text("p cnf 7 1\n1 -7 0\n")
    assert main(["geometry", str(f)]) == 0
    assert capsys.readouterr().out == (
        "clause 1 -7 0: p1 q7\n(sign vectors not listed for n > 6)\n"
    )


# n=3 with a clause, a tautology, the clause again, an empty clause and a unit
PIN_TEXT = "p cnf 3 5\n-3 1 0\n2 -2 3 0\n-3 1 0\n0\n2 0\n"
PIN_OUTPUT = {
    ("cover",): (1, "***\n+*-\n+*-\n*+*\ncovered: yes\n"),
    ("cover", "--json"): (
        1,
        '{"covered": true, "n": 3, "patterns": ["***", "+*-", "+*-", "*+*"], '
        '"witness": null}\n',
    ),
    ("geometry",): (
        0,
        "clause -3 1 0: p1 q3\n"
        "clause 2 -2 3 0: (tautology, no plane)\n"
        "clause -3 1 0: p1 q3\n"
        "clause 2 0: p2\n"
        "assignment -1 -2 -3: +++\n"
        "assignment 1 -2 -3: -++\n"
        "assignment -1 2 -3: +-+\n"
        "assignment 1 2 -3: --+\n"
        "assignment -1 -2 3: ++-\n"
        "assignment 1 -2 3: -+-\n"
        "assignment -1 2 3: +--\n"
        "assignment 1 2 3: ---\n",
    ),
    ("geometry", "--json"): (
        0,
        '{"assignments": ['
        '{"assignment": [-1, -2, -3], "signs": "+++"}, '
        '{"assignment": [1, -2, -3], "signs": "-++"}, '
        '{"assignment": [-1, 2, -3], "signs": "+-+"}, '
        '{"assignment": [1, 2, -3], "signs": "--+"}, '
        '{"assignment": [-1, -2, 3], "signs": "++-"}, '
        '{"assignment": [1, -2, 3], "signs": "-+-"}, '
        '{"assignment": [-1, 2, 3], "signs": "+--"}, '
        '{"assignment": [1, 2, 3], "signs": "---"}], '
        '"clauses": ['
        '{"clause": "-3 1 0", "generators": ["p1", "q3"]}, '
        '{"clause": "2 -2 3 0", "generators": null}, '
        '{"clause": "-3 1 0", "generators": ["p1", "q3"]}, '
        '{"clause": "2 0", "generators": ["p2"]}], "n": 3}\n',
    ),
}


@pytest.mark.parametrize("argv", list(PIN_OUTPUT), ids=" ".join)
def test_cover_and_geometry_print_the_pinned_output(tmp_path, capsys, argv):
    path = tmp_path / "pin.cnf"
    path.write_text(PIN_TEXT)
    code, out = PIN_OUTPUT[argv]
    assert main([*argv, str(path)]) == code
    assert capsys.readouterr().out == out


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


@pytest.mark.parametrize("tol", ["inf", "1e300", "nan", "-1e-9", "1", "1.0"])
def test_rebase_refuses_a_tolerance_that_admits_any_matrix(tmp_path, capsys,
                                                           tol):
    # at tol >= 1 the orthogonality test passes even the zero matrix, and
    # the basis check passes any basis: [[1, 2], [3, 4]] used to exit 0
    pair = tmp_path / "pair.mat"
    pair.write_text("2\n1 2\n3 4\n" + matrix_to_text(np.eye(2)))
    assert main(["rebase", f"--tol={tol}", str(pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tol must be in [0, 1), got ")
    assert "Witt" not in err


def test_rebase_takes_a_zero_tolerance(tmp_path, capsys):
    pair = tmp_path / "pair.mat"
    pair.write_text(matrix_to_text(np.eye(3)) + matrix_to_text(-np.eye(3)))
    assert main(["rebase", "--tol", "0", "--json", str(pair)]) == 0
    assert max(json.loads(capsys.readouterr().out)["residuals"].values()) == 0.0
    skewed = tmp_path / "skew.mat"
    skewed.write_text("2\n1 2\n3 4\n" + matrix_to_text(np.eye(2)))
    assert main(["rebase", "--tol", "0", str(skewed)]) == 2
    assert "orthogonality residual" in capsys.readouterr().err


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


# the 3-cycle P: t1 = P, t2 = -I has t1^T t2 = -P^T, no eigenvalue 1, and
# every number in its basis is a multiple of 1/4, so the output is exact
_CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_TRANSVERSAL_OUT = """\
n: 3
p_side residual: 0.000e+00
pairing residual: 0.000e+00
q_side residual: 0.000e+00
p1:  1.000000  0.000000  0.000000  0.000000  1.000000  0.000000
p2:  0.000000  1.000000  0.000000  0.000000  0.000000  1.000000
p3:  0.000000  0.000000  1.000000  1.000000  0.000000  0.000000
q1:  0.250000  0.250000 -0.250000 -0.250000 -0.250000  0.250000
q2: -0.250000  0.250000  0.250000  0.250000 -0.250000 -0.250000
q3:  0.250000 -0.250000  0.250000 -0.250000  0.250000 -0.250000
"""


@pytest.mark.parametrize("text, code, out, err", [
    (matrix_to_text(_CYCLE) + matrix_to_text(-np.eye(3)), 0, _TRANSVERSAL_OUT,
     ""),
    (matrix_to_text(np.eye(3)) + matrix_to_text(np.diag([1.0, -1.0, -1.0])),
     1, "", "not transversal: planes meet in dimension 1\n"),
    ("2\n1 0\n0 nan\n" + matrix_to_text(np.eye(2)), 2, "",
     "error: row 2, column 2 is nan; an orthogonal matrix has finite "
     "entries\n"),
    ("2\n1e200 0\n0 1\n" + matrix_to_text(np.eye(2)), 2, "",
     "error: orthogonality residual overflows: row 1, column 1 is 1e+200; "
     "an orthogonal matrix has entries in [-1, 1]\n"),
    ("2\n1 0.5\n0 1\n" + matrix_to_text(np.eye(2)), 2, "",
     "error: orthogonality residual 5.000e-01 exceeds 1.0e-09\n"),
    (matrix_to_text(np.eye(2)) + matrix_to_text(np.eye(3)), 2, "",
     "error: matrix sizes differ\n"),
    # each matrix is checked before their sizes are compared
    (matrix_to_text(np.eye(2)) + "3\n1 0 0\n0 1 0\n0 0 2\n", 2, "",
     "error: orthogonality residual 3.000e+00 exceeds 1.0e-09\n"),
], ids=["transversal", "meeting", "non-finite", "overflow", "past-tol",
        "sizes", "past-tol-and-sizes"])
def test_rebase_plain_output_and_input_errors(tmp_path, capsys, text, code,
                                              out, err):
    path = tmp_path / "pair.txt"
    path.write_text(text)
    assert main(["rebase", str(path)]) == code
    got = capsys.readouterr()
    assert (got.out, got.err) == (out, err)


def test_console_entry_point_version():
    exe = shutil.which("wittsat")
    cmd = [exe] if exe else [sys.executable, "-m", "wittsat.cli"]
    # the subprocess imports the package this process imported, installed
    # or not
    source = str(Path(wittsat.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    got = subprocess.run(
        cmd + ["--version"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert got.stdout.strip() == "0.1.0"


def test_readme_names_exactly_the_registered_commands():
    # the usage line and the per-command bullets of the README's command
    # line section, against the subcommands the parser registers
    commands = sorted(_build_parser()[1])
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    usage = re.findall(r"^wittsat (\S+) \[options\] FILE$", text, re.M)
    assert [sorted(line.split("|")) for line in usage] == [commands]
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^\* `(\w+) ", section, re.M)) == commands


# F is a small satisfiable DIMACS file and M a transversal matrix pair,
# both in the working directory
DISPATCH_CORPUS = [
    ["check", "F"],
    ["check", "F", "--json"],
    ["check", "F", "--solver-codes"],
    ["check", "--route", "cover", "F"],
    ["models", "F"],
    ["models", "F", "--json"],
    ["cover", "F"],
    ["cover", "F", "--json"],
    ["geometry", "F"],
    ["geometry", "F", "--samples", "3", "--json"],
    ["rebase", "M"],
    ["rebase", "M", "--json"],
    [],
    ["-h"],
    ["check", "-h"],
    ["--version"],
    ["bogus"],
    ["check"],
    ["check", "F", "--bogus"],
    ["check", "F", "x", "y"],
    ["check", "F", "--rou", "dpll"],
    ["check", "F", "--limit=5"],
    ["check", "--", "F"],
    ["--", "check", "F"],
    ["check", "F", "--json", "--solver-codes"],
    ["check", "F", "--limit", "x"],
    ["check", "F", "--limit", "-5"],
    ["check", "F", "--version"],
    ["cover", "F", "--ver"],
    ["rebase", "a", "b", "c"],
]


def _answer(argv: list[str]) -> tuple:
    """Exit code (or SystemExit code), stdout and stderr of one call, with
    the wall-clock timings dropped from check's JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = ("SystemExit", e.code)
    text = out.getvalue()
    if text.startswith("{"):
        payload = json.loads(text)
        payload.pop("timings", None)
        text = json.dumps(payload, sort_keys=True)
    return code, text, err.getvalue()


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_a_call_answers_as_the_top_level_parse_did(tmp_path, monkeypatch, argv):
    (tmp_path / "F").write_text(SAT_TEXT)
    (tmp_path / "M").write_text(matrix_to_text(_CYCLE) + matrix_to_text(-np.eye(3)))
    monkeypatch.chdir(tmp_path)
    got = _answer(argv)
    # the reference: every call parsed by the top-level parser, which hands
    # a command's tokens to that command's parser
    parser, _ = _build_parser()
    monkeypatch.setattr(wittsat.cli, "_build_parser", lambda: (parser, {}))
    assert got == _answer(argv)


def test_a_command_call_makes_no_top_level_pass(sat_file, monkeypatch, capsys):
    parser, _ = _build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command's call")

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert main(["check", sat_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "SAT"
