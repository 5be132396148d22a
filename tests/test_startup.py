"""What a fresh ``wittsat`` process loads: the cover search, DPLL, the
plane dump and the algebra's value table run without numpy; the layers
that use it, the sparse product's cofactor walk and the orthogonal group,
load it on the first call that needs them.  Neither the import nor the
numpy-free commands load ``dataclasses``, ``inspect`` or ``traceback``; a
defect loads ``traceback`` to print itself, and only ``--json`` output
loads ``json``.  Every test that counts modules runs in
an interpreter of its own, since this one has imported them all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittsat
import wittsat.cli
from wittsat.cli import main

from plane_reference import matrix_to_text, sample_orthogonal
from test_surface import TRACED_CLI_NAMES

HEAVY = ("numpy", "wittsat.encoding", "wittsat.algebra", "wittsat.ortho")
# standard library modules that the import and the numpy-free commands
# leave unloaded (numpy itself loads inspect)
UNUSED = ("dataclasses", "inspect", "traceback")

# Runs main on each argv of argv[1] (a JSON list) and prints one JSON
# object: the heavy and unused modules loaded by the import, and per call
# the exit code, the standard output and those modules loaded after it.
CALLS = """
import contextlib, io, json, sys
import wittsat.cli
HEAVY = %r
def loaded():
    return [m for m in HEAVY if m in sys.modules]
result = {"import": loaded(), "calls": []}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = wittsat.cli.main(argv)
    result["calls"].append(
        {"code": code, "stdout": out.getvalue(), "loaded": loaded()}
    )
print(json.dumps(result))
""" % (HEAVY + UNUSED,)


def fresh_python(script: str, *args: str) -> dict:
    # the subprocess imports the package this process imported, installed
    # or not
    source = str(Path(wittsat.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(got.stdout)


def in_process(argv, capsys) -> dict:
    code = main(argv)
    return {"code": code, "stdout": capsys.readouterr().out}


@pytest.fixture
def files(tmp_path):
    paths = {
        "sat": "p cnf 2 2\n1 2 0\n-1 0\n",
        "unsat": "p cnf 1 2\n1 0\n-1 0\n",
        # n = 17 is past the cutoff of check's default route `all`
        "chain17": "p cnf 17 16\n"
        + "".join(f"{v} -{v + 1} 0\n" for v in range(1, 17)),
        # opposite determinant classes, so the pair is transversal at odd n
        "pair": matrix_to_text(sample_orthogonal(3, seed=1))
        + matrix_to_text(sample_orthogonal(3, seed=102)),
        "skew": "2\n1 2\n3 4\n2\n1 0\n0 1\n",
    }
    for name, text in paths.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_the_search_commands_never_load_numpy(files, capsys):
    # nor dataclasses, inspect or traceback
    argvs = [
        ["check", "--route", "dpll", files["sat"]],
        ["check", "--route", "cover", files["unsat"]],
        ["cover", files["sat"]],
        ["geometry", files["sat"]],
        ["check", files["chain17"]],
        # --tol is refused before the matrices are read
        ["rebase", "--tol", "inf", files["skew"]],
    ]
    got = fresh_python(CALLS, json.dumps(argvs))
    assert got["import"] == []
    for argv, call in zip(argvs, got["calls"]):
        assert call.pop("loaded") == [], argv
        assert call == in_process(argv, capsys), argv
    assert [call["code"] for call in got["calls"]] == [0, 1, 0, 0, 0, 2]


def test_the_table_form_never_loads_numpy(files, capsys):
    # within the cell budget check (its default route included) and models
    # walk the value table, nor do they load dataclasses, inspect or
    # traceback
    argvs = [
        ["check", files["sat"]],
        ["check", "--route", "algebra", files["unsat"]],
        ["models", files["sat"]],
        ["models", "--json", files["unsat"]],
    ]
    got = fresh_python(CALLS, json.dumps(argvs))
    assert got["import"] == []
    for argv, call in zip(argvs, got["calls"]):
        assert call.pop("loaded") == ["wittsat.encoding", "wittsat.algebra"], argv
        assert call == in_process(argv, capsys), argv
    assert [call["code"] for call in got["calls"]] == [0, 1, 0, 1]


def test_the_numpy_commands_load_their_layers_and_answer_as_before(
    files, capsys
):
    # a --limit below 2^n keeps the product sparse
    argvs = {
        "wittsat.encoding": [
            ["check", "--route", "algebra", "--limit", "3", files["sat"]],
            ["models", "--limit", "3", files["sat"]],
        ],
        "wittsat.ortho": [
            ["geometry", "--samples", "4", files["unsat"]],
            ["rebase", files["pair"]],
        ],
    }
    for module, group in argvs.items():
        got = fresh_python(CALLS, json.dumps(group))
        assert got["import"] == []
        for argv, call in zip(group, got["calls"]):
            loaded = call.pop("loaded")
            assert module in loaded and "numpy" in loaded, argv
            assert call == in_process(argv, capsys), argv
            assert call["code"] == 0, argv


def test_the_lazy_names_are_the_home_modules_objects():
    script = """
import importlib, json, sys
import wittsat.cli
got = {name: getattr(wittsat.cli, name) for name in json.loads(sys.argv[1])}
print(json.dumps({
    "same": [
        name for name, fn in got.items()
        if getattr(importlib.import_module(fn.__module__), name) is fn
    ],
    "nope": getattr(wittsat.cli, "nope", None),
}))
"""
    got = fresh_python(script, json.dumps(TRACED_CLI_NAMES))
    assert got == {"same": list(TRACED_CLI_NAMES), "nope": None}


def test_commands_call_the_lazy_names_by_their_cli_names(
    files, monkeypatch, capsys
):
    # as the benchmark's tracer (wittbench/worker.py) does, replace names
    # of the numpy-backed layers on wittsat.cli, loaded or not
    calls = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.add(name)
            return fn(*args, **kwargs)

        return wrapper

    names = (
        "matrices_from_text", "witt_rebase", "rebase_residuals",
        "orthogonal_cover_report", "algebra_verdict", "algebra_models",
    )
    for name in names:
        monkeypatch.setattr(
            f"wittsat.cli.{name}", recording(name, getattr(wittsat.cli, name))
        )
    assert main(["rebase", files["pair"]]) == 0
    assert main(["geometry", "--samples", "4", files["sat"]]) == 0
    assert main(["check", "--route", "algebra", files["sat"]]) == 0
    assert main(["models", files["sat"]]) == 0
    capsys.readouterr()
    assert calls == set(names)


def test_only_json_output_loads_json(files):
    # the script itself must not import json, so it prints its result by hand
    script = """
import contextlib, io, sys
import wittsat.cli
loaded = ["json" in sys.modules]
for flags in ([], ["--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        wittsat.cli.main(["check", "--route", "dpll", sys.argv[1], *flags])
    loaded.append("json" in sys.modules)
print(str(loaded).lower())
"""
    assert fresh_python(script, files["sat"]) == [False, False, True]


def test_a_defect_loads_traceback_to_print_itself(files):
    script = """
import contextlib, io, json, sys
import wittsat.cli
def crash(f, budget):
    raise RuntimeError("boom")
wittsat.cli.dpll = crash
before = "traceback" in sys.modules
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = wittsat.cli.main(["check", "--route", "dpll", sys.argv[1]])
print(json.dumps({"before": before, "code": code, "stderr": err.getvalue()}))
"""
    got = fresh_python(script, files["sat"])
    assert not got["before"]
    assert got["code"] == 4
    assert "Traceback" in got["stderr"]
    assert "error: internal: RuntimeError: boom" in got["stderr"]
