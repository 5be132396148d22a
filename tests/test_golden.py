"""End-to-end digests of the command line on a seeded DIMACS corpus.

The corpus spans n = 1-16 with clauses of width 1-6, tautologies, repeated
literals, units, empty clauses, comments, clauses split over lines, an
unterminated last clause, wrong header counts and malformed files.  Each
command below runs in process on every file, and the sha256 of its stdout,
stderr and exit code, with the wall-clock ``timings`` dropped from
``check``'s JSON, must equal the digest recorded before the parser and the
routes' clause setup were rewritten for speed.  A changed digest means
changed output; a changed corpus digest means the corpus changed and the
others prove nothing until they are recorded again.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import warnings

import pytest

from wittsat.cli import main

COMMANDS = {
    "check": ["check", "--json"],
    "check-algebra": ["check", "--route", "algebra", "--json"],
    "check-cover": ["check", "--route", "cover", "--json"],
    "check-dpll": ["check", "--route", "dpll", "--json"],
    "cover": ["cover", "--json"],
    "models": ["models", "--json"],
}

CORPUS_DIGEST = "23232dccfda90df6537b8eeaec5f868250ca008c7ad53b998db300a4ee793cae"
DIGESTS = {
    "check": "9be9f4177c189a0952ee319af5085cfb3e269ac380456f3aa05cc06309eb45a2",
    "check-algebra": "02324e53e198ad8a71495d46f891f1c024efa415983b038c230decd543adec7d",
    "check-cover": "6e0f1100c0ee8f03633a88fa776e85398afd458048fb0ee07f73c150aa52e672",
    "check-dpll": "eae1ae49b106857202d850205ab412f65a2dc30bbb705f9b4bc6551f1666ab5b",
    "cover": "5d4876d3665e9a793701b1960c44811f93f2454d73e1beab4837121bd0e43230",
    "models": "67dd10e9b531147000b28c854394423d0b143e738f57eda4f2392ea325f8006d",
}


def _clause(rng: random.Random, n: int) -> list[int]:
    width = rng.randint(1, min(n, 6))
    lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]
    kind = rng.random()
    if kind < 0.08:  # a tautology
        v = abs(rng.choice(lits))
        lits.insert(rng.randint(0, len(lits)), -v if v in lits else v)
    elif kind < 0.16:  # a repeated literal
        lits.insert(rng.randint(0, len(lits)), rng.choice(lits))
    return lits


def _text(rng: random.Random, n: int) -> str:
    """A DIMACS file over n variables, with the quirks the parser accepts."""
    m = rng.randint(0, round(rng.choice((1.0, 2.5, 4.3, 6.0)) * n) + 2)
    clauses = [_clause(rng, n) for _ in range(m)]
    if rng.random() < 0.1:
        clauses.insert(rng.randint(0, len(clauses)), [])  # an empty clause
    declared = len(clauses) + (rng.random() < 0.1)  # sometimes wrong
    lines = ["c seeded corpus", f"p cnf {n} {declared}"]
    for lits in clauses:
        words = [str(lit) for lit in lits] + ["0"]
        if len(words) > 2 and rng.random() < 0.1:  # one clause on two lines
            cut = rng.randint(1, len(words) - 1)
            lines += [" ".join(words[:cut]), " ".join(words[cut:])]
        else:
            lines.append(" ".join(words))
        if rng.random() < 0.05:
            lines.append("c a comment between clauses")
    if lines[-1] != "0" and lines[-1].endswith(" 0") and rng.random() < 0.05:
        lines[-1] = lines[-1][:-2]  # an unterminated final clause
    elif rng.random() < 0.05:
        lines += ["%", "0"]  # an archive's trailer, which ends the input
    return "\n".join(lines) + "\n"


# each malformed file exits 2 from every command
MALFORMED = [
    "p cnf 3 1\n1 -4 0\n",
    "p cnf 3 1\n-4 1 0\n",
    "p cnf 3 2\n1 2 0\n-0 3 0\n",
    "p cnf 3 1\n1 x 0\n",
    "p cnf 0 0\n",
    "1 2 0\n",
]


def corpus() -> list[str]:
    rng = random.Random(3203)
    texts = [_text(rng, n) for n in range(1, 17) for _ in range(10)]
    return texts + MALFORMED


def _run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "check" and code in (0, 1):
        payload = json.loads(stdout)
        del payload["timings"]
        stdout = json.dumps(payload, sort_keys=True) + "\n"
    return f"{code}\n{stdout}\n{err.getvalue()}\n".encode()


def command_digest(paths: list[str], args: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(_run([args[0], path, *args[1:]]))
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = []
    for i, text in enumerate(corpus()):
        path = root / f"f{i:03d}.cnf"
        path.write_text(text)
        paths.append(str(path))
    return paths


def test_the_corpus_is_the_recorded_one():
    digest = hashlib.sha256("\0".join(corpus()).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_matches_the_recorded_digest(corpus_paths, name):
    assert command_digest(corpus_paths, COMMANDS[name]) == DIGESTS[name]
