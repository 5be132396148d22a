"""Command line interface.

Exit codes: 0 satisfiable (or report/rebase success), 1 unsatisfiable (or
planes not transversal), 2 bad input or bad usage (an InputError or an
OSError, or argparse's usage error: an unknown option or command, a missing
FILE, a non-integer --limit, --json together with --solver-codes), 3
resource limit exceeded, 4 internal error (route divergence, a model that
fails verification, or any other exception).  With --solver-codes the
check command uses the solver convention instead: 10 satisfiable, 20
unsatisfiable.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
import time
import warnings

from . import __version__
from .cnf import (
    Assignment,
    CnfFormula,
    InputError,
    ResourceLimitError,
    parse_dimacs,
)
from .geometry import cover_verdict, formula_patterns, plane_text, sign_text
from .oracle import dpll

# loaded on first use: cover, dpll and dump-only geometry never import these
# modules, and of them only ortho and the sparse form import numpy
_LAZY = {
    "algebra_models": "encoding",
    "algebra_verdict": "encoding",
    # count_models, encode_formula, models and zero_test_splits are not
    # called here; the benchmark's tracer wraps them by name on this module
    "count_models": "encoding",
    "encode_formula": "encoding",
    "models": "encoding",
    "zero_test_splits": "algebra",
    "NonTransversalError": "ortho",
    "checked_orthogonal": "ortho",
    "matrices_from_text": "ortho",
    "orthogonal_cover_report": "ortho",
    "rebase_residuals": "ortho",
    "witt_rebase": "ortho",
}
# the commands read the lazy names off this module object, which loads them
# on first use and returns any wrapper set on the module in their place
_THIS = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    """The file's text, or stdin's for ``-``: its bytes decoded as strict
    UTF-8 once, with no text layer, so the same bytes read alike either
    way.  A file is read unbuffered.  Line ends stay as written:
    ``splitlines`` and ``split``, which read the text, take ``\\r\\n`` and
    ``\\r`` as text mode would have taken its ``\\n``."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode()
        with open(path, "rb", buffering=0) as fh:
            return fh.read().decode()
    except UnicodeDecodeError as e:
        raise InputError(str(e)) from None


def _load_formula(path: str) -> CnfFormula:
    return parse_dimacs(_read_text(path))


def _budget(args) -> int | None:
    budget, source = args.limit, "--limit"
    if budget is None:
        raw = os.environ.get("WITTSAT_LIMIT", "").strip()
        if not raw:
            return None
        source = "WITTSAT_LIMIT"
        try:
            budget = int(raw)
        except ValueError:
            raise InputError(f"WITTSAT_LIMIT must be an integer, got {raw!r}") from None
    if budget < 1:
        raise InputError(f"{source} must be positive, got {budget}")
    return budget


def _nonnegative(value: int, name: str) -> int:
    if value < 0:
        raise InputError(f"{name} must be nonnegative, got {value}")
    return value


@functools.cache
def _json_encode():
    """One encoder for every --json call; json.dumps would build its own
    per call.  Only --json output loads json."""
    import json

    return json.JSONEncoder(sort_keys=True).encode


def _print_json(payload: dict) -> None:
    print(_json_encode()(payload))


def _verdict_name(unsat: bool) -> str:
    return "UNSAT" if unsat else "SAT"


# each route's verdict function, read off this module when the route runs
_ROUTES = {
    "algebra": lambda: _THIS.algebra_verdict,
    "cover": lambda: _THIS.cover_verdict,
    "dpll": lambda: _THIS.dpll,
}


def _cmd_check(args) -> int:
    f = _load_formula(args.file)
    route = args.route or ("all" if f.n <= 16 else "dpll")
    budget = _budget(args)
    verdicts: dict[str, bool] = {}
    timings: dict[str, float] = {}
    stats: dict[str, int] = {}
    found: dict[str, Assignment] = {}
    for name in _ROUTES if route == "all" else (route,):
        verdict = _ROUTES[name]()
        start = time.perf_counter()
        unsat, model, counters = verdict(f, budget)
        timings[name] = (time.perf_counter() - start) * 1000.0
        verdicts[name] = unsat
        # the algebra's counters print unprefixed
        prefix = "" if name == "algebra" else f"{name}_"
        stats.update((prefix + k, v) for k, v in counters.items())
        if model is not None:
            found[name] = model
    if len(set(verdicts.values())) > 1:
        detail = ", ".join(
            f"{k}={_verdict_name(v)}" for k, v in sorted(verdicts.items())
        )
        print(f"error: routes disagree: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    unsat = next(iter(verdicts.values()))
    for name, candidate in found.items():
        if not candidate.satisfies(f):
            print(f"error: {name} model failed verification", file=sys.stderr)
            return EXIT_INTERNAL
    model = found.get("dpll", found.get("cover", found.get("algebra")))
    if args.solver_codes:
        print(f"s {'UNSATISFIABLE' if unsat else 'SATISFIABLE'}")
        if model is not None:
            print("v " + " ".join(str(i) for i in model.to_ints()) + " 0")
        return 20 if unsat else 10
    if args.json:
        # timings are wall-clock milliseconds and vary run to run; every
        # other field is deterministic for a given input
        payload = {
            "n": f.n,
            "m": f.m,
            "routes": {k: _verdict_name(v) for k, v in verdicts.items()},
            "status": _verdict_name(unsat),
            "timings": {k: round(v, 3) for k, v in timings.items()},
            "stats": stats,
        }
        if model is not None:
            payload["model"] = list(model.to_ints())
        _print_json(payload)
    else:
        for name in sorted(verdicts):
            print(f"{name}: {_verdict_name(verdicts[name])}")
        print(f"status: {_verdict_name(unsat)}")
        if model is not None:
            print(f"model: {model}")
        if "patterns" in stats:
            print(
                f"patterns: {stats['patterns']}  slabs: {stats['slabs']}  "
                f"splits: {stats['splits']}"
            )
    return EXIT_UNSAT if unsat else EXIT_SAT


def _cmd_models(args) -> int:
    f = _load_formula(args.file)
    budget = _budget(args)
    max_enum = _nonnegative(args.max_enum, "--max-enum")
    total, listing = _THIS.algebra_models(f, budget, max_enum)
    if listing is not None and len(listing) != total:
        print("error: enumeration disagrees with the count", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        payload = {
            "n": f.n,
            "m": f.m,
            "count": total,
            "models": None if listing is None else [list(a.to_ints()) for a in listing],
        }
        _print_json(payload)
    else:
        print(f"models: {total}")
        if listing is not None:
            for a in listing:
                print(a)
        elif total:
            print(f"(more than --max-enum {max_enum}, not listed)")
    return EXIT_SAT if total else EXIT_UNSAT


def _cmd_cover(args) -> int:
    f = _load_formula(args.file)
    patterns = formula_patterns(f)
    covered, witness, _ = cover_verdict(f, _budget(args))
    if args.json:
        payload = {
            "n": f.n,
            "covered": covered,
            "patterns": patterns,
            "witness": None if witness is None else list(witness.to_ints()),
        }
        _print_json(payload)
    else:
        for pattern in patterns:
            print(pattern)
        print(f"covered: {'yes' if covered else 'no'}")
        if witness is not None:
            print(f"witness: {witness}")
    return EXIT_UNSAT if covered else EXIT_SAT


# Sign-vector listings grow as 2^n; above this only the clause planes print.
_SIGN_DUMP_MAX_N = 6


def _cmd_geometry(args) -> int:
    f = _load_formula(args.file)
    budget = _budget(args)
    samples = _nonnegative(args.samples, "--samples")
    seed = _nonnegative(args.seed, "--seed")
    clause_rows = [
        (str(c), None if c.is_tautological else plane_text(c)) for c in f.clauses
    ]
    sign_rows = None
    if f.n <= _SIGN_DUMP_MAX_N:
        sign_rows = [
            (a, sign_text(a))
            for a in (Assignment.from_mask(m, f.n) for m in range(1 << f.n))
        ]
    report = None
    if samples:
        report = _THIS.orthogonal_cover_report(f, samples, seed, budget=budget)
    if args.json:
        payload = {
            "n": f.n,
            "clauses": [
                {"clause": text, "generators": plane and plane.split()}
                for text, plane in clause_rows
            ],
            "assignments": None
            if sign_rows is None
            else [
                {"assignment": list(a.to_ints()), "signs": s} for a, s in sign_rows
            ],
        }
        if report is not None:
            payload.update(report)
        _print_json(payload)
    else:
        for text, plane in clause_rows:
            print(f"clause {text}: {plane or '(tautology, no plane)'}")
        if sign_rows is None:
            print(f"(sign vectors not listed for n > {_SIGN_DUMP_MAX_N})")
        else:
            for a, s in sign_rows:
                print(f"assignment {a}: {s}")
        if report is not None:
            for key in sorted(report):
                print(f"{key}: {report[key]}")
    return EXIT_SAT


def _cmd_rebase(args) -> int:
    # at tol >= 1 even the zero matrix passes as orthogonal: |0^T 0 - I| = 1
    if not 0.0 <= args.tol < 1.0:
        raise InputError(f"--tol must be in [0, 1), got {args.tol}")
    arrays = _THIS.matrices_from_text(_read_text(args.file))
    if args.file2 is not None:
        arrays += _THIS.matrices_from_text(_read_text(args.file2))
    if len(arrays) != 2:
        raise InputError(f"need exactly two matrices, got {len(arrays)}")
    t1, t2 = (_THIS.checked_orthogonal(a, args.tol) for a in arrays)
    if len(t1) != len(t2):
        raise InputError("matrix sizes differ")
    try:
        p_rows, q_rows, pairing = _THIS.witt_rebase(t1, t2, args.tol)
    except _THIS.NonTransversalError as e:
        print(f"not transversal: planes meet in dimension {e.intersection_dim}",
              file=sys.stderr)
        return EXIT_UNSAT
    res = {"pairing": pairing, **_THIS.rebase_residuals(p_rows, q_rows, t2)}
    if args.json:
        payload = {
            "n": len(t1),
            "residuals": res,
            "p_rows": p_rows.tolist(),
            "q_rows": q_rows.tolist(),
        }
        _print_json(payload)
    else:
        print(f"n: {len(t1)}")
        for key in sorted(res):
            print(f"{key} residual: {res[key]:.3e}")
        for i, row in enumerate(p_rows):
            print(f"p{i + 1}: " + " ".join(f"{x: .6f}" for x in row))
        for i, row in enumerate(q_rows):
            print(f"q{i + 1}: " + " ".join(f"{x: .6f}" for x in row))
    return EXIT_SAT


@functools.cache
def _build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser]
]:
    """The top-level parser and each command's own parser by name.

    A call that names a command is parsed by that command's parser alone
    (see ``main``); the top-level parser parses only a call that does not
    start with a command name.  Built on the first ``main`` call and
    reused: parsing leaves no state on a parser, and building them costs
    about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="wittsat",
        description="CNF satisfiability through null-plane algebra, "
        "sign-pattern covers, and orthogonal-matrix geometry.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide satisfiability")
    check.add_argument("file", help="DIMACS CNF file, or - for stdin")
    check.add_argument(
        "--route",
        choices=("algebra", "cover", "dpll", "all"),
        default=None,
        help="decision route (default: all for n <= 16, dpll above)",
    )
    check.add_argument(
        "--limit",
        type=int,
        default=None,
        help="budget: sparse terms and table cells for the algebra route, "
        "branching decisions for cover and dpll (default: WITTSAT_LIMIT env, "
        "else 2^20 terms, 2^22 cells and unbounded searches)",
    )
    output = check.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true")
    output.add_argument(
        "--solver-codes",
        action="store_true",
        help="emit s/v lines and exit 10 or 20",
    )
    check.set_defaults(func=_cmd_check)

    mdl = sub.add_parser("models", help="count and list satisfying assignments")
    mdl.add_argument("file", help="DIMACS CNF file, or - for stdin")
    mdl.add_argument(
        "--limit",
        type=int,
        default=None,
        help="sparse term and table cell budget for the encoding (default: "
        "WITTSAT_LIMIT env, else 2^20 terms and 2^22 cells)",
    )
    mdl.add_argument(
        "--max-enum",
        type=int,
        default=1024,
        help="list models only when the count is at most this (default 1024)",
    )
    mdl.add_argument("--json", action="store_true")
    mdl.set_defaults(func=_cmd_models)

    cov = sub.add_parser("cover", help="sign-pattern cover view of a formula")
    cov.add_argument("file", help="DIMACS CNF file, or - for stdin")
    cov.add_argument(
        "--limit",
        type=int,
        default=None,
        help="branching decision budget for the cover search (default: "
        "WITTSAT_LIMIT env, else unbounded)",
    )
    cov.add_argument("--json", action="store_true")
    cov.set_defaults(func=_cmd_cover)

    geo = sub.add_parser(
        "geometry",
        help="dump clause planes and assignment sign vectors; optionally "
        "sample the isometry group against them",
    )
    geo.add_argument("file", help="DIMACS CNF file, or - for stdin")
    geo.add_argument(
        "--samples",
        type=int,
        default=0,
        help="isometries to sample for the cover report (0 = dump only)",
    )
    geo.add_argument("--seed", type=int, default=0)
    geo.add_argument(
        "--limit",
        type=int,
        default=None,
        help="branching decision budget for the cover search behind the "
        "report's discrete_cover (default: WITTSAT_LIMIT env, else unbounded)",
    )
    geo.add_argument("--json", action="store_true")
    geo.set_defaults(func=_cmd_geometry)

    reb = sub.add_parser(
        "rebase", help="joint Witt basis for two orthogonal matrices"
    )
    reb.add_argument("file", help="matrix file (may hold both), or - for stdin")
    reb.add_argument("file2", nargs="?", default=None, help="second matrix file")
    reb.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="orthogonality tolerance for the inputs (default 1e-9)",
    )
    reb.add_argument("--json", action="store_true")
    reb.set_defaults(func=_cmd_rebase)

    return parser, sub.choices


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one ``warning: <message>`` line on stderr, without the
    source file, line and code that Python's own format adds."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        # no command name first: usage, help, --version or a usage error
        args = parser.parse_args(argv)
    else:
        # the top-level pass would hand these same tokens to the command's
        # parser and report what it leaves over; this does both directly
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # the warning filters in force stay as they are; only the format changes
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (InputError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_INPUT
        except ResourceLimitError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_LIMIT
        except Exception as e:
            # a defect, never a verdict: exit 1 would read as UNSAT, and
            # exit 2 as bad input; traceback loads here, off the start-up path
            import traceback

            traceback.print_exc()
            print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
