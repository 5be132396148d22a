#!/usr/bin/env python3
"""wittsat benchmark: seeded closed-loop workloads over the real CLI.

    python3 wittbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client sends one
``wittsat.cli.main(argv)`` call at a time, in whole rounds of the same
calls, starting a round only while it should end within S seconds; every
output is checked against an answer computed apart from the program (see
checks.py).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics, the end-to-end ones
with ``--trace 0`` and the per-layer ones with ``--trace 1``.  Per-call
records, raw wall times and spans go to ``.wittbench/runs/``.  README.md
gives the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread for every process the benchmark starts: set before numpy
# loads, and inherited by the worker and the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import instances as gen
from worker import REFERENCE_NOMINAL_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".wittbench"

SETUP_PROBES = 7
# Reference samples this far either side of a call set its scale: close
# enough to follow the machine's drift between neighbouring calls, wide
# enough to hold several samples (one per 200 ms of calls at least).
REFERENCE_WINDOW_S = 0.5
MAX_ENUM = 1024  # the default of `wittsat models --max-enum`
WORKER_GRACE_S = 120


@dataclass
class Op:
    """One CLI call of a round and the check of its output."""

    label: str
    argv: list[str]
    check: Callable[[dict], str | None]


class Inputs:
    """Writes the seeded instance files of one run into its own directory."""

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        self.rng = np.random.default_rng(seed)
        self.count = 0

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = self.dir / f"i{self.count:03d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def cnf(self, n: int, clauses) -> str:
        return self.write(gen.dimacs(n, clauses), ".cnf")


# ---------------------------------------------------------------- checks


def _json(rec: dict) -> dict:
    return json.loads(rec["stdout"])


def verdict_check(n: int, clauses, sat: bool, needs_model: bool) -> Callable:
    def check(rec):
        want = 0 if sat else 1
        if rec["code"] != want:
            return f"exit {rec['code']}, expected {want}"
        out = _json(rec)
        if out["status"] != ("SAT" if sat else "UNSAT"):
            return f"status {out['status']}"
        if len(set(out["routes"].values())) != 1:
            return f"routes disagree: {out['routes']}"
        model = out.get("model")
        if model is not None and (not sat or not checks.satisfies(clauses, model)):
            return "printed model does not satisfy the formula"
        if needs_model and sat and model is None:
            return "no model printed"
        if (out["n"], out["m"]) != (n, len(clauses)):
            return f"size {out['n']}/{out['m']}"
        return None

    return check


def models_check(n: int, clauses) -> Callable:
    count, found = checks.truth_table(n, clauses, keep=MAX_ENUM)

    def check(rec):
        want = 0 if count else 1
        if rec["code"] != want:
            return f"exit {rec['code']}, expected {want}"
        out = _json(rec)
        if out["count"] != count:
            return f"count {out['count']}, truth table {count}"
        listed = out["models"]
        if count == 0 or count > MAX_ENUM:
            return None if listed is None else "models listed past --max-enum"
        if listed is None or sorted(map(tuple, listed)) != sorted(found):
            return "model list differs from the truth table"
        return None

    return check


def geometry_check(n: int, clauses, samples: int, seed: int) -> Callable:
    count, _ = checks.truth_table(n, clauses, keep=0)
    low, high = (0.99, 1.0) if n % 2 else checks.binomial_band(samples)

    def check(rec):
        if rec["code"] != 0:
            return f"exit {rec['code']}"
        out = _json(rec)
        if out["discrete_cover"] != (count == 0):
            return f"discrete_cover {out['discrete_cover']} with {count} models"
        if out["strict_fraction"] != 0:
            return f"strict_fraction {out['strict_fraction']}"
        if not low <= out["transversal_fraction"] <= high:
            return f"transversal_fraction {out['transversal_fraction']} off [{low}, {high}]"
        if (out["n"], out["samples"], out["seed"]) != (n, samples, seed):
            return "report echoes the wrong n, samples or seed"
        rows = out["clauses"]
        if len(rows) != len(clauses):
            return f"{len(rows)} clause rows for {len(clauses)} clauses"
        for row, clause in zip(rows, clauses):
            want = [("p" if lit > 0 else "q") + str(abs(lit))
                    for lit in sorted(clause, key=abs)]
            if row["generators"] != want:
                return f"clause {clause}: generators {row['generators']}"
        return None

    return check


def rebase_check(t1: np.ndarray, t2: np.ndarray) -> Callable:
    def check(rec):
        if rec["code"] != 0:
            return f"exit {rec['code']}"
        out = _json(rec)
        errors = checks.witt_basis_errors(
            np.array(out["p_rows"]), np.array(out["q_rows"]), t1, t2
        )
        return "; ".join(errors) or None

    return check


def meet_check(r: int) -> Callable:
    def check(rec):
        if rec["code"] != 1:
            return f"exit {rec['code']}, expected 1"
        if f"dimension {r}" not in rec["stderr"]:
            return f"rejection does not name dimension {r}: {rec['stderr'][:120]!r}"
        return None

    return check


# ------------------------------------------------------------- workloads


def _threshold(n: int) -> int:
    return round(4.26 * n)


# The n=15 call of check-dense is one fixed threshold formula under a seeded
# renaming of its variables: fresh instances cost 3.4-4.9 s, and that one
# call's share of the round would make ops_per_s depend on the seed.
DENSE_N15_BASE_SEED = 15


def check_dense(inp: Inputs) -> list[Op]:
    ops = []
    base15 = gen.random_3sat(np.random.default_rng(DENSE_N15_BASE_SEED), 15, _threshold(15))
    for n, copies in ((13, 8), (14, 80), (15, 1)):
        for _ in range(copies):
            if n == 15:
                clauses = gen.renamed(inp.rng, n, base15)
            else:
                clauses = gen.random_3sat(inp.rng, n, _threshold(n))
            sat = bool(checks.truth_table(n, clauses, keep=0)[0])
            ops.append(Op(f"check-n{n}", ["check", inp.cnf(n, clauses), "--json"],
                          verdict_check(n, clauses, sat, needs_model=True)))
    for n, copies in ((12, 3), (13, 3)):
        for _ in range(copies):
            clauses = gen.random_3sat(inp.rng, n, 3 * n)
            ops.append(Op(f"models-n{n}", ["models", inp.cnf(n, clauses), "--json"],
                          models_check(n, clauses)))
    return ops


def check_sparse(inp: Inputs) -> list[Op]:
    ops = []
    for n, ratio, copies in ((20, 1.0, 200), (20, 1.5, 3), (22, 1.25, 3)):
        for _ in range(copies):
            clauses = gen.random_3sat(inp.rng, n, round(ratio * n))
            sat = bool(checks.truth_table(n, clauses, keep=0)[0])
            ops.append(Op(f"algebra-n{n}-r{ratio}",
                          ["check", inp.cnf(n, clauses), "--route", "algebra", "--json"],
                          verdict_check(n, clauses, sat, needs_model=False)))
    n, clauses = gen.pigeonhole(3)
    ops.append(Op("algebra-php4-3",
                  ["check", inp.cnf(n, clauses), "--route", "algebra", "--json"],
                  verdict_check(n, clauses, False, needs_model=False)))
    return ops


SEARCH_RANDOM = (
    # (route, family, n, copies)
    ("cover", "threshold", 26, 6),
    ("dpll", "threshold", 45, 6),
    ("cover", "planted", 30, 3),
    ("dpll", "planted", 50, 3),
)
# (route, holes, copies) of pigeonhole formulas under a seeded renaming
SEARCH_PIGEONHOLE = (
    ("dpll", 6, 24),
    ("cover", 5, 8),
)


def search(inp: Inputs) -> list[Op]:
    ops, cases = [], []
    for route, family, n, copies in SEARCH_RANDOM:
        for _ in range(copies):
            if family == "planted":
                clauses, sat = gen.planted_3sat(inp.rng, n, _threshold(n)), True
            else:
                clauses = gen.random_3sat(inp.rng, n, _threshold(n))
                sat = checks.solve(n, clauses) is not None
            cases.append((route, f"{family}-n{n}", n, clauses, sat))
    for route, holes, copies in SEARCH_PIGEONHOLE:
        for _ in range(copies):
            n, clauses = gen.pigeonhole(holes, inp.rng)
            cases.append((route, f"php{holes + 1}-{holes}-renamed", n, clauses, False))
    n, clauses = gen.pigeonhole(6)
    cases += [(route, "php7-6", n, clauses, False) for route in ("cover", "dpll")]
    # 1200 independent pairs: satisfiable, and deep enough that both
    # recursive searches raise RecursionError today.
    n, clauses = gen.independent_pairs(1200)
    cases += [(route, "pairs-1200", n, clauses, True) for route in ("cover", "dpll")]
    paths: dict[int, str] = {}
    for route, label, n, clauses, sat in cases:
        path = paths.setdefault(id(clauses), inp.cnf(n, clauses))
        ops.append(Op(f"{route}-{label}",
                      ["check", path, "--route", route, "--json"],
                      verdict_check(n, clauses, sat, needs_model=True)))
    return ops


GEOMETRY_SAMPLES = 500
GEOMETRY_COPIES = 3


def geometry(inp: Inputs) -> list[Op]:
    ops = []
    samples = GEOMETRY_SAMPLES
    seed = int(inp.rng.integers(1 << 31))
    for n in (7, 8, 9, 10):
        for _ in range(GEOMETRY_COPIES):
            for clauses in (gen.all_sign(inp.rng, n),
                            gen.planted_3sat(inp.rng, n, _threshold(n))):
                argv = ["geometry", inp.cnf(n, clauses), "--samples", str(samples),
                        "--seed", str(seed), "--json"]
                ops.append(Op(f"geometry-n{n}", argv,
                              geometry_check(n, clauses, samples, seed)))
    for meet in (0,) * 6 + (1, 2, 3):
        t1, t2 = gen.orthogonal_pair(inp.rng, 129, meet)
        argv = ["rebase", inp.write(gen.matrices_text(t1, t2), ".txt"), "--json"]
        check = meet_check(meet) if meet else rebase_check(t1, t2)
        ops.append(Op(f"rebase-meet{meet}", argv, check))
    return ops


def layer_probes(inp: Inputs) -> list[Op]:
    """One small call into every layer, appended to every workload's round
    and also run once untimed as the warm-up: a seeded n=6 formula through
    ``check`` (all routes), ``models`` and ``geometry``, and two 6x6 pairs
    through ``rebase``, one transversal and one meeting in dimension 1.  So
    no per-layer time reads 0 merely because a workload does not use that
    layer."""
    n = 6
    clauses = gen.planted_3sat(inp.rng, n, 20)
    path = inp.cnf(n, clauses)
    seed = int(inp.rng.integers(1 << 31))
    t1, t2 = gen.orthogonal_pair(inp.rng, n, 0)
    meeting = gen.matrices_text(*gen.orthogonal_pair(inp.rng, n, 1))
    return [
        Op("probe-check", ["check", path, "--json"],
           verdict_check(n, clauses, True, needs_model=True)),
        Op("probe-models", ["models", path, "--json"], models_check(n, clauses)),
        Op("probe-geometry", ["geometry", path, "--samples", "20", "--seed", str(seed), "--json"],
           geometry_check(n, clauses, 20, seed)),
        Op("probe-rebase", ["rebase", inp.write(gen.matrices_text(t1, t2), ".txt"), "--json"],
           rebase_check(t1, t2)),
        Op("probe-meet", ["rebase", inp.write(meeting, ".txt"), "--json"], meet_check(1)),
    ]


WORKLOADS = {
    "check-dense": check_dense,
    "check-sparse": check_sparse,
    "search": search,
    "geometry": geometry,
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, what to sum: "ms" or a count key)
LAYER_METRICS = {
    "cnf.parse_ms": ("parse_dimacs", "ms"),
    "cnf.clauses": ("parse_dimacs", "clauses"),
    "encoding.encode_ms": ("encode_formula", "ms"),
    "encoding.terms_out": ("encode_formula", "terms_out"),
    "encoding.primitive_products": ("encode_formula", "primitive"),
    "encoding.count_ms": ("count_models", "ms"),
    "encoding.models_ms": ("models", "ms"),
    "algebra.zero_ms": ("zero_test_splits", "ms"),
    "algebra.zero_splits": ("zero_test_splits", "splits"),
    "geometry.cover_ms": ("cover_verdict", "ms"),
    "geometry.patterns": ("cover_verdict", "patterns"),
    "geometry.witnesses": ("cover_verdict", "witnesses"),
    "oracle.dpll_ms": ("dpll", "ms"),
    "ortho.report_ms": ("orthogonal_cover_report", "ms"),
    "ortho.samples": ("orthogonal_cover_report", "samples"),
    "ortho.parse_ms": ("matrices_from_text", "ms"),
    "ortho.rebase_ms": ("witt_rebase", "ms"),
    "ortho.residuals_ms": ("rebase_residuals", "ms"),
    "ortho.rebased": ("witt_rebase", "rebased"),
    "ortho.rejected": ("witt_rebase", "rejected"),
}


# --------------------------------------------------------------- running


_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from worker import reference_ms, REFERENCE_NOMINAL_MS
before = reference_ms()
t0 = time.perf_counter()
import wittsat.cli
t1 = time.perf_counter()
ref = (before + reference_ms()) / 2
print(t1 - t0, (t1 - t0) * REFERENCE_NOMINAL_MS / ref)
"""


def measure_setup(probes: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds for a fresh interpreter to import wittsat.cli.
    One unmeasured probe first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for i in range(probes + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(HERE)],
            env=env, capture_output=True, text=True, timeout=30, check=True,
        )
        raw, scaled = map(float, proc.stdout.split())
        if i:
            out.append((raw, scaled))
    return out


def run_worker(ops: list[Op], warmup: list[Op], run_dir: Path, seconds: int,
               trace: bool) -> tuple[list[dict], dict]:
    plan_path = run_dir / "plan.json"
    results_path = run_dir / "results.jsonl"
    plan_path.write_text(json.dumps({
        "src": str(SRC),
        "warmup": [op.argv for op in warmup],
        "ops": [op.argv for op in ops],
        "seconds": seconds,
        "trace": trace,
    }), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(plan_path), str(results_path)])
    try:
        code = proc.wait(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in time") from None
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    records = [json.loads(line) for line in results_path.read_text(encoding="utf-8").splitlines()]
    return records[:-1], records[-1]


def scale_calls(records: list[dict], references: list[tuple[float, float]]) -> None:
    """Set each call's ``ms``: its raw wall time times the nominal over the
    median reference time sampled from REFERENCE_WINDOW_S before it starts
    to REFERENCE_WINDOW_S after it ends.  One sample alone is too noisy,
    above all for a call of several seconds with a sample only at each end."""
    times = [t for t, _ in references]
    for rec in records:
        lo = bisect.bisect_left(times, rec["t0"] - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(times, rec["t1"] + REFERENCE_WINDOW_S)
        ref = statistics.median(ms for _, ms in references[lo:hi])
        rec.update(ref_ms=ref, scale=REFERENCE_NOMINAL_MS / ref,
                   ms=rec["raw_ms"] * REFERENCE_NOMINAL_MS / ref)


def layer_metrics(records: list[dict], summary: dict) -> dict[str, float]:
    scale = {r["seq"]: r["scale"] for r in records}
    totals = dict.fromkeys(LAYER_METRICS, 0.0)
    child_ms: dict[int, float] = {}
    for span in summary["spans"]:
        ms = (span["t1"] - span["t0"]) * 1000.0 * scale[span["op"]]
        child_ms[span["op"]] = child_ms.get(span["op"], 0.0) + ms
        for metric, (name, key) in LAYER_METRICS.items():
            if span["name"] == name:
                totals[metric] += ms if key == "ms" else span["counts"].get(key, 0)
    self_ms = sum(r["ms"] - child_ms.get(r["seq"], 0.0) for r in records)
    rounds = summary["rounds"]
    values = {k: v / rounds for k, v in totals.items()}
    values["cli.self_ms"] = self_ms / rounds
    return values


def _failure(rec: dict) -> str | None:
    """Why a call gave no answer: it raised out of ``cli.main``, or it
    exited 2 (bad input) or 3 (resource limit).  None when it answered."""
    if rec["error"] is not None:
        return rec["error"]
    if rec["code"] in (2, 3):
        return f"exit {rec['code']}: {rec['stderr'].strip()[:200]}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wittsat" / "cli.py").is_file():
        print(f"error: no wittsat sources under {SRC}", file=sys.stderr)
        return 2

    setup = measure_setup(SETUP_PROBES)
    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = Inputs(run_dir, args.seed)
        probes = layer_probes(inputs)
        ops = WORKLOADS[args.workload](inputs) + probes
        records, summary = run_worker(ops, probes, run_dir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    scale_calls(records, summary["references"])

    completed, problems = [], []
    correct = True
    for rec in records:
        op = ops[rec["op"]]
        failure = _failure(rec)
        try:
            problem = failure or op.check(rec)
        except (ValueError, KeyError, TypeError) as e:  # output not as documented
            problem = f"unreadable output: {type(e).__name__}: {e}"
        if failure is None:
            completed.append(rec)
            correct &= problem is None
        if problem is not None and rec["round"] == 0:
            problems.append(f"{op.label} (op {rec['op']}): {problem}")
        rec["label"] = op.label
        rec["problem"] = problem
        del rec["stdout"]
    attempted = len(records)

    if args.trace:
        metrics = {name: {"value": value, "unit": "ms" if name.endswith("_ms") else "count"}
                   for name, value in layer_metrics(records, summary).items()}
    else:
        timed_s = sum(r["ms"] for r in records) / 1000.0
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "ops_per_s": len(completed) / timed_s,
            "latency_p50_ms": statistics.median(r["ms"] for r in completed),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    out_dir = WORK / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}{'-trace' if args.trace else ''}"
    (out_dir / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": summary["rounds"], "wall_s": summary["wall_s"],
        "setup_raw_s": [r for r, _ in setup], "setup_scaled_s": [s for _, s in setup],
        "calls": records, "references": summary["references"],
        "spans": summary["spans"], "metrics": metrics,
    }, indent=1), encoding="utf-8")

    for line in problems:
        print(f"problem: {line}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - len(completed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
