"""Timed closed loop over in-process ``wittsat.cli.main`` calls.

Run by ``run.py`` in a process of its own, so that ``ru_maxrss`` measures
the program and this loop only, not the benchmark's generators and
checkers:

    python3 wittbench/worker.py PLAN.json RESULTS.jsonl

The plan names the source tree, the warm-up calls, one round of calls, the
run length and whether to trace.  Every call is timed in wall time, and
the reference loop (``reference_loop``) is timed between calls, so that
``run.py`` can scale each call by the machine's speed around it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

# Median time of one reference_loop() on the machine the figures in
# README.md come from; a scaled time reads as milliseconds on that machine
# at its typical speed.
REFERENCE_NOMINAL_MS = 12.5
# Short calls share a reference sample until they add up to this.
REFERENCE_EVERY_MS = 200.0


def reference_loop() -> int:
    """A fixed loop that builds and probes a dict of 50,000 ints.  Its
    working set spills out of the private caches, like the program's
    larger term tables, so it slows with the machine the way they do."""
    d = {}
    for i in range(50000):
        d[(i * 2654435761) & 0xFFFFFF] = i
    s = 0
    for i in range(0, 50000, 3):
        s += d.get((i * 40503) & 0xFFFFFF, 0)
    return s


def reference_ms() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) * 1000.0


class Tracer:
    """Wraps the layer functions as ``wittsat.cli`` sees them and keeps one
    span per call in memory: layer name, start, end, the operation that
    caused it and the counts read off its arguments and result."""

    def __init__(self, cli):
        self.spans: list[dict] = []
        self.op = -1
        from wittsat.algebra import identity_count
        from wittsat.ortho import NonTransversalError

        def formula_counts(args, result):
            return {"clauses": result.m}

        def encode_counts(args, result):
            primitive = result.term_count > 0 and all(
                identity_count(p, result.n) == 0 for p in result.terms
            )
            return {"terms_out": result.term_count, "primitive": int(primitive)}

        def zero_counts(args, result):
            return {"splits": result[1]}

        def cover_counts(args, result):
            f = args[0]
            live = sum(1 for c in f.clauses if not c.is_tautological)
            return {"patterns": live + int(f.has_empty_clause),
                    "witnesses": int(result[1] is not None)}

        def report_counts(args, result):
            return {"samples": result["samples"]}

        def rebase_counts(args, result):
            return {"rebased": 1}

        def none(args, result):
            return {}

        layers = {
            "parse_dimacs": formula_counts,
            "encode_formula": encode_counts,
            "zero_test_splits": zero_counts,
            "count_models": none,
            "models": none,
            "cover_verdict": cover_counts,
            "dpll": none,
            "orthogonal_cover_report": report_counts,
            "matrices_from_text": none,
            "witt_rebase": rebase_counts,
            "rebase_residuals": none,
        }
        self._rejected = NonTransversalError
        for name, counts in layers.items():
            setattr(cli, name, self._wrap(name, getattr(cli, name), counts))

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            span = {"op": self.op, "name": name, "counts": {}, "t0": time.perf_counter()}
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except self._rejected:
                span["counts"] = {"rejected": 1}
                raise
            finally:
                span["t1"] = time.perf_counter()
            span["counts"] = counts(args, result)
            return result

        return traced


def call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code
    except Exception as e:  # a fault in the program: counted as failed
        error = f"{type(e).__name__}: {str(e)[:200]}"
    t1 = time.perf_counter()
    return {
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "t0": t0,
        "t1": t1,
        "raw_ms": (t1 - t0) * 1000.0,
    }


class References:
    """Reference-loop samples taken between calls: one before the first
    call, then one after each call, or after a run of short calls once they
    add up to REFERENCE_EVERY_MS.  ``run.py`` scales each call by the
    samples around it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (mid time, ms)
        self.since_ms = 0.0
        self.take()

    def take(self) -> None:
        t = time.perf_counter()
        ms = reference_ms()
        self.samples.append((t + ms / 2000.0, ms))
        self.since_ms = 0.0

    def after(self, raw_ms: float) -> None:
        self.since_ms += raw_ms
        if self.since_ms >= REFERENCE_EVERY_MS:
            self.take()


def main(plan_path: str, results_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from wittsat import cli

    for argv in plan["warmup"]:
        call(cli, argv)
    tracer = Tracer(cli) if plan["trace"] else None
    ops = plan["ops"]
    seq = 0
    with open(results_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        refs = References()
        rounds = 0
        # Start another round only while it should end within the run length.
        while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= plan["seconds"]:
            for index, argv in enumerate(ops):
                if tracer is not None:
                    tracer.op = seq
                rec = call(cli, argv)
                rec.update(seq=seq, op=index, round=rounds)
                out.write(json.dumps(rec) + "\n")
                refs.after(rec["raw_ms"])
                seq += 1
            rounds += 1
        refs.take()
        wall = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = {"summary": True, "rounds": rounds, "wall_s": wall,
                   "peak_rss_kb": peak_kb, "references": refs.samples,
                   "spans": [] if tracer is None else tracer.spans}
        out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
