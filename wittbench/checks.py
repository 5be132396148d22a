"""Answers computed apart from the program under test.

Nothing here imports ``wittsat``: verdicts come from a numpy truth table or
from a small iterative DPLL of the benchmark's own, models are checked by
evaluating the clauses directly, and Witt bases are re-paired with numpy.
"""

from __future__ import annotations

import math

import numpy as np

TRUTH_TABLE_MAX_N = 22
# Largest residual accepted in a re-paired Witt basis (entries are O(1)).
WITT_TOL = 1e-7
_CHUNK = 1 << 16


def satisfies(clauses: list[tuple[int, ...]], model: list[int]) -> bool:
    """True when the signed-literal model makes every clause true."""
    true_lits = set(model)
    return all(any(lit in true_lits for lit in c) for c in clauses)


def _model_lits(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v if (mask >> (v - 1)) & 1 else -v for v in range(1, n + 1))


def truth_table(
    n: int, clauses: list[tuple[int, ...]], keep: int
) -> tuple[int, list[tuple[int, ...]]]:
    """(model count, the models as signed literals if there are at most
    ``keep`` of them, else []); bit v-1 of a table index is variable v.
    Small chunks keep the table from raising the process's peak memory."""
    if n > TRUTH_TABLE_MAX_N:
        raise ValueError(f"truth table over n={n} is too large")
    count = 0
    found: list[int] = []
    for start in range(0, 1 << n, _CHUNK):
        sigma = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        true = [None] + [((sigma >> (v - 1)) & 1).astype(bool) for v in range(1, n + 1)]
        false = [None] + [~t for t in true[1:]]
        ok = np.ones(sigma.size, dtype=bool)
        for c in clauses:
            sat = np.zeros(sigma.size, dtype=bool)
            for lit in c:
                sat |= true[lit] if lit > 0 else false[-lit]
            ok &= sat
        hits = sigma[ok]
        count += hits.size
        if count <= keep:
            found.extend(int(x) for x in hits)
    return count, [_model_lits(m, n) for m in found] if count <= keep else []


def solve(n: int, clauses: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """A model or None, by DPLL with an explicit trail (no recursion):
    unit propagation by full clause scans, branching on the variable that
    occurs most often in the shortest open clauses, false first."""
    value = [0] * (n + 1)  # +1 true, -1 false, 0 open
    trail: list[int] = []
    decisions: list[tuple[int, int, bool]] = []  # (trail length, literal, flipped)

    def lit_value(lit: int) -> int:
        v = value[abs(lit)]
        return v if lit > 0 else -v

    def propagate() -> tuple[bool, list[tuple[int, ...]]]:
        while True:
            open_clauses = []
            unit = 0
            for c in clauses:
                free = []
                sat = False
                for lit in c:
                    lv = lit_value(lit)
                    if lv > 0:
                        sat = True
                        break
                    if lv == 0:
                        free.append(lit)
                if sat:
                    continue
                if not free:
                    return False, []
                if len(free) == 1:
                    unit = free[0]
                    break
                open_clauses.append(tuple(free))
            if not unit:
                return True, open_clauses
            value[abs(unit)] = 1 if unit > 0 else -1
            trail.append(unit)

    def assign(lit: int) -> None:
        value[abs(lit)] = 1 if lit > 0 else -1
        trail.append(lit)

    while True:
        ok, open_clauses = propagate()
        if ok and not open_clauses:
            return tuple(v if value[v] >= 0 else -v for v in range(1, n + 1))
        if ok:
            shortest = min(len(c) for c in open_clauses)
            score: dict[int, int] = {}
            for c in open_clauses:
                if len(c) == shortest:
                    for lit in c:
                        score[abs(lit)] = score.get(abs(lit), 0) + 1
            var = max(sorted(score), key=lambda v: score[v])
            decisions.append((len(trail), -var, False))
            assign(-var)
            continue
        while decisions and decisions[-1][2]:
            decisions.pop()
        if not decisions:
            return None
        mark, lit, _ = decisions.pop()
        for undone in trail[mark:]:
            value[abs(undone)] = 0
        del trail[mark:]
        decisions.append((mark, -lit, True))
        assign(-lit)


def binomial_band(samples: int) -> tuple[float, float]:
    """Five standard deviations (plus one sample) either side of a fair
    coin's share of heads in ``samples`` tosses."""
    half = 5.0 * math.sqrt(0.25 / samples) + 1.0 / samples
    return 0.5 - half, 0.5 + half


def neutral_gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = u.shape[1] // 2
    return u[:, :n] @ v[:, :n].T - u[:, n:] @ v[:, n:].T


def witt_basis_errors(
    p: np.ndarray, q: np.ndarray, t1: np.ndarray, t2: np.ndarray
) -> list[str]:
    """Why (p, q) is not a joint Witt basis with p in the graph plane of t1
    and q in the graph plane of t2; empty when it is one."""
    n = t1.shape[0]
    if p.shape != (n, 2 * n) or q.shape != (n, 2 * n):
        return [f"basis shape {p.shape}/{q.shape}, expected ({n}, {2 * n})"]
    checks = {
        "2B(p_i,q_j)-delta_ij": 2.0 * neutral_gram(p, q) - np.eye(n),
        "B(p_i,p_j)": neutral_gram(p, p),
        "B(q_i,q_j)": neutral_gram(q, q),
        "p off graph(t1)": p[:, n:] - p[:, :n] @ t1.T,
        "q off graph(t2)": q[:, n:] - q[:, :n] @ t2.T,
    }
    errors = []
    for name, residual in checks.items():
        worst = float(np.abs(residual).max())
        if not worst <= WITT_TOL:
            errors.append(f"{name} residual {worst:.3e}")
    return errors
