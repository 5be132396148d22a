"""Independent ground truth that the tests compare the routes against: an
exhaustive truth table, and an exact matrix image of the algebra on
2^n-dimensional column space.

Nothing here reuses the term engine's product or sign rules; the matrix
backend multiplies honest matrices built from generator ladders, which is
what makes it a meaningful cross-check.  Neither reads the encoding or the
cover route (tests/test_imports.py keeps it so).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wittsat.algebra import D_ID, DiagonalElement, pattern_field
from wittsat.cnf import Assignment, CnfFormula, ResourceLimitError

from algebra_reference import EFBTerm, NullVector

SAT = "SAT"
UNSAT = "UNSAT"

BRUTE_FORCE_LIMIT = 24
GAMMA_LIMIT = 5
_CHUNK = 1 << 20


@dataclass(frozen=True)
class BruteForceResult:
    verdict: str
    models: tuple[Assignment, ...]


def brute_force(f: CnfFormula) -> BruteForceResult:
    """Exhaustive truth-table run; the model list is complete."""
    if f.n > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"truth table over n={f.n} exceeds limit {BRUTE_FORCE_LIMIT}"
        )
    if f.has_empty_clause:
        return BruteForceResult(UNSAT, ())
    masks = []
    for c in f.clauses:
        pos = neg = 0
        for lit in c:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    total = 1 << f.n
    hits: list[int] = []
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        sigma = np.arange(start, stop, dtype=np.int64)
        ok = np.ones(stop - start, dtype=bool)
        for pos, neg in masks:
            ok &= ((sigma & pos) != 0) | ((~sigma & neg) != 0)
        hits.extend(int(x) for x in np.flatnonzero(ok) + start)
    models = tuple(Assignment.from_mask(m, f.n) for m in hits)
    return BruteForceResult(SAT if models else UNSAT, models)


def _halve(m: np.ndarray) -> np.ndarray:
    if any(v % 2 for v in m.flat):
        raise ArithmeticError("ladder sum has an odd entry; halving is not exact")
    return m // 2


def _kron_all(blocks) -> np.ndarray:
    out = blocks[0]
    for b in blocks[1:]:
        out = np.kron(out, b)
    return out


class GammaRep:
    """Exact matrix image of the algebra, dimension 2^n (n <= 5).

    Generators use the standard ladder: position i carries the real 2x2
    blocks X = [[0,1],[1,0]] (square +1) and Y = [[0,-1],[1,0]] (square -1),
    prefixed by sign-alternating blocks so distinct positions anticommute.
    The ladder sums gamma_2i-1 +- gamma_2i have even entries, so p_i and q_i
    are integer matrices.  Entries are Python ints in object arrays, exact
    at any coefficient size (int64 would wrap silently), so every check
    against this backend is a zero-tolerance comparison.

    With this choice the variable-true idempotent q_ip_i is diagonal with
    support on indices whose i-th bit (variable 1 most significant) is 0,
    matching ``Assignment.primitive_index``.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or not 1 <= n <= GAMMA_LIMIT:
            raise ValueError(f"matrix backend supports 1 <= n <= {GAMMA_LIMIT}")
        self.n = n
        self.dim = 1 << n
        x = np.array([[0, 1], [1, 0]], dtype=object)
        y = np.array([[0, -1], [1, 0]], dtype=object)
        z = np.array([[1, 0], [0, -1]], dtype=object)
        eye2 = np.eye(2, dtype=object)
        gammas = []
        for i in range(n):
            before, after = [z] * i, [eye2] * (n - 1 - i)
            gammas.append(_kron_all(before + [x] + after))
            gammas.append(_kron_all(before + [y] + after))
        self.gamma = tuple(gammas)
        self._p = tuple(
            _halve(self.gamma[2 * i] + self.gamma[2 * i + 1]) for i in range(n)
        )
        self._q = tuple(
            _halve(self.gamma[2 * i] - self.gamma[2 * i + 1]) for i in range(n)
        )
        self._symbols: dict[tuple[int, str], np.ndarray] = {}
        self._patterns: dict[int, np.ndarray] = {}

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=object)

    def p(self, i: int) -> np.ndarray:
        return self._p[i - 1]

    def q(self, i: int) -> np.ndarray:
        return self._q[i - 1]

    def vector_matrix(self, v: NullVector) -> np.ndarray:
        if v.index > self.n:
            raise ValueError(f"vector index {v.index} exceeds n={self.n}")
        return self.p(v.index) if v.kind == "p" else self.q(v.index)

    def _symbol_matrix(self, pos: int, text: str) -> np.ndarray:
        key = (pos, text)
        got = self._symbols.get(key)
        if got is None:
            p, q = self.p(pos), self.q(pos)
            got = {
                "qp": lambda: np.dot(q, p),
                "pq": lambda: np.dot(p, q),
                "p": lambda: p,
                "q": lambda: q,
                "1": lambda: np.dot(q, p) + np.dot(p, q),
            }[text]()
            self._symbols[key] = got
        return got

    def term_matrix(self, t: EFBTerm) -> np.ndarray:
        if t.n != self.n:
            raise ValueError(f"term over n={t.n}, backend over n={self.n}")
        out = None
        for i, text in enumerate(t.symbols(), start=1):
            m = self._symbol_matrix(i, text)
            out = m if out is None else np.dot(out, m)
        return out * t.coeff

    def _pattern_matrix(self, pattern: int) -> np.ndarray:
        got = self._patterns.get(pattern)
        if got is None:
            got = self.identity()
            for i in range(self.n):
                code = pattern_field(pattern, i)
                if code == D_ID:
                    continue
                text = "qp" if code == 0b01 else "pq"
                got = np.dot(got, self._symbol_matrix(i + 1, text))
            self._patterns[pattern] = got
        return got

    def element_matrix(self, a: DiagonalElement) -> np.ndarray:
        if a.n != self.n:
            raise ValueError(f"element over n={a.n}, backend over n={self.n}")
        out = np.zeros((self.dim, self.dim), dtype=object)
        for pat, c in a.terms.items():
            out = out + self._pattern_matrix(pat) * c
        return out

    def matrix_of(self, x) -> np.ndarray:
        if isinstance(x, DiagonalElement):
            return self.element_matrix(x)
        if isinstance(x, EFBTerm):
            return self.term_matrix(x)
        if isinstance(x, NullVector):
            return self.vector_matrix(x)
        raise TypeError(f"cannot map {type(x).__name__} to a matrix")

    def check_generator_relations(self) -> bool:
        """gamma_i gamma_j + gamma_j gamma_i == 2 delta_ij (-1)^(i+1), exactly."""
        eye = self.identity()
        for i, gi in enumerate(self.gamma, start=1):
            for j, gj in enumerate(self.gamma, start=1):
                anti = np.dot(gi, gj) + np.dot(gj, gi)
                if i == j:
                    want = eye * (2 if i % 2 == 1 else -2)
                else:
                    want = eye * 0
                if not np.array_equal(anti, want):
                    return False
        return True
