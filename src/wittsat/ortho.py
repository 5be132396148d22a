"""Numerical layer over R^{n,n}: isometries as null planes, strict clause
membership, Haar-style sampling, and rebasing a transversal plane pair into
Witt position.

The neutral bilinear form on R^{2n} is B((x1,y1),(x2,y2)) = x1.x2 - y1.y2;
an orthogonal t gives the totally null graph plane {(x, t x)}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cnf import Clause, CnfFormula, TautologyError

CONSTRUCTION_TOL = 1e-9
VERIFY_TOL = 1e-6
SV_RELATIVE_CUTOFF = 1e-8


class NonOrthogonalMatrixError(ValueError):
    """The candidate matrix fails t^T t = I at the requested tolerance."""


class NonTransversalError(ValueError):
    """The two planes meet nontrivially, so no joint Witt basis exists."""

    def __init__(self, intersection_dim: int):
        super().__init__(
            f"planes intersect in dimension {intersection_dim}; "
            "rebasing needs a transversal pair"
        )
        self.intersection_dim = intersection_dim


@dataclass(frozen=True, eq=False)
class OrthogonalMatrix:
    n: int
    entries: np.ndarray
    tol: float = CONSTRUCTION_TOL

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix, got {m.shape}")
        residual = np.abs(m.T @ m - np.eye(self.n)).max()
        if residual > self.tol:
            raise NonOrthogonalMatrixError(
                f"orthogonality residual {residual:.3e} exceeds {self.tol:.1e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_array(cls, arr, tol: float = CONSTRUCTION_TOL) -> "OrthogonalMatrix":
        a = np.asarray(arr, dtype=float)
        return cls(a.shape[0], a, tol)

    @classmethod
    def identity(cls, n: int) -> "OrthogonalMatrix":
        return cls(n, np.eye(n))

    @classmethod
    def diagonal(cls, signs) -> "OrthogonalMatrix":
        signs = np.asarray(signs, dtype=float)
        return cls(len(signs), np.diag(signs))

    def det(self) -> float:
        return float(np.linalg.det(self.entries))


@dataclass(frozen=True, eq=False)
class NullFrame:
    """A basis of a totally null plane: rows of shape (dim, 2n)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] % 2 != 0:
            raise ValueError("frame rows must live in R^(2n)")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_n(self) -> int:
        return self.vectors.shape[1] // 2


def neutral_gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairwise B values between two row stacks in R^(2n)."""
    n = u.shape[1] // 2
    return u[:, :n] @ v[:, :n].T - u[:, n:] @ v[:, n:].T


def mtnp_from_isometry(t: OrthogonalMatrix) -> NullFrame:
    """The graph plane of t: row i is (e_i, t e_i)."""
    return NullFrame(np.hstack([np.eye(t.n), t.entries.T]))


def intersect_dim(
    f1: NullFrame, f2: NullFrame, rel_cutoff: float = SV_RELATIVE_CUTOFF
) -> int:
    """dim(span1) + dim(span2) - rank of the stacked rows."""
    if f1.ambient_n != f2.ambient_n:
        raise ValueError("frames live in different ambient spaces")
    stacked = np.vstack([f1.vectors, f2.vectors])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        rank = 0
    else:
        rank = int((sv > rel_cutoff * sv[0]).sum())
    return f1.dim + f2.dim - rank


def strict_membership(
    t: OrthogonalMatrix, clause: Clause, tol: float = VERIFY_TOL
) -> bool:
    """The clause plane lies inside the graph plane of t: every involved axis
    must be held with the required sign, + for a positive literal (p side)
    and - for a negated one (q side).  On diagonal sign matrices this is
    exactly the induced-pattern match."""
    if clause.is_tautological:
        raise TautologyError(f"tautological clause {clause} has no plane")
    for lit in clause.literals:
        if lit.var > t.n:
            raise ValueError(f"variable {lit.var} exceeds n={t.n}")
        col = t.entries[:, lit.var - 1]
        target = np.zeros(t.n)
        target[lit.var - 1] = -1.0 if lit.negated else 1.0
        if np.abs(col - target).max() > tol:
            return False
    return True


def _sample(n: int, rng: np.random.Generator) -> OrthogonalMatrix:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return OrthogonalMatrix(n, q * d)


def sample_orthogonal(n: int, seed: int) -> OrthogonalMatrix:
    """Haar-style draw: QR of a seeded Gaussian with R's diagonal signs
    absorbed into Q's columns.  Deterministic per seed."""
    return _sample(n, np.random.default_rng(seed))


def eigenvalue_one_multiplicity(m: np.ndarray, tol: float = VERIFY_TOL) -> int:
    return int((np.abs(np.linalg.eigvals(m) - 1.0) <= tol).sum())


@dataclass(frozen=True, eq=False)
class WittBasis:
    """Dual null bases: 2 B(p_i, q_j) = delta_ij and each side totally null."""

    p_vectors: np.ndarray
    q_vectors: np.ndarray
    tol: float = CONSTRUCTION_TOL

    def __post_init__(self):
        p = np.array(self.p_vectors, dtype=float)
        q = np.array(self.q_vectors, dtype=float)
        if p.shape != q.shape or p.ndim != 2 or p.shape[1] != 2 * p.shape[0]:
            raise ValueError("expected matching (n, 2n) row stacks")
        residual = self._residual(p, q)
        if residual > self.tol:
            raise ValueError(
                f"Witt pairing residual {residual:.3e} exceeds {self.tol:.1e}"
            )
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p_vectors", p)
        object.__setattr__(self, "q_vectors", q)

    @staticmethod
    def _residual(p: np.ndarray, q: np.ndarray) -> float:
        n = p.shape[0]
        pairing = 2.0 * neutral_gram(p, q) - np.eye(n)
        return float(
            max(
                np.abs(pairing).max(),
                np.abs(neutral_gram(p, p)).max(),
                np.abs(neutral_gram(q, q)).max(),
            )
        )

    @property
    def n(self) -> int:
        return self.p_vectors.shape[0]

    def pairing_residual(self) -> float:
        return self._residual(self.p_vectors, self.q_vectors)

    def coordinates(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) with row = sum alpha_i p_i + beta_i q_i."""
        alpha = 2.0 * neutral_gram(rows, self.q_vectors)
        beta = 2.0 * neutral_gram(rows, self.p_vectors)
        return alpha, beta


def witt_rebase(
    t1: OrthogonalMatrix, t2: OrthogonalMatrix, tol: float = VERIFY_TOL
) -> WittBasis:
    """A joint Witt basis with the graph plane of t1 as its p side and the
    graph plane of t2 as its q side.

    The planes are transversal exactly when t1^T t2 has no eigenvalue 1;
    otherwise the eigenvalue's multiplicity is the intersection dimension and
    the pair is rejected.  The q side is the unique basis of the second plane
    dual to the rows of the first under twice the neutral form.
    """
    if t1.n != t2.n:
        raise ValueError("matrix sizes differ")
    n = t1.n
    m = t1.entries.T @ t2.entries
    r = eigenvalue_one_multiplicity(m, tol)
    if r:
        raise NonTransversalError(r)
    p_rows = np.hstack([np.eye(n), t1.entries.T])
    b_rows = np.hstack([np.eye(n), t2.entries.T])
    gram = 2.0 * (np.eye(n) - m)  # gram[i, j] = 2 B(p_rows_i, b_rows_j)
    q_rows = np.linalg.solve(gram.T, b_rows)
    return WittBasis(p_rows, q_rows)


def rebase_residuals(
    basis: WittBasis, t1: OrthogonalMatrix, t2: OrthogonalMatrix
) -> dict[str, float]:
    """How exactly the input planes take the p/q coordinate shape."""
    a = mtnp_from_isometry(t1).vectors
    b = mtnp_from_isometry(t2).vectors
    _, beta_a = basis.coordinates(a)  # the first plane has no q components
    alpha_b, _ = basis.coordinates(b)  # the second has no p components
    return {
        "pairing": basis.pairing_residual(),
        "p_side": float(np.abs(beta_a).max()),
        "q_side": float(np.abs(alpha_b).max()),
    }


def orthogonal_cover_report(
    f: CnfFormula, samples: int, seed: int, *, tol: float = VERIFY_TOL
) -> dict:
    """Sampling report over the isometry group for a formula's clause family.

    discrete_cover: every +-1 diagonal isometry strictly holds some clause
    plane (the discrete mirror of the cover test).  strict_fraction: share
    of Haar samples strictly holding one; exact alignment has measure zero,
    so ~0 is the expected negative control.  transversal_fraction: share of
    samples whose graph plane can be rebased into Witt position against a
    coordinate reference plane; the all-p plane is tried first and the all-q
    plane second, since every sample with an eigenvalue pinned at +1 by its
    determinant class still generically avoids -1.  The p-only number is
    reported separately.
    """
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    n = f.n
    usable = [c for c in f.clauses if not c.is_tautological]
    if f.has_empty_clause:
        discrete = True
    else:
        discrete = True
        for signs in itertools.product((1.0, -1.0), repeat=n):
            t = OrthogonalMatrix.diagonal(signs)
            if not any(strict_membership(t, c, tol) for c in usable):
                discrete = False
                break
    rng = np.random.default_rng(seed)
    strict_hits = 0
    rebasable = 0
    p_side = 0
    reference_p = OrthogonalMatrix.identity(n)
    reference_q = OrthogonalMatrix(n, -np.eye(n))
    for _ in range(samples):
        t = _sample(n, rng)
        if usable and any(strict_membership(t, c, tol) for c in usable):
            strict_hits += 1
        try:
            witt_rebase(reference_p, t, tol)
            rebasable += 1
            p_side += 1
        except NonTransversalError:
            try:
                witt_rebase(reference_q, t, tol)
                rebasable += 1
            except (NonTransversalError, ValueError):
                pass
        except ValueError:
            pass
    def frac(k: int) -> float:
        return k / samples if samples else 0.0
    return {
        "discrete_cover": discrete,
        "strict_fraction": frac(strict_hits),
        "transversal_fraction": frac(rebasable),
        "transversal_to_p_fraction": frac(p_side),
        "samples": samples,
        "seed": seed,
        "n": n,
    }


def matrix_to_text(m) -> str:
    """Plain-text form: first line n, then n rows of n entries."""
    a = np.asarray(getattr(m, "entries", m), dtype=float)
    n = a.shape[0]
    lines = [str(n)]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def matrices_from_text(text: str) -> list[np.ndarray]:
    """Parse one or more concatenated plain-text matrices."""
    tokens = text.split()
    out = []
    pos = 0
    while pos < len(tokens):
        try:
            n = int(tokens[pos])
        except ValueError:
            raise ValueError(f"expected a matrix size, got {tokens[pos]!r}") from None
        if n < 1:
            raise ValueError(f"bad matrix size {n}")
        pos += 1
        need = n * n
        if pos + need > len(tokens):
            raise ValueError(f"matrix of size {n} is truncated")
        try:
            vals = [float(tok) for tok in tokens[pos : pos + need]]
        except ValueError as e:
            raise ValueError(f"bad matrix entry: {e}") from None
        out.append(np.array(vals, dtype=float).reshape(n, n))
        pos += need
    if not out:
        raise ValueError("no matrices found")
    return out
