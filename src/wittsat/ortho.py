"""Numerical layer over R^{n,n}: isometries as null planes, strict clause
membership, Haar-style sampling, and rebasing a transversal plane pair into
Witt position.

The neutral bilinear form on R^{2n} is B((x1,y1),(x2,y2)) = x1.x2 - y1.y2;
an orthogonal t gives the totally null graph plane {(x, t x)}.

The sampling report works on stacks of matrices, shape (k, n, n): numpy's
linalg functions and matmul loop over the leading axis, so one call serves
a whole stack and gives each matrix the same result as a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import Clause, CnfFormula, InputError, ResourceLimitError

CONSTRUCTION_TOL = 1e-9
VERIFY_TOL = 1e-6

# The report draws and tests Haar samples this many at a time, scans
# diagonal isometries this many at a time, and matches clauses against a
# stack this many at a time.  A stack also holds at most _STACK_CELLS
# matrix or sign entries, so its working arrays stay a few MB at any n.
_SAMPLE_CHUNK = 256
_SIGN_CHUNK = 1 << 12
_CLAUSE_CHUNK = 64
_STACK_CELLS = 1 << 18


class NonOrthogonalMatrixError(InputError):
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
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise NonOrthogonalMatrixError(
                f"row {i + 1}, column {j + 1} is {m[i, j]}; "
                "an orthogonal matrix has finite entries"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.abs(m.T @ m - np.eye(self.n)).max()
        if not np.isfinite(residual):
            i, j = np.unravel_index(np.abs(m).argmax(), m.shape)
            raise NonOrthogonalMatrixError(
                f"orthogonality residual overflows: row {i + 1}, column {j + 1} "
                f"is {m[i, j]}; an orthogonal matrix has entries in [-1, 1]"
            )
        if not residual <= self.tol:
            raise NonOrthogonalMatrixError(
                f"orthogonality residual {residual:.3e} exceeds {self.tol:.1e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_array(cls, arr, tol: float = CONSTRUCTION_TOL) -> "OrthogonalMatrix":
        a = np.asarray(arr, dtype=float)
        return cls(a.shape[0], a, tol)


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


def neutral_gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairwise B values between the rows of u and v in R^(2n), or between
    matching row blocks of two stacks of them."""
    n = u.shape[-1] // 2
    return (u[..., :n] @ np.swapaxes(v[..., :n], -1, -2)
            - u[..., n:] @ np.swapaxes(v[..., n:], -1, -2))


def mtnp_from_isometry(t: OrthogonalMatrix) -> NullFrame:
    """The graph plane of t: row i is (e_i, t e_i)."""
    return NullFrame(np.hstack([np.eye(t.n), t.entries.T]))


def _column_signs(m: np.ndarray, tol: float) -> np.ndarray:
    """Read each column of a matrix, or of each matrix in a stack, once:
    +1 where column j is e_j within tol (every entry), -1 where it is -e_j,
    0 otherwise.  Returns int8 of shape m.shape[:-1]."""
    if not tol < 1.0:
        raise ValueError(f"tolerance {tol} cannot tell e_j from -e_j")
    n = m.shape[-1]
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    off = np.abs(m)
    off[..., np.arange(n), np.arange(n)] = 0.0
    off = off.max(axis=-2, initial=0.0)
    plus = np.maximum(off, np.abs(diag - 1.0)) <= tol
    minus = np.maximum(off, np.abs(diag + 1.0)) <= tol
    return plus.astype(np.int8) - minus.astype(np.int8)


def _clause_columns(clauses: list[Clause], n: int) -> np.ndarray:
    """An (n, m) matrix of the column sign each non-tautological clause asks
    for, 0 where it asks none."""
    want = np.zeros((n, len(clauses)))
    for j, clause in enumerate(clauses):
        for lit in clause:
            want[abs(lit) - 1, j] = 1.0 if lit > 0 else -1.0
    return want


def _holds_some(signs: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Which rows of a (k, n) column-sign array strictly hold some clause.
    Each literal adds +1 to signs @ want when its column has its sign and
    at most 0 otherwise, so a clause is held exactly when the sum reaches
    its width."""
    held = np.zeros(len(signs), dtype=bool)
    s = signs.astype(float)
    for lo in range(0, want.shape[1], _CLAUSE_CHUNK):
        block = want[:, lo:lo + _CLAUSE_CHUNK]
        held |= (s @ block == np.abs(block).sum(axis=0)).any(axis=1)
    return held


def haar_samples(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar draws from O(n), stacked (count, n, n): the QR of Gaussian
    matrices with R's diagonal signs absorbed into Q's columns (Mezzadri,
    Notices AMS 2007).  The stack equals count draws of one matrix each from
    the same generator.  Every draw must pass t^T t = I within
    CONSTRUCTION_TOL, as OrthogonalMatrix requires; a draw that fails is a
    numerical defect, not bad input, and raises RuntimeError."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    residual = np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n)).max(initial=0.0)
    if not residual <= CONSTRUCTION_TOL:
        raise RuntimeError(
            f"sampled orthogonality residual {residual:.3e} exceeds "
            f"{CONSTRUCTION_TOL:.1e}"
        )
    return q


def sample_orthogonal(n: int, seed: int) -> OrthogonalMatrix:
    """One Haar draw, deterministic per seed."""
    return OrthogonalMatrix(n, haar_samples(n, 1, np.random.default_rng(seed))[0])


def eigenvalue_one_multiplicity(m: np.ndarray):
    """Eigenvalues within VERIFY_TOL of 1, counted as the singular values of
    m - I that are at most VERIFY_TOL: an int for one matrix, an array of
    counts for a stack.  For a normal m these singular values are exactly |lambda - 1|;
    a matrix orthogonal only within a small residual moves them by about
    that residual."""
    sv = np.linalg.svd(m - np.eye(m.shape[-1]), compute_uv=False)
    counts = (sv <= VERIFY_TOL).sum(axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def _witt_residual(p: np.ndarray, q: np.ndarray):
    """The largest error of 2 B(p_i, q_j) = delta_ij and of both sides being
    null, for one basis or for each basis of a stack (NaN if any entry is)."""
    pairing = 2.0 * neutral_gram(p, q) - np.eye(p.shape[-2])
    return np.maximum.reduce([
        np.abs(g).max(axis=(-2, -1))
        for g in (pairing, neutral_gram(p, p), neutral_gram(q, q))
    ])


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
        residual = _witt_residual(p, q)
        if not residual <= self.tol:
            raise ValueError(
                f"Witt pairing residual {residual:.3e} exceeds {self.tol:.1e}"
            )
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p_vectors", p)
        object.__setattr__(self, "q_vectors", q)

    def pairing_residual(self) -> float:
        return float(_witt_residual(self.p_vectors, self.q_vectors))

    def coordinates(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) with row = sum alpha_i p_i + beta_i q_i."""
        alpha = 2.0 * neutral_gram(rows, self.q_vectors)
        beta = 2.0 * neutral_gram(rows, self.p_vectors)
        return alpha, beta


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack, where a singular system leaves NaN rows
    for its own pair instead of failing the whole stack."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


def _rebase_stack(t1: np.ndarray, t2: np.ndarray, m: np.ndarray):
    """Witt rebasing of a stack of transversal pairs: t2 is (k, n, n), t1
    the same or one matrix shared by every pair, and m = t1^T t2.  Returns
    their p and q rows.  A singular solve leaves NaN q rows, which fail the
    Witt check."""
    n = t2.shape[-1]
    eye = np.broadcast_to(np.eye(n), t2.shape)
    p_rows = np.concatenate(
        [eye, np.swapaxes(np.broadcast_to(t1, t2.shape), -1, -2)], axis=-1
    )
    b_rows = np.concatenate([eye, np.swapaxes(t2, -1, -2)], axis=-1)
    gram = 2.0 * (np.eye(n) - m)  # gram[i, j] = 2 B(p_rows_i, b_rows_j)
    q_rows = _solve_each(np.swapaxes(gram, -1, -2), b_rows)
    return p_rows, q_rows


def witt_rebase(t1: OrthogonalMatrix, t2: OrthogonalMatrix) -> WittBasis:
    """A joint Witt basis with the graph plane of t1 as its p side and the
    graph plane of t2 as its q side.

    The planes are transversal exactly when t1^T t2 has no eigenvalue 1;
    otherwise the eigenvalue's multiplicity, read from the singular values
    of t1^T t2 - I (eigenvalue_one_multiplicity), is the intersection
    dimension and the pair is rejected.  The q side is the unique basis of
    the second plane dual to the rows of the first under twice the neutral
    form.  This is the stacked rebasing of the sampling report, on a stack
    of one.  The basis is checked at the tolerance the inputs were admitted
    at, the larger of theirs: a pair orthogonal only to within T pairs only
    to within about T.
    """
    if t1.n != t2.n:
        raise InputError("matrix sizes differ")
    m = t1.entries.T @ t2.entries
    r = eigenvalue_one_multiplicity(m)
    if r:
        raise NonTransversalError(r)
    p_rows, q_rows = _rebase_stack(t1.entries, t2.entries[None], m[None])
    return WittBasis(p_rows[0], q_rows[0], max(t1.tol, t2.tol))


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


def _discrete_cover(n: int, want: np.ndarray, budget: int | None) -> bool:
    """Every +-1 diagonal isometry strictly holds some clause.  The 2^n sign
    vectors are scanned in itertools.product((1, -1), repeat=n) order, a
    chunk at a time; a diagonal matrix's column signs are its
    diagonal.  The scan stops at the first chunk with an uncovered vector;
    visiting more than budget vectors raises ResourceLimitError."""
    total = 1 << n
    step = max(1, min(_SIGN_CHUNK, _STACK_CELLS // n))
    # bit n-1-j of a vector's index is 1 where position j reads -1
    shifts = np.minimum(np.arange(n - 1, -1, -1), 63)
    start = 0
    while start < total:
        if budget is not None and start >= budget:
            raise ResourceLimitError(
                f"discrete cover needs more than {budget} diagonal isometries"
            )
        stop = min(total, start + step, budget or total)
        index = np.arange(start, stop, dtype=np.int64)
        signs = (1 - 2 * ((index[:, None] >> shifts) & 1)).astype(np.int8)
        if not _holds_some(signs, want).all():
            return False
        start = stop
    return True


def _rebased(sign: float, t: np.ndarray) -> int:
    """How many transversal samples rebase against the plane of sign * I."""
    p_rows, q_rows = _rebase_stack(sign * np.eye(t.shape[-1]), t, sign * t)
    return int((_witt_residual(p_rows, q_rows) <= CONSTRUCTION_TOL).sum())


def orthogonal_cover_report(
    f: CnfFormula, samples: int, seed: int, *, scan_budget: int | None = None
) -> dict:
    """Sampling report over the isometry group for a formula's clause family.

    discrete_cover: every +-1 diagonal isometry strictly holds some clause
    plane (the discrete mirror of the cover test); a scan that would visit
    more than scan_budget of them raises ResourceLimitError.
    strict_fraction: share of Haar samples strictly holding one; exact
    alignment has measure zero, so ~0 is the expected negative control.
    transversal_fraction: share of samples whose graph plane can be rebased
    into Witt position against a coordinate reference plane, the all-p plane
    (t = I) first and the all-q plane (t = -I) second.  The plane of t meets
    them when t has eigenvalue +1, resp. -1.  At odd n every sample has one
    of the two, fixed by its determinant, and generically not the other, so
    the fraction is ~1; at even n a det -1 sample has both, so the fraction
    is ~1/2, the share of SO(n).  The p-only number is reported separately.
    A Haar sample is orthogonal to rounding, so its spectrum is read from
    the symmetric part (t + t^T)/2, whose eigenvalues are cos(theta) for t's
    eigenvalues exp(+-i theta): |lambda - 1| = 2 sin(theta/2) <= VERIFY_TOL
    is cos(theta) >= 1 - VERIFY_TOL^2/2, and |lambda + 1| <= VERIFY_TOL is
    cos(theta) <= VERIFY_TOL^2/2 - 1.

    Samples are drawn, tested and rebased in stacks, which gives the same
    report as taking them one by one.
    """
    if samples < 0:
        raise InputError("sample count must be nonnegative")
    n = f.n
    want = _clause_columns([c for c in f.clauses if not c.is_tautological], n)
    discrete = f.has_empty_clause or _discrete_cover(n, want, scan_budget)
    rng = np.random.default_rng(seed)
    strict_hits = rebasable = p_side = 0
    step = max(1, min(_SAMPLE_CHUNK, _STACK_CELLS // (n * n)))
    for start in range(0, samples, step):
        t = haar_samples(n, min(step, samples - start), rng)
        strict_hits += int(_holds_some(_column_signs(t, VERIFY_TOL), want).sum())
        # t meets the all-p plane at eigenvalue 1 and the all-q plane at
        # eigenvalue -1 (the spectrum of -t); the q side is tried only for
        # samples that meet the p side
        cos = np.linalg.eigvalsh(0.5 * (t + np.swapaxes(t, -1, -2)))
        meets_p = cos[:, -1] >= 1.0 - 0.5 * VERIFY_TOL * VERIFY_TOL
        meets_q = cos[:, 0] <= 0.5 * VERIFY_TOL * VERIFY_TOL - 1.0
        p_ok = _rebased(1.0, t[~meets_p])
        p_side += p_ok
        rebasable += p_ok + _rebased(-1.0, t[meets_p & ~meets_q])

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
            raise InputError(f"expected a matrix size, got {tokens[pos]!r}") from None
        if n < 1:
            raise InputError(f"bad matrix size {n}")
        pos += 1
        need = n * n
        if pos + need > len(tokens):
            raise InputError(f"matrix of size {n} is truncated")
        try:
            vals = np.fromiter(map(float, tokens[pos : pos + need]), float, need)
        except ValueError as e:
            raise InputError(f"bad matrix entry: {e}") from None
        out.append(vals.reshape(n, n))
        pos += need
    if not out:
        raise InputError("no matrices found")
    return out
