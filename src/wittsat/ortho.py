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

import numpy as np

from .cnf import Clause, CnfFormula, InputError, ascii_tokens, plain_ascii
from .geometry import cover_verdict

CONSTRUCTION_TOL = 1e-9
VERIFY_TOL = 1e-6

# The report draws, tests and rebases Haar samples in stacks of at most
# _STACK_CELLS matrix entries, so its working arrays stay a few MB at any n.
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


def _orthogonality_residual(m: np.ndarray):
    """max |m^T m - I| over a matrix or a stack of them; NaN or inf, with no
    warning, when the products overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(m, -1, -2) @ m
        return np.abs(gram - np.eye(m.shape[-1])).max(initial=0.0)


def checked_orthogonal(m: np.ndarray, tol: float) -> np.ndarray:
    """A square matrix the user supplied, made read-only once it passes
    t^T t = I within tol.  A non-finite entry, a residual that overflows
    and a residual past tol each raise NonOrthogonalMatrixError."""
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise NonOrthogonalMatrixError(
            f"row {i + 1}, column {j + 1} is {m[i, j]}; "
            "an orthogonal matrix has finite entries"
        )
    residual = _orthogonality_residual(m)
    if not np.isfinite(residual):
        i, j = np.unravel_index(np.abs(m).argmax(), m.shape)
        raise NonOrthogonalMatrixError(
            f"orthogonality residual overflows: row {i + 1}, column {j + 1} "
            f"is {m[i, j]}; an orthogonal matrix has entries in [-1, 1]"
        )
    if not residual <= tol:
        raise NonOrthogonalMatrixError(
            f"orthogonality residual {residual:.3e} exceeds {tol:.1e}"
        )
    m.setflags(write=False)
    return m


def neutral_gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairwise B values between the rows of u and v in R^(2n), or between
    matching row blocks of two stacks of them."""
    n = u.shape[-1] // 2
    return (u[..., :n] @ np.swapaxes(v[..., :n], -1, -2)
            - u[..., n:] @ np.swapaxes(v[..., n:], -1, -2))


def _column_signs(m: np.ndarray, tol: float) -> np.ndarray:
    """Read each column of a matrix, or of each matrix in a stack, once:
    +1 where column j is e_j within tol (every entry), -1 where it is -e_j,
    0 otherwise.  Returns int8 of shape m.shape[:-1]."""
    eye = np.eye(m.shape[-1])
    plus = np.abs(m - eye).max(axis=-2, initial=0.0) <= tol
    minus = np.abs(m + eye).max(axis=-2, initial=0.0) <= tol
    return plus.astype(np.int8) - minus.astype(np.int8)


def _holds_some(signs: np.ndarray, clauses: list[Clause]) -> int:
    """How many rows of a (k, n) column-sign array strictly hold some
    clause: every literal's column carries the literal's sign.  Only a row
    with a nonzero sign can hold one, so those rows alone are read, with
    one row mask per distinct clause."""
    signed = signs[signs.any(axis=1)]
    held = np.zeros(len(signed), dtype=bool)
    for c in dict.fromkeys(clauses):
        held |= (signed[:, [abs(lit) - 1 for lit in c]] == np.sign(c)).all(axis=1)
    return int(held.sum())


def haar_samples(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar draws from O(n), stacked (count, n, n): the QR of Gaussian
    matrices with R's diagonal signs absorbed into Q's columns (Mezzadri,
    Notices AMS 2007).  The stack equals count draws of one matrix each from
    the same generator.  Every draw must pass t^T t = I within
    CONSTRUCTION_TOL, rebase's default tolerance for its inputs; a draw that
    fails is a numerical defect, not bad input, and raises RuntimeError."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    residual = _orthogonality_residual(q)
    if not residual <= CONSTRUCTION_TOL:
        raise RuntimeError(
            f"sampled orthogonality residual {residual:.3e} exceeds "
            f"{CONSTRUCTION_TOL:.1e}"
        )
    return q


def _witt_residual(p: np.ndarray, q: np.ndarray):
    """The largest error of 2 B(p_i, q_j) = delta_ij and of both sides being
    null, for one basis or for each basis of a stack (NaN if any entry is)."""
    pairing = 2.0 * neutral_gram(p, q) - np.eye(p.shape[-2])
    return np.maximum.reduce([
        np.abs(g).max(axis=(-2, -1))
        for g in (pairing, neutral_gram(p, p), neutral_gram(q, q))
    ])


def _rebase_stack(t2: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Witt rebasing of a stack of transversal pairs (t1, t2): t2 is
    (k, n, n) and d = I - t1^T t2, whose singular values all exceed
    VERIFY_TOL.  Returns the q rows, the basis of each t2 plane dual to the
    p rows [I | t1^T] under twice the neutral form; the caller knows the
    p rows, so they are not built here."""
    n = t2.shape[-1]
    b_rows = np.concatenate(
        [np.broadcast_to(np.eye(n), t2.shape), np.swapaxes(t2, -1, -2)], axis=-1
    )
    gram = 2.0 * d  # gram[i, j] = 2 B(p_rows_i, b_rows_j)
    return np.linalg.solve(np.swapaxes(gram, -1, -2), b_rows)


def witt_rebase(
    t1: np.ndarray, t2: np.ndarray, tol: float = CONSTRUCTION_TOL
) -> tuple[np.ndarray, np.ndarray, float]:
    """The p rows, q rows and Witt residual (:func:`_witt_residual`) of a
    joint Witt basis with the graph plane of t1 as its p side and that of
    t2 as its q side; t1 and t2 are n x n and orthogonal within tol.

    One SVD of d = I - t1^T t2 serves two ends.  Its singular values at
    most VERIFY_TOL count the eigenvalues 1 of t1^T t2 (for a normal
    matrix they are exactly |lambda - 1|), and that count is the dimension
    in which the planes meet: a pair with any is rejected.  The q side is
    the unique basis of the second plane dual to the rows of the first
    under twice the neutral form, the stacked rebasing of the sampling
    report on a stack of one.

    The smallest singular value sigma also bounds the basis check.  Inputs
    admitted at tol leave errors of at most tol in t1^T t1 and t2^T t2:
    the p side is null within tol <= 4 tol / sigma^2, since sigma <= 2,
    and the q side within n tol / (4 sigma^2), since its Gram matrix is
    t2's error with (2 d)^-1 on both sides; the pairing holds to rounding.
    A Witt residual past twice the larger of the two factors, that is past
    max(8, n / 2) * tol / sigma^2, or NaN, raises ValueError.
    """
    n = len(t1)
    d = np.eye(n) - t1.T @ t2
    sv = np.linalg.svd(d, compute_uv=False)
    r = int((sv <= VERIFY_TOL).sum())
    if r:
        raise NonTransversalError(r)
    p_rows = np.hstack([np.eye(n), t1.T])
    (q_rows,) = _rebase_stack(t2[None], d[None])
    residual = float(_witt_residual(p_rows, q_rows))
    bound = max(8.0, n / 2.0) * tol / sv[-1] ** 2
    if not residual <= bound:
        raise ValueError(f"Witt pairing residual {residual:.3e} exceeds {bound:.1e}")
    return p_rows, q_rows, residual


def rebase_residuals(
    p_rows: np.ndarray, q_rows: np.ndarray, t2: np.ndarray
) -> dict[str, float]:
    """The largest q coordinate of t1's plane, spanned by the p rows, and
    the largest p coordinate of t2's plane: both should vanish.

    ``p_side`` is no independent check.  The plane of t1 is the p rows
    themselves, so it is 2 max|B(p_i, p_j)|: twice the p-side nullness term
    that the pairing residual (:func:`_witt_residual`) already holds, apart
    from rounding."""
    plane2 = np.hstack([np.eye(len(t2)), t2.T])
    # numpy multiplies an array by its own transpose with syrk, which rounds
    # differently; the copy keeps the general product p_side was measured by
    return {
        "p_side": float(np.abs(2.0 * neutral_gram(p_rows, p_rows.copy())).max()),
        "q_side": float(np.abs(2.0 * neutral_gram(plane2, q_rows)).max()),
    }


def _rebased(sign: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Which samples of a transversal stack rebase against the plane of
    sign * I, one sign of +-1 per sample, with one solve for the stack.

    The p rows are [I | sign I], so B(p_i, p_j) is exactly 0 and
    2 B(p_i, q_j) - delta_ij is 2 (q_L - sign q_R)^T - I.  A product with I
    or -I is exact, so this reads the residual of :func:`_witt_residual`
    bit for bit, without building the p rows or its four products on them."""
    n = t.shape[-1]
    eye = np.eye(n)
    s = sign[:, None, None]
    q_rows = _rebase_stack(t, eye - s * t)
    pairing = 2.0 * np.swapaxes(q_rows[..., :n] - s * q_rows[..., n:], -1, -2) - eye
    residual = np.maximum(np.abs(pairing).max(axis=(-2, -1)),
                          np.abs(neutral_gram(q_rows, q_rows)).max(axis=(-2, -1)))
    return residual <= CONSTRUCTION_TOL


def orthogonal_cover_report(
    f: CnfFormula, samples: int, seed: int, *, budget: int | None = None
) -> dict:
    """Sampling report over the isometry group for a formula's clause family.

    discrete_cover: every +-1 diagonal isometry strictly holds some clause
    plane.  A diagonal matrix's column signs are its diagonal, so this is
    the cover search's predicate, every sign vector matched by a clause
    pattern, and it is read from :func:`cover_verdict`; more than budget
    of its decisions raise ResourceLimitError.
    strict_fraction: share of Haar samples strictly holding one, that is
    with each literal's column +-e_j in the literal's sign.  Exact alignment
    has measure zero, so ~0 is the expected negative control; at n = 1
    every sample is +-1 and holds the clause of its sign, if there is one.
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

    Samples are drawn, tested and rebased in stacks of at most _STACK_CELLS
    matrix entries, which gives the same report as taking them one by one.
    Each stack's tried samples are rebased with one solve (:func:`_rebased`),
    every sample against its own reference plane.  Its rows [I | +-I] are
    known, so they are neither built nor multiplied, and the residuals are
    those of :func:`witt_rebase` bit for bit.  Only samples
    with a diagonal entry within VERIFY_TOL of +-1 have their column signs
    read, since no other sample has a signed column.
    """
    n = f.n
    usable = [c for c in f.clauses if not c.is_tautological]
    discrete = cover_verdict(f, budget)[0]
    rng = np.random.default_rng(seed)
    strict_hits = rebasable = p_side = 0
    step = max(1, _STACK_CELLS // (n * n))
    for start in range(0, samples, step):
        t = haar_samples(n, min(step, samples - start), rng)
        # a column is signed only where its diagonal entry d has
        # |d -+ 1| <= VERIFY_TOL, which is | |d| - 1 | <= VERIFY_TOL
        near = (np.abs(np.abs(np.diagonal(t, axis1=-2, axis2=-1)) - 1.0)
                <= VERIFY_TOL).any(axis=1)
        if near.any():
            strict_hits += _holds_some(_column_signs(t[near], VERIFY_TOL), usable)
        # t meets the all-p plane at eigenvalue 1 and the all-q plane at
        # eigenvalue -1 (the spectrum of -t); a sample that meets the p side
        # is tried against the q side (sign -1), one that meets both is not
        cos = np.linalg.eigvalsh(0.5 * (t + np.swapaxes(t, -1, -2)))
        meets_p = cos[:, -1] >= 1.0 - 0.5 * VERIFY_TOL * VERIFY_TOL
        meets_q = cos[:, 0] <= 0.5 * VERIFY_TOL * VERIFY_TOL - 1.0
        tried = ~meets_p | ~meets_q
        sign = np.where(meets_p[tried], -1.0, 1.0)
        ok = _rebased(sign, t[tried])
        rebasable += int(ok.sum())
        p_side += int(ok[sign > 0].sum())

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


def matrices_from_text(text: str) -> list[np.ndarray]:
    """Parse one or more concatenated plain-text matrices, split at ASCII
    whitespace only.  A size or an entry that is not :func:`plain_ascii`
    is a bad one: each size is tested, and the entries one by one only
    when the whole text is not plain."""
    tokens = ascii_tokens(text)
    plain = plain_ascii(text)
    out = []
    pos = 0
    while pos < len(tokens):
        try:
            n = int(_plain_token(tokens[pos]))
        except ValueError:
            raise InputError(f"expected a matrix size, got {tokens[pos]!r}") from None
        if n < 1:
            raise InputError(f"bad matrix size {n}")
        pos += 1
        need = n * n
        if pos + need > len(tokens):
            raise InputError(f"matrix of size {n} is truncated")
        entries = tokens[pos : pos + need]
        if not plain:
            entries = map(_plain_token, entries)
        try:
            vals = np.fromiter(map(float, entries), float, need)
        except ValueError as e:
            raise InputError(f"bad matrix entry: {e}") from None
        out.append(vals.reshape(n, n))
        pos += need
    if not out:
        raise InputError("no matrices found")
    return out


def _plain_token(token: str) -> str:
    """The token, or, if it is not :func:`plain_ascii`, the ValueError
    ``float`` gives for a token it cannot read."""
    if plain_ascii(token):
        return token
    raise ValueError(f"could not convert string to float: {token!r}")
