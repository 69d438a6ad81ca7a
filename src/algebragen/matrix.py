"""Dense matrices over the four scalar backends.

Provides the three structural maps (column-stacking vectorization, the block
realignment involution on n^2 x n^2 matrices, and the Kronecker product in
its block form) together with exact and numerical rank / column space /
least-squares machinery.

Every exact rank, range, kernel, solve and inverse, and the word-span
insertion of ``wordspan``, goes through one elimination, ``_rref``, which
updates all affected rows of a pivot step in one numpy operation:

* over GF(p) on int64 rows while p < INT64_MODULUS_LIMIT (3 037 000 499,
  where (p - 1)^2 + p reaches 2^63), on Python-int rows above it;
* over Q on primitive integer rows by fraction-free (Bareiss) elimination,
  building Fractions only for the reduced rows a caller reads.

Exact results hold Python ``int`` / ``Fraction`` entries, never numpy
integers, so later object-array products cannot wrap.

Conventions fixed here and relied on everywhere else:

* storage is row-major, ``vec`` stacks columns;
* ``kron(A, B)`` is the block matrix whose (k, l) block is ``B[k, l] * A``,
  so that ``realign(kron(A, B)) == vec(A) @ vec(B).T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .scalars import ScalarKind

# A numerical rank is reported as ill-conditioned when the smallest retained
# and largest discarded singular values are closer than this factor.
ILL_CONDITIONED_RATIO = 1e3

# Default relative tolerance for least-squares membership verdicts on the
# approximate backends; exact backends decide solvability exactly.
DEFAULT_RESIDUAL_RTOL = 1e-8

_EPS = float(np.finfo(np.float64).eps)


class SingularMatrixError(ArithmeticError):
    """An exact or numeric inverse does not exist."""


@dataclass(frozen=True, eq=False)
class Mat:
    """Immutable dense matrix; ``data`` is 2-D with dtype fixed by ``kind``."""

    data: np.ndarray
    kind: ScalarKind

    # -- construction -------------------------------------------------

    @staticmethod
    def wrap(data, kind: ScalarKind) -> "Mat":
        """Adopt an ndarray whose entries are already canonical scalars."""
        a = np.asarray(data, dtype=kind.dtype)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {a.shape}")
        if kind.tag == "gfp":
            a = a % kind.modulus
        return Mat(a, kind)

    @classmethod
    def from_rows(cls, rows, kind: ScalarKind) -> "Mat":
        data = [[kind.coerce(x) for x in row] for row in rows]
        widths = {len(r) for r in data}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        a = np.empty((len(data), widths.pop() if widths else 0), dtype=kind.dtype)
        for i, row in enumerate(data):
            for j, x in enumerate(row):
                a[i, j] = x
        return cls(a, kind)

    @classmethod
    def zeros(cls, rows: int, cols: int, kind: ScalarKind) -> "Mat":
        a = np.empty((rows, cols), dtype=kind.dtype)
        a[...] = kind.zero()
        return cls(a, kind)

    @classmethod
    def identity(cls, n: int, kind: ScalarKind) -> "Mat":
        m = cls.zeros(n, n, kind)
        one = kind.one()
        for i in range(n):
            m.data[i, i] = one
        return m

    # -- basic structure ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def T(self) -> "Mat":
        return Mat(self.data.T, self.kind)

    def conj(self) -> "Mat":
        if self.kind.tag == "c64":
            return Mat(np.conj(self.data), self.kind)
        return self

    def col(self, j: int) -> "Mat":
        return Mat(self.data[:, j : j + 1], self.kind)

    def to_lists(self) -> list:
        return [list(row) for row in self.data]

    def convert(self, kind: ScalarKind) -> "Mat":
        """Re-coerce every entry into another scalar kind."""
        if kind == self.kind:
            return self
        if self.kind.tag == "c64" and kind.tag != "c64":
            raise TypeError("cannot convert complex matrices to a real kind")
        return Mat.from_rows(self.to_lists(), kind)

    # -- arithmetic ----------------------------------------------------

    def _check_kind(self, other: "Mat"):
        if self.kind != other.kind:
            raise ValueError(f"scalar kind mismatch: {self.kind} vs {other.kind}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_kind(other)
        return Mat.wrap(self.data + other.data, self.kind)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_kind(other)
        return Mat.wrap(self.data - other.data, self.kind)

    def __neg__(self) -> "Mat":
        return Mat.wrap(-self.data, self.kind)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_kind(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.data.shape} @ {other.data.shape}")
        return Mat.wrap(self.data.dot(other.data), self.kind)

    def scale(self, s) -> "Mat":
        return Mat.wrap(self.data * self.kind.coerce(s), self.kind)

    def __mul__(self, s) -> "Mat":
        return self.scale(s)

    __rmul__ = __mul__

    def __truediv__(self, s) -> "Mat":
        if self.kind.tag == "gfp":
            inv = pow(self.kind.coerce(s), -1, self.kind.modulus)
            return self.scale(inv)
        if self.kind.tag == "rational":
            return self.scale(Fraction(1, 1) / Fraction(s))
        return self.scale(1.0 / s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.kind})"


# -- structural maps ----------------------------------------------------


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product whose (k, l) block is ``b[k, l] * a``."""
    a._check_kind(b)
    return Mat.wrap(np.kron(b.data, a.data), a.kind)


def vec(a: Mat) -> Mat:
    """Stack the columns of ``a`` into one column vector."""
    return Mat.wrap(a.data.reshape(-1, 1, order="F"), a.kind)


def unvec(v: Mat, rows: int, cols: int) -> Mat:
    """Inverse of ``vec``: refold a (rows*cols) x 1 column into a matrix."""
    if v.cols != 1 or v.rows != rows * cols:
        raise ValueError(f"expected a {rows * cols}x1 column, got {v.rows}x{v.cols}")
    return Mat.wrap(v.data.reshape(rows, cols, order="F"), v.kind)


def realign(a: Mat) -> Mat:
    """Block realignment of an n^2 x n^2 matrix viewed as an n x n grid of
    n x n blocks: column (l*n + j) of the result is the vectorization of
    block (j, l) of ``a``.  The map is its own inverse.
    """
    n = math.isqrt(a.rows)
    if a.rows != a.cols or n * n != a.rows:
        raise ValueError(f"realign needs an n^2 x n^2 matrix, got {a.rows}x{a.cols}")
    out = a.data.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)
    return Mat.wrap(out, a.kind)


# -- norms ---------------------------------------------------------------


def norm(a: Mat, which: str = "fro"):
    """Matrix norm: "fro", "l1" (max column sum) or "linf" (max row sum).

    On the rational backend "fro" returns the *squared* Frobenius norm so the
    result stays in the field; compare squared quantities there.
    """
    if a.kind.tag == "gfp":
        raise ValueError("norms are not defined over GF(p)")
    if which == "fro":
        if a.kind.tag == "rational":
            return sum((x * x for x in a.data.ravel()), Fraction(0))
        return float(np.linalg.norm(a.data, "fro"))
    if which == "l1":
        sums = [sum(abs(x) for x in col) for col in a.data.T]
    elif which == "linf":
        sums = [sum(abs(x) for x in row) for row in a.data]
    else:
        raise ValueError(f"unknown norm {which!r}")
    zero = Fraction(0) if a.kind.tag == "rational" else 0.0
    return max(sums, default=zero)


# -- exact elimination ----------------------------------------------------

# Largest modulus whose GF(p) elimination runs on int64 rows: one update
# step computes (p - 1)^2 + p, which must stay below 2^63.
INT64_MODULUS_LIMIT = 3_037_000_499


def _integer_rows(data: np.ndarray) -> np.ndarray:
    """Scale each rational row by its denominator lcm and divide out the
    content: a primitive integer row (Python ints) spanning the same line."""
    out = np.empty(data.shape, dtype=object)
    for i, row in enumerate(data):
        dens = [int(x.denominator) for x in row]
        lcm = math.lcm(*dens)
        ints = [int(x.numerator) * (lcm // d) for x, d in zip(row, dens)]
        g = math.gcd(*ints)
        out[i] = [v // g for v in ints] if g > 1 else ints
    return out


def _rref(data: np.ndarray, kind: ScalarKind, reduced: bool = True):
    """Row echelon form over an exact kind; returns (R, pivot_cols).

    With ``reduced`` the rows are eliminated above each pivot as well and R
    is the reduced row echelon form, with entries of the kind's scalar type
    (``int`` over GF(p), ``Fraction`` over Q).  Without it only the pivot
    columns are meaningful and R is None: rank and range need no more.

    Each pivot step on row r, column c is one vectorized update of the rows
    m it touches, with f = A[m, c].  Over GF(p) the rows are int64 when
    p < INT64_MODULUS_LIMIT, else Python ints, the pivot row is normalized
    and ``A[m] = (A[m] - f * A[r] % p) % p``.  Over Q the rows are primitive
    integer rows reduced by fraction-free (Bareiss) elimination,
    ``A[m] = (d * A[m] - f * A[r]) // d_prev`` with d the pivot and d_prev
    the one before, where the division is exact.  Every pivot row then ends
    with the last pivot on its pivot column, so R is the integer rows over
    that one number.
    """
    p = kind.modulus
    if p is None:
        a = _integer_rows(data)
    else:
        dtype = np.int64 if p < INT64_MODULUS_LIMIT else object
        a = (np.asarray(data, dtype=object) % p).astype(dtype)
    rows, cols = a.shape
    order = np.arange(rows)
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c] != 0)
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        # rows to update: those below r, and in reduced form those above it
        rest = np.concatenate((order[0 if reduced else r : r], order[r + 1 :]))
        f = a[rest, c]
        if p is not None:
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
            hit = f != 0
            rest, f = rest[hit], f[hit]
            a[rest, c:] = (a[rest, c:] - f[:, None] * a[r, c:] % p) % p
        else:
            # every row in rest changes, even where f is 0
            d = a[r, c]
            a[rest] = (d * a[rest] - f[:, None] * a[r]) // prev
            prev = d
        pivots.append(c)
    if not reduced:
        return None, pivots
    if p is not None:
        return a.astype(object), pivots
    out = np.full(a.shape, Fraction(0), dtype=object)
    for i in range(len(pivots)):
        out[i] = [Fraction(v, prev) for v in a[i]]
    return out, pivots


def _solve_exact(a: Mat, b: Mat):
    """One exact solution of ``a @ x = b`` (free variables set to zero), or
    None when the system is inconsistent."""
    aug = np.concatenate([a.data, b.data], axis=1)
    r, pivots = _rref(aug, a.kind)
    if pivots and pivots[-1] >= a.cols:
        return None
    x = Mat.zeros(a.cols, b.cols, a.kind)
    x.data[pivots] = r[: len(pivots), a.cols :]
    return x


def inverse(a: Mat) -> Mat:
    """Matrix inverse; raises SingularMatrixError when none exists."""
    if a.rows != a.cols:
        raise ValueError("inverse needs a square matrix")
    if not a.kind.exact:
        try:
            return Mat.wrap(np.linalg.inv(a.data), a.kind)
        except np.linalg.LinAlgError as e:
            raise SingularMatrixError(str(e)) from None
    eye = Mat.identity(a.rows, a.kind)
    x = _solve_exact(a, eye)
    if x is None:
        raise SingularMatrixError(f"{a.rows}x{a.cols} matrix is singular")
    return x


# -- rank and subspaces ---------------------------------------------------


@dataclass(frozen=True)
class RankInfo:
    """Rank of ``matrix`` with the diagnostics that produced it, and a basis
    of its column space.

    ``pivots`` are the pivot columns on exact kinds and None on approximate
    kinds.  ``colspace`` holds ``rank`` columns spanning the column space:
    the pivot columns on exact kinds, the first ``rank`` left singular
    vectors on approximate kinds.  The rank SVD computes values only, so the
    float column space costs a second, thin SVD on first use.
    """

    matrix: Mat
    rank: int
    tol: float | None
    ill_conditioned: bool
    singular_values: tuple[float, ...] | None
    pivots: tuple[int, ...] | None = None

    @cached_property
    def colspace(self) -> Mat:
        a = self.matrix
        if self.pivots is not None:
            return Mat(a.data[:, list(self.pivots)], a.kind)
        return Mat(np.linalg.svd(a.data, full_matrices=False)[0][:, : self.rank], a.kind)


def _svd_cut(a: Mat, sv: np.ndarray, tol: float | None) -> tuple[float, int]:
    """The cut (default max(rows, cols) * eps * sigma_max) and the count of ``sv`` above it."""
    if tol is None:
        tol = max(a.rows, a.cols) * _EPS * (float(sv[0]) if len(sv) else 0.0)
    return float(tol), int((sv > tol).sum())


def rank_info(a: Mat, tol: float | None = None) -> RankInfo:
    """Rank of ``a``: pivot count on exact kinds, singular values above
    ``tol`` (see _svd_cut) on approximate kinds.

    The result is flagged ill-conditioned when the singular values on either
    side of the retained/discarded cut differ by less than
    ILL_CONDITIONED_RATIO.
    """
    if a.kind.exact:
        _, pivots = _rref(a.data, a.kind, reduced=False)
        return RankInfo(a, len(pivots), None, False, None, tuple(pivots))
    if min(a.data.shape) == 0:
        return RankInfo(a, 0, 0.0, False, ())
    sv = np.linalg.svd(a.data, compute_uv=False)
    tol, r = _svd_cut(a, sv, tol)
    flagged = 0 < r < len(sv) and sv[r] > 0 and sv[r - 1] / sv[r] < ILL_CONDITIONED_RATIO
    return RankInfo(a, r, tol, bool(flagged), tuple(float(s) for s in sv))


def rank(a: Mat, tol: float | None = None) -> int:
    return rank_info(a, tol).rank


def null_space(a: Mat, tol: float | None = None) -> Mat:
    """Columns spanning the right kernel of ``a``."""
    if a.kind.exact:
        r, pivots = _rref(a.data, a.kind)
        free = sorted(set(range(a.cols)) - set(pivots))
        out = Mat.zeros(a.cols, len(free), a.kind).data
        out[free, np.arange(len(free))] = a.kind.one()
        out[pivots] = -r[: len(pivots)][:, free]
        return Mat.wrap(out, a.kind)
    if min(a.data.shape) == 0:
        return Mat.identity(a.cols, a.kind)
    _, sv, vh = np.linalg.svd(a.data)
    _, r = _svd_cut(a, sv, tol)
    return Mat(vh[r:].conj().T.copy(), a.kind)


def in_range(a: Mat, v: Mat, tol: float | None = None):
    """Decide whether column ``v`` lies in the column space of ``a``.

    Returns (verdict, residual).  Exact kinds decide solvability by
    elimination; the residual is 0 for members and the exact least-squares
    defect (squared norm; 1 over GF(p)) otherwise.  Approximate kinds accept
    when the least-squares residual is at most tol * max(1, |v|).
    """
    a._check_kind(v)
    if v.cols != 1 or v.rows != a.rows:
        raise ValueError(f"candidate must be a {a.rows}x1 column")
    if a.kind.exact:
        _, pivots = _rref(np.concatenate([a.data, v.data], axis=1), a.kind, reduced=False)
        if not pivots or pivots[-1] < a.cols:
            return True, a.kind.zero()
        if a.kind.tag == "gfp":
            return False, 1
        # The pivot columns of a, scaled to integer columns c, have full
        # column rank and span col(a), so c^T c y = h = c^T w has one
        # solution.  For w = l * v an integer vector the least-squares defect
        # of w is w.w - h.y (its residual is orthogonal to c), and that of
        # v is 1 / l^2 times it.
        c = _integer_rows(a.data[:, pivots[:-1]].T).T
        l = math.lcm(*(x.denominator for x in v.data[:, 0]))
        w = np.array([x.numerator * (l // x.denominator) for x in v.data[:, 0]], dtype=object)
        h = c.T.dot(w)
        y = _solve_exact(Mat(c.T.dot(c), a.kind), Mat(h[:, None], a.kind))
        defect = w.dot(w) - sum((hi * yi for hi, yi in zip(h, y.data[:, 0])), Fraction(0))
        return False, defect / (l * l)
    if tol is None:
        tol = DEFAULT_RESIDUAL_RTOL
    x, *_ = np.linalg.lstsq(a.data, v.data, rcond=None)
    residual = float(np.linalg.norm(a.data.dot(x) - v.data))
    vnorm = float(np.linalg.norm(v.data))
    return residual <= tol * max(1.0, vnorm), residual


def subspace_intersect(u: Mat, v: Mat, tol: float | None = None) -> Mat:
    """Basis of col(u) & col(v), from the kernel of the block [u | -v]."""
    u._check_kind(v)
    if u.rows != v.rows:
        raise ValueError("subspaces live in different ambient dimensions")
    if u.cols == 0 or v.cols == 0:
        return Mat.zeros(u.rows, 0, u.kind)
    block = Mat.wrap(np.concatenate([u.data, -v.data], axis=1), u.kind)
    ker = null_space(block, tol)
    if ker.cols == 0:
        return Mat.zeros(u.rows, 0, u.kind)
    combo = Mat(ker.data[: u.cols, :], u.kind)
    out = u @ combo
    if not u.kind.exact:
        q, _ = np.linalg.qr(out.data)
        out = Mat(q[:, : out.cols], u.kind)
    return out
