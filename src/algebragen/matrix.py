"""Dense matrices over the four scalar backends.

Provides the two structural maps (column-stacking vectorization and the
block realignment involution on n^2 x n^2 matrices) together with rank,
membership and intersection.  A float rank has one cut, ``_spectral_rank``,
on a descending spectrum: the singular values of ``rank``'s matrix, or the
absolute eigenvalues of a Hermitian span matrix (``resolvent``).
Float distances from a span have one rule, ``_project_out``: a vector lies
in the span of orthonormal columns Q when what is left of it after
projecting Q out twice is at most DEFAULT_RESIDUAL_RTOL of its norm.  Both
norms are read on the vector divided by a power of two near its largest
entry (``_unit_scaled``), so that squaring the entries cannot overflow or
underflow.

Every exact rank, solve, inverse and intersection, the GF(p) images of
the span matrix and the word-span insertion of ``wordspan`` go through one
elimination, ``_eliminate`` (``_rref`` for callers), which updates the
rows below a pivot, and above it for a reduced form, in place on row
slices: over GF(p) on residues, in panels of PANEL columns with delayed
reduction, and over Q on the integer rows of ``_cleared`` by
fraction-free (Bareiss) elimination.  ``_rref`` describes both.

Every exact column space has one form q, a transposed reduced echelon
basis: q[P, :] is the identity on its pivot rows P, and v lies in it
exactly when v - q v[P] is zero (``_in_span``, no elimination; its first
nonzero entry witnesses a non-member, see ``_exact_verdict``).  It has two
producers: over Q the span matrix lifts this form from GF(p) eliminations
and checks it by the same rule (``resolvent``), and ``subspace_intersect``
reads it off its Zassenhaus elimination.  The rule reads q as integer rows
R = d q^T and forms d w - w[P] R for each integer row w.  When
max|w| (|d| + r max|R|) < 2^53, r the number of rows, it forms that on
float64 (BLAS): every product, every partial sum of any subset of the
terms and the difference are then integers below 2^53, which float64
holds exactly, so the result is exact in any summation order.  Past the
bound it runs on Python ints.

Exact results hold Python ``int`` / ``Fraction`` entries, never numpy
integers, so later object-array products cannot wrap.

Conventions fixed here and relied on everywhere else:

* storage is row-major, ``vec`` stacks columns;
* ``np.kron(B, A)`` is the block matrix whose (k, l) block is
  ``B[k, l] * A``, so that ``realign(np.kron(B, A)) == vec(A) @ vec(B).T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scalars import ScalarKind

# A numerical rank is reported as ill-conditioned when the smallest retained
# and largest discarded singular values are closer than this factor.
ILL_CONDITIONED_RATIO = 1e3

# Relative residual above which a float vector lies outside a span: the cut
# of membership verdicts, of principal-angle sines of intersections and of
# word-span independence.  Exact backends decide these exactly.
DEFAULT_RESIDUAL_RTOL = 1e-8

_EPS = float(np.finfo(np.float64).eps)


class SingularMatrixError(ArithmeticError):
    """An exact matrix has dependent columns: no inverse, no unique solve."""


@dataclass(frozen=True, eq=False)
class Mat:
    """Immutable dense matrix; ``data`` is 2-D with dtype fixed by ``kind``.

    The data carrier of every public call: it pairs an array with its
    field and compares by value.  Arithmetic is numpy on ``.data``, and
    ``wrap`` adopts the result (reducing it mod p over GF(p)).
    """

    data: np.ndarray
    kind: ScalarKind

    # -- construction -------------------------------------------------

    @staticmethod
    def wrap(data, kind: ScalarKind) -> "Mat":
        """Adopt an ndarray of ``kind``'s scalars, reducing it mod p over GF(p), as ``word_span`` needs."""
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

    # -- comparison ----------------------------------------------------

    def _check_kind(self, other: "Mat"):
        if self.kind != other.kind:
            raise ValueError(f"scalar kind mismatch: {self.kind} vs {other.kind}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.kind})"


# -- structural maps ----------------------------------------------------


def vec(a: Mat) -> Mat:
    """Stack the columns of ``a`` into one column vector."""
    return Mat.wrap(a.data.reshape(-1, 1, order="F"), a.kind)


def realign(a: Mat) -> Mat:
    """Block realignment of an n^2 x n^2 matrix viewed as an n x n grid of
    n x n blocks: column (l*n + j) of the result is the vectorization of
    block (j, l) of ``a``.  The map is its own inverse.
    """
    n = math.isqrt(a.rows)
    if a.rows != a.cols or n * n != a.rows:
        raise ValueError(f"realign needs an n^2 x n^2 matrix, got {a.rows}x{a.cols}")
    return Mat.wrap(_realign(a.data), a.kind)


def _realign(data: np.ndarray) -> np.ndarray:
    """``realign`` on a square array of side n^2, in its own dtype."""
    n = math.isqrt(data.shape[0])
    return data.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


# -- exact elimination ----------------------------------------------------

# Largest modulus whose GF(p) elimination runs on int64 rows, those with
# (p - 1)^2 + p < 2^63: one unreduced update fits (see ``_rref``).
INT64_MODULUS_LIMIT = 3_037_000_499

# Columns per GF(p) panel: the largest power of two K with
# K (p - 1) 2^16 < 2^53 for every p < INT64_MODULUS_LIMIT, so that both
# float64 products of ``_mul_mod`` are exact.
PANEL = 1 << ((2**53 // ((INT64_MODULUS_LIMIT - 2) << 16)).bit_length() - 1)


def _cleared(data: np.ndarray) -> tuple[int, np.ndarray]:
    """(l, l * data) for an array of Fractions or Python ints: l the lcm of
    its denominators, l * data an object array of Python ints."""
    flat = data.ravel().tolist()
    dens = [x.denominator for x in flat]
    l = math.lcm(*dens)
    ints = [x.numerator * (l // den) for x, den in zip(flat, dens)]
    return l, np.array(ints, dtype=object).reshape(data.shape)


def _fractions(ints: np.ndarray, den: int = 1) -> np.ndarray:
    """The canonical rational entries ``Fraction(v, den)`` of an integer array."""
    out = np.empty(ints.shape, dtype=object)
    out.flat = [Fraction(v, den) for v in ints.flat] if den != 1 else [Fraction(v) for v in ints.flat]
    return out


def _residues(data: np.ndarray, p: int) -> np.ndarray:
    """A new array of the integers ``data`` mod p: int64 while
    p < INT64_MODULUS_LIMIT, else Python ints.  Entries that fit int64 are
    reduced there, with no pass over Python ints."""
    if p < INT64_MODULUS_LIMIT:
        try:
            return np.asarray(data, dtype=np.int64) % p
        except OverflowError:
            return (np.asarray(data, dtype=object) % p).astype(np.int64)
    return np.asarray(data, dtype=object) % p


def _as_int64(data: np.ndarray) -> np.ndarray:
    """Python ints as int64 when every one fits, else ``data`` itself: one
    conversion for an integer array that ``_residues`` reduces mod many
    primes, each reduction then runs on int64 alone."""
    try:
        return data.astype(np.int64)
    except OverflowError:
        return data


def _mul_mod(f: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """f @ t mod p for residues of ``_residues``, with at most PANEL
    columns in f.  On int64 it is two float64 products, f @ (t >> 16) and
    f @ (t & 0xFFFF), each of whose sums stays below PANEL (p - 1) 2^16 <
    2^53 and is exact."""
    if f.dtype == object:
        return f.dot(t) % p
    g = f.astype(np.float64)
    hi = g.dot((t >> 16).astype(np.float64)).astype(np.int64)
    lo = g.dot((t & 0xFFFF).astype(np.float64)).astype(np.int64)
    return (hi % p * 65536 + lo) % p


def _slack(p: int) -> int:
    """Pivot updates that an int64 entry of a GF(p) panel takes unreduced:
    the largest t with t (p - 1)^2 + p <= 2^63 (see ``_rref``), and 1 on
    Python-int rows (p >= INT64_MODULUS_LIMIT)."""
    return 1 if p >= INT64_MODULUS_LIMIT else (2**63 - p) // (p - 1) ** 2


def _eliminate(a: np.ndarray, p: int | None, reduced: bool) -> tuple[list[int], int]:
    """Bring ``a`` to row echelon form in place: residues of ``_residues``
    over GF(p), the integer rows of ``_cleared`` over Q (p None).  Returns
    the pivot columns and the last pivot d over Q (1 over GF(p)).  See
    ``_rref``.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    prev = 1
    # Bareiss rows change as a whole, so Q takes all columns in one panel
    width = PANEL if p is not None else max(cols, 1)
    slack = _slack(p) if p is not None else 0
    for c0 in range(0, cols, width):
        r0 = len(pivots)
        if r0 == rows:
            break
        c1 = c0 + width
        trailing = c1 < cols
        # w: the panel and, while columns trail it, beside it the
        # coefficients with which its pivot rows' trailing parts enter
        # each row
        w = np.concatenate((a[:, c0:c1], np.zeros((rows, width), a.dtype)), axis=1) if trailing else a[:, c0:]
        # GF(p) updates since the panel's entries right of the pivot column
        # were last reduced
        pending = 0
        for c in range(min(width, cols - c0)):
            r = len(pivots)
            if r == rows:
                break
            if p is not None and pending:
                # the pivot column is what this step reads
                w[0 if reduced else r :, c] %= p
            if w[r, c] == 0:
                nz = np.flatnonzero(w[r + 1 :, c])
                if nz.size == 0:
                    continue
                pr = r + 1 + int(nz[0])
                w[[r, pr]] = w[[pr, r]]
                if trailing:
                    a[[r, pr], c1:] = a[[pr, r], c1:]
            # the rows the step changes: below r, and above it for a
            # reduced form
            blocks = (w[r + 1 :], w[:r]) if reduced else (w[r + 1 :],)
            if p is not None:
                # the columns that can be nonzero in row r: the panel's
                # from c on and the coefficients of the pivots so far
                e = width + r - r0 + 1 if trailing else w.shape[1]
                if trailing:
                    w[r, e - 1] = 1
                piv = w[r, c:e]
                if pending:
                    piv %= p
                piv *= pow(int(piv[0]), -1, p)
                piv %= p
                # f * piv zeroes column c of each block and is at most (p - 1)^2
                pending += 1
                for part in blocks:
                    blk = part[:, c:e]
                    blk -= blk[:, :1] * piv
                    if pending == slack:
                        blk %= p
                pending %= slack
            else:
                # every other row changes, even where f is 0
                d = w[r, c]
                for blk in blocks:
                    blk[...] = (d * blk - blk[:, c : c + 1] * w[r]) // prev
                prev = d
            pivots.append(c0 + c)
        if pending:
            w %= p
        if trailing and len(pivots) > r0:
            # each row's trailing part, with the pivot rows' own parts
            # moved into their coefficients: one product for the panel (a
            # panel without pivots changed no row)
            k, top = len(pivots) - r0, 0 if reduced else r0
            a[:, c0:c1] = w[:, :width]
            t = a[r0 : r0 + k, c1:].copy()
            a[r0 : r0 + k, c1:] = 0
            a[top:, c1:] = (a[top:, c1:] + _mul_mod(w[top:, width : width + k], t, p)) % p
    return pivots, prev


def _rref(data: np.ndarray, kind: ScalarKind, reduced: bool = True):
    """Row echelon form over an exact kind; returns (R, pivot_cols).

    With ``reduced`` R is the reduced row echelon form, with entries of the
    kind's scalar type (``int`` over GF(p), ``Fraction`` over Q), where
    ``data`` may hold Fractions or Python ints over Q.  Without it only the
    pivot columns are meaningful and R is None: rank and range need no more.

    Each pivot step on row r, column c updates, in place, the slice of rows
    below r and with ``reduced`` the slice above it, with f = A[m, c] for
    each row m of a slice.

    Over GF(p) the rows are the residues of ``_residues``: int64 while
    p < INT64_MODULUS_LIMIT, Python ints above it.  The columns are taken
    in panels of PANEL.  Within a panel the pivot row is normalized and
    ``A[m] -= f * A[r]`` on the panel's columns only.  The update is left
    unreduced (delayed reduction, as in FFLAS-FFPACK): each step reduces
    only what it reads, the pivot column and the pivot row, and the panel
    is reduced after ``_slack(p)`` steps and at its end.  Each update
    subtracts a product of two residues, at most (p - 1)^2, so an int64
    entry that was a residue stays above -2^63 for t (p - 1)^2 + p <= 2^63
    updates: for p <= 2^29 a panel is reduced once, at its end, and at the
    Q lift's primes next to INT64_MODULUS_LIMIT, as on Python-int rows, at
    every step.  Beside the panel's columns PANEL coefficient columns track
    each row as its own trailing part (the columns right of the panel) plus
    a combination of the trailing parts the panel's pivot rows had on
    entry; a pivot row takes its own part into its coefficient 1 before it
    is normalized.  After the panel every trailing part is brought up to
    date by one product of the coefficients and the pivot rows' trailing
    parts, mod p (``_mul_mod``: exact float64 BLAS on int64 rows).  A
    panel with no columns right of it, as every one of a matrix of at most
    PANEL columns, is eliminated in place with no coefficients.

    Over Q the rows are those of ``_cleared(data)``, the array times the lcm
    of all its denominators, reduced by fraction-free (Bareiss)
    elimination, ``A[m] = (d * A[m] - f * A[r]) // d_prev`` with d the
    pivot and d_prev the one before: the division is exact on any integer
    rows (Sylvester's identity).  With ``reduced`` every pivot row then
    ends with the last pivot d on its pivot column, and R is A / d.
    """
    p = kind.modulus
    a = _cleared(data)[1] if p is None else _residues(data, p)
    pivots, d = _eliminate(a, p, reduced)
    if not reduced:
        return None, pivots
    return (a.astype(object) if p is not None else _fractions(a, d)), pivots


def _solve(a: np.ndarray, b: np.ndarray, kind: ScalarKind):
    """The solution x of a @ x = b over an exact kind, for a of full column
    rank: the block right of a in the reduced form of [a | b] (one
    ``_rref``), or None when b adds a pivot, a column of b outside col(a).
    Raises SingularMatrixError when the columns of a are dependent."""
    k = a.shape[1]
    r, pivots = _rref(np.concatenate((a, b), axis=1), kind)
    if pivots[:k] != list(range(k)):
        raise SingularMatrixError(f"a {a.shape[0]}x{k} matrix has dependent columns")
    if len(pivots) > k:
        return None
    return r[:k, k:]


def inverse(a: Mat) -> Mat:
    """Exact matrix inverse, the ``_solve`` of a X = I; raises
    SingularMatrixError when none exists.

    Over GF(p) ``a`` may hold the int64 residues of ``_residues``: the
    identity beside it takes their dtype, so the elimination reads them
    with no pass over Python ints."""
    if not a.kind.exact:
        raise ValueError(f"inverse serves exact kinds only, not {a.kind}")
    if a.rows != a.cols:
        raise ValueError("inverse needs a square matrix")
    return Mat(_solve(a.data, np.identity(a.rows, dtype=a.data.dtype), a.kind), a.kind)


# -- rank and subspaces ---------------------------------------------------


def _spectral_rank(values: np.ndarray, side: int) -> tuple[int, float, bool]:
    """(rank, tol, ill_conditioned) of a matrix of larger dimension ``side``
    from its singular values ``values`` in descending order: the count of
    values above the cut tol = side * eps * values[0].

    The rank is flagged ill-conditioned when the values on either side of
    the cut differ by less than ILL_CONDITIONED_RATIO.
    """
    if len(values) == 0:
        return 0, 0.0, False
    tol = side * _EPS * float(values[0])
    r = int((values > tol).sum())
    flagged = 0 < r < len(values) and values[r] > 0 and values[r - 1] / values[r] < ILL_CONDITIONED_RATIO
    return r, tol, bool(flagged)


def rank(a: Mat) -> int:
    """Rank of ``a``: the pivot count of ``_rref`` on exact kinds, the
    ``_spectral_rank`` of its singular values on float kinds."""
    if a.kind.exact:
        return len(_rref(a.data, a.kind, reduced=False)[1])
    return _spectral_rank(np.linalg.svd(a.data, compute_uv=False), max(a.rows, a.cols))[0]


def _peak(a: np.ndarray) -> int:
    """max |x| over the integers of ``a`` (int64 or Python ints) as a Python int, 0 when empty."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _in_span(v: np.ndarray, rows: np.ndarray, d: int, pivots, p: int | None = None) -> np.ndarray:
    """d w - w[pivots] rows (mod p over GF(p)) for each row w of the integer
    array ``v``: zero exactly when w lies in the span of ``rows`` / d, whose
    pivot columns ``pivots`` hold d times the identity.  ``v`` and ``rows``
    may hold int64 or Python ints; the result holds int64 when the float64
    bound of the module docstring holds, else Python ints."""
    top = max(_peak(v), 1)
    if top * (abs(d) + len(pivots) * _peak(rows)) < 2**53:
        f = v.astype(np.float64)
        diff = (d * f - f[:, pivots].dot(rows.astype(np.float64))).astype(np.int64)
    else:
        v, rows = np.asarray(v, dtype=object), np.asarray(rows, dtype=object)
        diff = d * v - v[:, pivots].dot(rows)
    return diff if p is None else diff % p


def _project_out(q: np.ndarray, c: np.ndarray) -> None:
    """Subtract from ``c``, in place, its projection on the orthonormal
    columns of ``q``, twice: one pass leaves O(eps * cond) of the span
    behind, the second brings it to O(eps) (classical Gram-Schmidt, "twice
    is enough")."""
    qh = q.conj().T
    for _ in range(2):
        c -= q @ (qh @ c)


def _unit_scaled(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c / s, s) for s, per column of ``c``, the power of two at or below
    its largest entry: the columns of c / s peak in [1, 2), so that their
    norms, which square the entries, neither overflow nor underflow.  A
    power of two scales without rounding (short of the subnormal range), so
    a rule read in units of s decides as on c wherever c's norms are finite
    and nonzero."""
    _, e = np.frexp(np.abs(c).max(axis=0))
    s = np.ldexp(1.0, e - 1)
    return c / s, s


def _exact_verdict(rows: np.ndarray, d: int, pivots, v: np.ndarray, kind: ScalarKind):
    """(member, residual, c) of the exact column ``v`` against the span of
    the integer ``rows`` / d in the exact form (``_in_span``): c is the
    index of the residual, the first nonzero entry of v - q v[P], and is
    None for a member.  See ``in_range``."""
    l, w = _cleared(v.T)
    # the difference is d l (v - q v[P])
    diff = _in_span(w, rows, d, pivots, kind.modulus)[0]
    nz = np.flatnonzero(diff)
    if nz.size == 0:
        return True, kind.zero(), None
    c = int(nz[0])
    return False, kind.coerce(Fraction(int(diff[c]), d * l)), c


def in_range(a: Mat, v: Mat):
    """Decide whether column ``v`` lies in the column space of ``a``.

    Returns (verdict, residual).  Exact kinds read ``a`` in the exact form
    q when it is in it already, as every exact colspace and intersection
    is (q[P, :] is the identity for P the leading nonzero row of each
    column), and otherwise take q^T from one ``_rref`` of a^T; they accept
    v when v == q v[P].  The residual is 0 for members and otherwise the
    first nonzero entry, at c, of v - q v[P]: f(v) for f(x) = x_c - q[c, :]
    x[P], which vanishes on col(a), so anyone holding q can check it.  On
    float kinds ``a`` must have orthonormal columns, as a colspace has: the
    residual is the norm of v - a a^H v (see _project_out), and v is
    accepted when it is at most DEFAULT_RESIDUAL_RTOL * max(1, |v|), both
    read on v scaled by a power of two (``_unit_scaled``).
    """
    a._check_kind(v)
    if v.cols != 1 or v.rows != a.rows:
        raise ValueError(f"candidate must be a {a.rows}x1 column")
    if a.kind.exact:
        d, rows = _cleared(a.data.T)
        pivots = (rows != 0).argmax(axis=1).tolist() if rows.size else []
        if not np.array_equal(rows[:, pivots], d * np.identity(a.cols, dtype=object)):
            r, pivots = _rref(a.data.T, a.kind)
            d, rows = _cleared(r[: len(pivots)])
        return _exact_verdict(rows, d, pivots, v.data, a.kind)[:2]
    c, s = _unit_scaled(v.data)
    s = float(s[0])
    norm = float(np.linalg.norm(c))
    _project_out(a.data, c)
    residual = float(np.linalg.norm(c))
    # in units of s; 1 / s is inf only when every entry is below 2^-1023
    return residual <= DEFAULT_RESIDUAL_RTOL * max(1.0 / s, norm), residual * s


def subspace_intersect(u: Mat, v: Mat) -> Mat:
    """Basis of col(u) & col(v).  Exact kinds take any spanning columns: in
    the reduced echelon form of [[u^T, u^T], [v^T, 0]] (Zassenhaus) the
    rows with their pivot in the right half hold there the exact form of
    the intersection.

    Float kinds need orthonormal columns in u and v, as a colspace has, and
    apply the rule of in_range: (I - v v^H) u is formed by _project_out, its
    singular values are the sines of the principal angles, and the right
    singular vectors with sine <= DEFAULT_RESIDUAL_RTOL, mapped through u,
    are an orthonormal basis of the intersection."""
    u._check_kind(v)
    if u.rows != v.rows:
        raise ValueError("subspaces live in different ambient dimensions")
    if u.cols == 0 or v.cols == 0:
        return Mat.zeros(u.rows, 0, u.kind)
    if not u.kind.exact:
        defect = u.data.copy()
        _project_out(v.data, defect)
        _, sines, vh = np.linalg.svd(defect, full_matrices=False)
        keep = vh[sines <= DEFAULT_RESIDUAL_RTOL]
        return Mat(u.data.dot(keep.conj().T), u.kind)
    r, pivots = _rref(np.block([[u.data.T, u.data.T], [v.data.T, Mat.zeros(v.cols, u.rows, u.kind).data]]), u.kind)
    left = sum(c < u.rows for c in pivots)
    return Mat(r[left : len(pivots), u.rows :].T, u.kind)
