"""Construction of the span matrix of a generator set.

The span matrix realigns a series in S, the summed Kronecker square of the
generators (right factor conjugated).  Realigned, S^j is the sum of
vec(w) vec(w)^H over the words w of length j, so the result is symmetric
positive semi-definite, its column space is the vectorized algebra once the
words saturate, and its rank is the algebra's dimension.

One builder, ``kron_square``, forms S and the integer B = ceil(sum of the
squared Frobenius norms of the generators) + 1, which makes S/B a
contraction, for every kind: on the kind's float dtype, and over Q on
Python integers from the generators with denominators cleared per
generator (the algebra does not change).  The scalar kind picks the series;
no caller can choose another:

* floats realign (I + S/B)^k at k = default_power_exponent(n), or
  S/B (I + S/B)^(k-1) for a non-unital set.  Its binomial weights keep every
  word length up to k in view, where the resolvent's weights |S/B|^j lose
  the long words to rounding and leave the rank short from n = 16 on.
  The power is taken on S folded by the swap T: vec(X) -> vec(X^T)
  (``_fold``, ``_unfold``).  T S T = conj S, so S is real in the basis of
  the symmetric pairs e_u + e_v and the antisymmetric ones i (e_u - e_v),
  and for real generators it commutes with T and splits into two blocks,
  of sides n(n+1)/2 and n(n-1)/2 (the symmetric and exterior squares).
  f64 powers the two blocks, about a quarter of the flops of the power at
  side n^2, and c64 the one real matrix, a real product in place of a
  complex one; the power is unfolded before it is realigned.
  The realigned power is Hermitian, so the rank is cut on the absolute
  values of its eigenvalues, and the column space is spanned by the
  eigenvectors of the largest, or is the whole space at full rank; no span
  matrix is factored by an SVD.
* Q realigns the resolvent (I - S/B)^-1, or S/B (I - S/B)^-1 for a
  non-unital set.  Its rank and column space are lifted from GF(p)
  images, never read off the resolvent itself.  For each prime in turn,
  largest first below INT64_MODULUS_LIMIT (``_lift_primes``), X = B*I - S
  is inverted mod p, realigned and brought to reduced echelon form
  (``_echelon_mod_p``), whose rank is a lower bound on the Q rank.  Images
  of equal rank and pivots are combined by CRT and lifted to Q by rational
  reconstruction, and a lift R is accepted only when a check on Python
  ints shows that its span holds the algebra (``_spans_algebra``).  Then
  span R is the algebra: ``colspace`` is R^T, with small entries, and
  ``pivots`` are R's pivot columns.  ``matrix`` is the realigned resolvent
  itself, B X^-1 (B X^-1 - I for a non-unital set) realigned, with
  Fraction entries.  It is built only when read.
* GF(p) reduces the same X mod p and inverts it there: the reduction of
  the rational (I - S/B)^-1 / B, defined also when p divides B.  The ranks
  of these images are the certificate of the ``modp`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .generators import GeneratorSet
from .matrix import (Mat, SingularMatrixError, _cleared, _fractions, _in_span, _realign, _rref, _spectral_rank,
                     inverse, realign)
from .primes import is_prime
from .scalars import RATIONAL, gf


@dataclass(frozen=True, kw_only=True)
class SpanMatrixReport:
    """The rank of a span matrix (``matrix``) with its provenance.

    On float kinds the matrix is Hermitian: ``singular_values`` are the
    absolute values of its eigenvalues in descending order, ``rank``,
    ``tol`` and ``ill_conditioned`` their ``matrix._spectral_rank``, and
    ``pivots`` is None.  ``colspace`` is a basis of the vectorized algebra
    that membership, basis and intersection read: on floats the
    orthonormal eigenvectors of the ``rank`` eigenvalues largest in
    absolute value, or the identity when the rank is the side, over Q the
    one exact form of the ``matrix`` module, q[pivots, :] = I.  On floats
    ``matrix`` is the realigned power, taken on the summed Kronecker square
    folded by the swap symmetry (see the module docstring).
    ``variant`` names what was realigned: "power:<k>" or
    "power_nonunital:<k>" with the exponent k on float kinds, "resolvent"
    or "resolvent_nonunital" over Q.  ``scale`` is the integer B: the
    divisor of the summed Kronecker square on floats, the B of B*I - S for
    the generators with cleared denominators over Q.

    Over Q, ``primes`` are the primes whose GF(p) images were lifted to the
    reduced echelon basis R of the algebra, ``colspace`` is R^T and
    ``pivots`` are R's pivot columns.  ``primes`` is None on float
    kinds.  ``matrix`` and ``colspace`` are built on first read: over Q
    the lift does not need the resolvent, and on floats the rank needs the
    eigenvalues only, so the eigenvectors cost one ``eigh`` when read below
    full rank.
    """

    rank: int
    tol: float | None
    ill_conditioned: bool
    singular_values: tuple[float, ...] | None
    pivots: tuple[int, ...] | None
    variant: str
    scale: int
    primes: tuple[int, ...] | None
    _matrix: Callable[[], Mat] = field(repr=False, compare=False)
    _colspace: Callable[[], Mat] = field(repr=False, compare=False)

    @cached_property
    def matrix(self) -> Mat:
        return self._matrix()

    @cached_property
    def colspace(self) -> Mat:
        return self._colspace()


def default_power_exponent(n: int) -> int:
    """Word length at which products of the generators certainly span:
    min(n^2, ceil(2 n log2 n + 4 n))."""
    if n < 1:
        raise ValueError("n must be positive")
    return min(n * n, math.ceil(2 * n * math.log2(n) + 4 * n))


def clear_denominators(gens: Sequence[Mat]) -> list[tuple[int, np.ndarray]]:
    """Each rational generator g as (l, l g): l its denominator lcm, l g an
    object array of Python ints.

    Per-generator scaling leaves the generated algebra (and so its
    dimension) unchanged, since every word just picks up a nonzero factor.
    """
    if any(g.kind.tag != "rational" for g in gens):
        raise ValueError("clear_denominators expects rational-kind matrices")
    return [_cleared(g.data) for g in gens]


def kron_square(gs: GeneratorSet) -> tuple[np.ndarray, int]:
    """(S, B): S the sum of np.kron(conj g, g) over the generators g, B =
    ceil(sum of their squared Frobenius norms) + 1.

    The Frobenius norm of S is at most the sum of the squared norms, so S/B
    is a contraction.  Over Q the generators are those of
    ``clear_denominators`` and S and B hold Python ints, never int64, since
    products of wide entries wrap; floats keep the kind's dtype.
    """
    if gs.kind.tag == "rational":
        gens = [g for _, g in clear_denominators(gs.gens)]
    else:
        gens = [g.data for g in gs.gens]
    nn = gs.n * gs.n
    s = np.zeros((nn, nn), dtype=gs.kind.dtype)
    total = 0
    for g in gens:
        s += np.kron(g.conj(), g)
        total += np.vdot(g, g).real
    return s, math.ceil(total) + 1


def _swap_pairs(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(u, v, m): the index pairs that the swap T: vec(X) -> vec(X^T) exchanges
    among the n^2 indices a*n + b of np.kron, u = a*n + b and v = b*n + a,
    first for the m pairs a < b in row-major order, then for a = b (u = v)."""
    a, b = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
    diag = np.arange(0, n * n, n + 1)
    return np.concatenate((a * n + b, diag)), np.concatenate((b * n + a, diag)), len(a)


def _fold(s: np.ndarray, pairs) -> list[np.ndarray]:
    """W^-1 S W, for W the basis e_u + e_v (e_u where u = v), then
    i (e_u - e_v) for u != v, over the ``pairs`` of ``_swap_pairs``.

    T S T = conj S and conj W = T W, so W^-1 S W is real.  Its entries are
    the real or imaginary parts of S[u, u'] + S[u, v'] (S[u, u'] where
    u' = v') and S[u, u'] - S[u, v'], one addition each.  A real S commutes
    with T, which leaves W^-1 S W block diagonal: its two blocks are
    returned, of sides m + n (symmetric) and m (antisymmetric).  For a
    complex S it is the one real matrix of side n^2.
    """
    u, v, m = pairs
    rows = s[u]
    left, right = rows[:, u[:m]], rows[:, v[:m]]
    plus = np.concatenate((left + right, rows[:, u[m:]]), axis=1)
    minus = left - right
    if not np.iscomplexobj(s):
        return [plus, minus[:m]]
    return [np.block([[plus.real, -minus.imag], [plus.imag[:m], minus.real[:m]]])]


def _unfold(blocks: list[np.ndarray], pairs, dtype) -> np.ndarray:
    """W G W^-1 in ``dtype``, for G given in the form ``_fold`` returns
    (the blocks are scaled in place).

    W^-1 reads the coordinates (x_u + x_v) / 2 (x_u where u = v) and
    (x_u - x_v) / 2i, so unfolding multiplies by 1 or 1/2 only.  With the
    blocks G_ss, G_sa, G_as, G_aa of G in that order, D halving the first m
    columns and the antisymmetric blocks padded by zeros to side m + n,
    the rows u and columns u of W G W^-1 are
    top = G_ss D + G_aa / 2 + i (G_as D - G_sa / 2), the rows u and columns
    v are cross = G_ss D - G_aa / 2 + i (G_as D + G_sa / 2), and the rows v
    are their conjugates, since T W G W^-1 T = conj(W G W^-1).
    """
    u, v, m = pairs
    side = len(u)
    if len(blocks) == 2:
        ss, aa = blocks
    else:
        (g,) = blocks
        ss, aa = g[:side, :side], g[side:, side:]
    ss[:, :m] *= 0.5
    aa *= 0.5
    top, cross = ss.astype(dtype), ss.astype(dtype)
    top[:m, :m] += aa
    cross[:m, :m] -= aa
    if len(blocks) == 1:
        sa, as_ = 0.5j * g[:side, side:], g[side:, :side]
        as_[:, :m] *= 0.5
        top[:m] += 1j * as_
        cross[:m] += 1j * as_
        top[:, :m] -= sa
        cross[:, :m] += sa
    core = np.empty((side + m, side + m), dtype)
    core[u[:, None], u] = top
    core[v[:, None], v] = top.conj()
    core[u[:, None], v] = cross
    core[v[:, None], u] = cross.conj()
    return core


def _echelon_mod_p(x: np.ndarray, p: int, b: int | None = None, reduced: bool = True):
    """The GF(p) image of the span matrix of X = B*I - S: the row echelon
    form of realign(X^-1), or with ``b`` = B of realign(S X^-1) =
    realign(B X^-1 - I) for a non-unital set, as the (R, pivots) of
    ``matrix._rref``; None when p divides det X.

    X goes into ``matrix.inverse`` unreduced: the elimination takes its
    residues itself.  X^-1 mod p is the reduction of the rational
    (I - S/B)^-1 / B, defined also when p divides B.  Its rank is at most
    the Q rank of the span matrix, since a minor that is nonzero mod p is
    nonzero over Q.  The span matrix is symmetric, so its rows span its
    column space.
    """
    kind = gf(p)
    try:
        inv = inverse(Mat(x, kind)).data
    except SingularMatrixError:
        return None
    if b is not None:
        inv = inv * (b % p) % p
        inv[np.diag_indices(inv.shape[0])] = (inv.diagonal() - 1) % p
    return _rref(_realign(inv), kind, reduced)


def _reconstruct(residues: np.ndarray, m: int):
    """(N, d) with N / d congruent to ``residues`` mod m entry by entry:
    each entry the fraction num / den with |num|, den <= sqrt(m / 2)
    (Wang's rational reconstruction by the extended Euclidean algorithm;
    von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5), d the lcm
    of the den.  None when an entry has no such fraction.
    """
    t = math.isqrt(m // 2)
    fracs = []
    for u in residues.ravel().tolist():
        if u <= t:
            fracs.append((u, 1))
        elif m - u <= t:
            fracs.append((u - m, 1))
        else:
            # r_i = s_i u mod m along the remainder sequence of (m, u)
            r0, r1, s0, s1 = m, u, 0, 1
            while r1 > t:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > t or math.gcd(r1, s1) != 1:
                return None
            fracs.append((r1 if s1 > 0 else -r1, abs(s1)))
    d = math.lcm(1, *(den for _, den in fracs))
    nums = np.array([num * (d // den) for num, den in fracs], dtype=object)
    return nums.reshape(residues.shape), d


def _spans_algebra(rows: np.ndarray, d: int, pivots: list[int], gens: list[np.ndarray], unital: bool) -> bool:
    """Does the span of the rows of ``rows`` / d, in reduced echelon form
    with the pivot columns ``pivots``, hold the algebra of the integer
    generators ``gens``?  Checked on Python ints: it holds when it holds
    vec(I) (the generators when not ``unital``) and vec(g E) for every
    generator g and every row E, because it is then closed under left
    multiplication by the generators and so holds every word.

    A vector v lies in the span exactly when d v = v[pivots] rows, the rule
    of every exact colspace (``matrix._in_span``).
    """
    r, nn = rows.shape
    n = math.isqrt(nn)
    # row-major, a row is vec(E) reshaped to E^T, and (g E)^T = E^T g^T
    ets = rows.reshape(r, n, n)
    seeds = [np.identity(n, dtype=object)] if unital else gens
    vs = [g.T.reshape(1, nn) for g in seeds] + [(ets @ g.T).reshape(r, nn) for g in gens]
    return not vs or bool(_in_span(np.concatenate(vs), rows, d, pivots).all())


# The head of the Q lift's primes: the four largest below
# INT64_MODULUS_LIMIT, written out so that no prime search runs while they
# serve.
LIFT_PRIMES = (3_037_000_493, 3_037_000_453, 3_037_000_429, 3_037_000_427)


def _lift_primes():
    """The primes below INT64_MODULUS_LIMIT, largest first: LIFT_PRIMES,
    then the next ones below them, each found by ``is_prime`` when asked
    for."""
    yield from LIFT_PRIMES
    for c in range(LIFT_PRIMES[-1] - 2, 2, -2):
        if is_prime(c):
            yield c


def _lift(x: np.ndarray, b: int, gens: list[np.ndarray], unital: bool, primes):
    """The reduced echelon basis of the algebra over Q, lifted from the
    GF(p) images of its span matrix at ``primes`` in turn: (rows, d,
    pivots, used) with rows / d the basis and ``used`` the primes whose
    images it was lifted from, or None when ``primes`` run out first.

    The rank of each prime's image is a lower bound on the Q rank.  Images
    of equal rank and pivots are combined by CRT and lifted by rational
    reconstruction.  A lift is accepted when ``_spans_algebra`` proves that
    its span holds the algebra: with the lower bound, the span is the
    algebra, and its reduced echelon basis is the Q one.  A higher rank, or
    the same rank with earlier pivots, comes from a better prime and starts
    the combination again; a lower one is skipped.

    Over ``_lift_primes()`` it always returns.  Only finitely many primes
    are bad, and a bad one can only lower the rank or move the pivots
    later, so the good primes keep the best key.  Their images are those
    of the Q basis, and their CRT modulus grows until the reconstruction
    succeeds.
    """
    best, residues, m, used = None, None, 1, []
    for p in primes:
        image = _echelon_mod_p(x, p, None if unital else b)
        if image is None:
            continue
        rows, pivots = image
        rows = rows[: len(pivots)]
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, residues, m, used = key, rows, p, [p]
        elif key == best:
            t = (rows - residues) * pow(m, -1, p) % p
            residues, m = residues + m * t, m * p
            used.append(p)
        else:
            continue
        lifted = _reconstruct(residues, m)
        if lifted is not None and _spans_algebra(*lifted, pivots, gens, unital):
            return *lifted, pivots, tuple(used)
    return None


def span_matrix(gs: GeneratorSet) -> SpanMatrixReport:
    """Build the span matrix of ``gs`` (see the module docstring) and its rank.

    GF(p) sets are refused: their B is that of the rational set they reduce
    (see ``modp``).
    """
    if gs.kind.tag == "gfp":
        raise ValueError("span matrices over GF(p) are built from a rational set in modp")
    s, b = kron_square(gs)
    if gs.kind.exact:
        x = b * np.identity(s.shape[0], dtype=object) - s
        gens = [g for _, g in clear_denominators(gs.gens)]
        rows, d, pivots, primes = _lift(x, b, gens, gs.unital, _lift_primes())

        def realigned_resolvent() -> Mat:
            # B X^-1 = (I - S/B)^-1, and B X^-1 - I = S/B (I - S/B)^-1
            core = inverse(Mat(_fractions(x), RATIONAL)) * b
            if not gs.unital:
                core = core - Mat.identity(core.rows, RATIONAL)
            return realign(core)

        return SpanMatrixReport(rank=len(pivots), tol=None, ill_conditioned=False, singular_values=None,
                                pivots=tuple(pivots), variant="resolvent" if gs.unital else "resolvent_nonunital",
                                scale=b, primes=primes, _matrix=realigned_resolvent,
                                _colspace=lambda: Mat(_fractions(rows.T, d), RATIONAL))
    k = default_power_exponent(gs.n)
    pairs = _swap_pairs(gs.n)
    blocks = _fold(s, pairs)
    del s  # 2.6 MB at n = 24, and the power reads only the blocks
    powers = []
    for f in blocks:
        f *= 1.0 / b
        step = np.identity(len(f))
        step += f
        powers.append(np.linalg.matrix_power(step, k) if gs.unital else f.dot(np.linalg.matrix_power(step, k - 1)))
    variant = f"power:{k}" if gs.unital else f"power_nonunital:{k}"
    m = realign(Mat(_unfold(powers, pairs, gs.kind.dtype), gs.kind))
    values = np.sort(np.abs(np.linalg.eigvalsh(m.data)))[::-1]
    r, tol, flagged = _spectral_rank(values, m.rows)

    def colspace() -> Mat:
        if r == m.rows:
            return Mat.identity(r, gs.kind)
        w, v = np.linalg.eigh(m.data)
        return Mat(v[:, np.argsort(-np.abs(w), kind="stable")[:r]], gs.kind)

    return SpanMatrixReport(rank=r, tol=tol, ill_conditioned=flagged, singular_values=tuple(values.tolist()),
                            pivots=None, variant=variant, scale=b, primes=None, _matrix=lambda: m,
                            _colspace=colspace)
