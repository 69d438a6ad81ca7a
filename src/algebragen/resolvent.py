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
* Q realigns the resolvent (I - S/B)^-1, or S/B (I - S/B)^-1 for a
  non-unital set, up to a positive factor and on Python integers: adj(X)
  for X = B*I - S, divided by its content, whose column space is that of
  the resolvent.
* GF(p) reduces the same X mod p and inverts it there: the reduction of
  the rational (I - S/B)^-1 / B, defined also when p divides B.  This is
  the certificate of the ``modp`` module, which holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .generators import GeneratorSet
from .matrix import Mat, RankInfo, _eliminate, _fractions, rank_info, realign
from .scalars import RATIONAL


@dataclass(frozen=True, kw_only=True)
class SpanMatrixReport(RankInfo):
    """The rank of a span matrix (``matrix``) with its provenance.

    As a RankInfo it carries the rank diagnostics and ``colspace``, a basis
    of the vectorized algebra that membership, basis and intersection read.
    ``variant`` names what was realigned: "power:<k>" or
    "power_nonunital:<k>" with the exponent k on float kinds, "resolvent"
    or "resolvent_nonunital" over Q.  ``scale`` is the integer B: the
    divisor of the summed Kronecker square on floats, the B of B*I - S for
    the generators with cleared denominators over Q.
    """

    variant: str
    scale: int


def default_power_exponent(n: int) -> int:
    """Word length at which products of the generators certainly span:
    min(n^2, ceil(2 n log2 n + 4 n))."""
    if n < 1:
        raise ValueError("n must be positive")
    return min(n * n, math.ceil(2 * n * math.log2(n) + 4 * n))


def _matrix_power(m: Mat, k: int) -> Mat:
    """m^k by repeated squaring; k = 0 gives the identity."""
    acc = None
    base = m
    while k:
        if k & 1:
            acc = base if acc is None else acc @ base
        k >>= 1
        if k:
            base = base @ base
    return Mat.identity(m.rows, m.kind) if acc is None else acc


def clear_denominators(gens: Sequence[Mat]) -> list[tuple[int, np.ndarray]]:
    """Each rational generator g as (l, l g): l its denominator lcm, l g an
    object array of Python ints.

    Per-generator scaling leaves the generated algebra (and so its
    dimension) unchanged, since every word just picks up a nonzero factor.
    """
    cleared = []
    for g in gens:
        if g.kind.tag != "rational":
            raise ValueError("clear_denominators expects rational-kind matrices")
        l = math.lcm(*(x.denominator for x in g.data.ravel()))
        ints = [x.numerator * (l // x.denominator) for x in g.data.ravel()]
        cleared.append((l, np.array(ints, dtype=object).reshape(g.data.shape)))
    return cleared


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


def _rational_span(gs: GeneratorSet) -> tuple[np.ndarray, int]:
    """The content-reduced adjugate of X = B*I - S over Q, or of
    S adj(X) for a non-unital set, and B.

    One fraction-free elimination of [X | I] leaves d X^-1 in the right
    half, d the last pivot.  Divided by its content it is a positive
    multiple of X^-1 and so of the resolvent (I - S/B)^-1: the same column
    space, symmetric PSD.  d is positive: each Bareiss pivot is a leading
    principal minor B*I - S_k of X, and |S_k| <= |S| < B puts every
    eigenvalue of S_k inside the disc of radius B, so the minor, a product
    of B - lambda over real and conjugate pairs, is positive and no rows
    are swapped.
    """
    s, b = kron_square(gs)
    nn = s.shape[0]
    eye = np.identity(nn, dtype=object)
    x = b * eye - s
    a, _, d = _eliminate(np.concatenate([x, eye], axis=1), RATIONAL)
    c = math.gcd(*a[:, nn:].ravel())
    core = a[:, nn:] // c
    if not gs.unital:
        # S core = (B I - X) core, and X core = (d / c) I
        core = b * core - (d // c) * eye
    return core, b


def span_matrix(gs: GeneratorSet) -> SpanMatrixReport:
    """Build the span matrix of ``gs`` (see the module docstring) and its rank.

    GF(p) sets are refused: their B is that of the rational set they reduce
    (see ``modp``).
    """
    if gs.kind.tag == "gfp":
        raise ValueError("span matrices over GF(p) are built from a rational set in modp")
    if gs.kind.exact:
        core, b = _rational_span(gs)
        variant = "resolvent" if gs.unital else "resolvent_nonunital"
        # rank the integer entries, then hand out canonical Fractions
        info = rank_info(realign(Mat(core, RATIONAL)))
        info = replace(info, matrix=Mat(_fractions(info.matrix.data), RATIONAL))
    else:
        s, b = kron_square(gs)
        k = default_power_exponent(gs.n)
        s = Mat(s, gs.kind) * (1.0 / b)
        step = Mat.identity(gs.n * gs.n, gs.kind) + s
        if gs.unital:
            # free what the products do not read: each copy is 2.6 MB at n = 24
            del s
            core, variant = _matrix_power(step, k), f"power:{k}"
        else:
            core, variant = s @ _matrix_power(step, k - 1), f"power_nonunital:{k}"
        info = rank_info(realign(core))
    return SpanMatrixReport(**vars(info), variant=variant, scale=b)
