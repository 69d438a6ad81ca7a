"""Construction of the span matrix of a generator set.

The span matrix realigns a series in S, the summed Kronecker square of the
generators (right factor conjugated).  Realigned, S^j is the sum of
vec(w) vec(w)^H over the words w of length j, so the result is symmetric
positive semi-definite, its column space is the vectorized algebra once the
words saturate, and its rank is the algebra's dimension.  The scalar kind
picks the series; no caller can choose another:

* floats realign (I + S/B)^k at k = default_power_exponent(n), or
  S/B (I + S/B)^(k-1) for a non-unital set.  Its binomial weights keep every
  word length up to k in view, where the resolvent's weights |S/B|^j lose
  the long words to rounding and leave the rank short from n = 16 on.
* Q realigns the resolvent (I - S/B)^-1, or S/B (I - S/B)^-1 for a
  non-unital set; B = scale_bound(gs) makes S/B a contraction.
* GF(p) builds the resolvent from an explicit integer B as B*I - S: its
  inverse is the reduction mod p of the rational (I - S/B)^-1 / B, defined
  also when p divides B.  This is the certificate of the ``modp`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .generators import GeneratorSet
from .matrix import Mat, RankInfo, inverse, kron, norm, rank_info, realign


@dataclass(frozen=True, kw_only=True)
class SpanMatrixReport(RankInfo):
    """The rank of a span matrix (``matrix``) with its provenance.

    As a RankInfo it carries the rank diagnostics and ``colspace``, a basis
    of the vectorized algebra that membership, basis and intersection read.
    ``variant`` names what was realigned: "power:<k>" or
    "power_nonunital:<k>" with the exponent k on float kinds, "resolvent"
    or "resolvent_nonunital" on exact kinds.  ``scale`` is the integer B:
    the divisor of the summed Kronecker square, or the B of B*I - S over
    GF(p).
    """

    variant: str
    scale: int


def sum_kron(gs: GeneratorSet) -> Mat:
    """Sum of kron(X, conj X) over the generators."""
    nn = gs.n * gs.n
    total = Mat.zeros(nn, nn, gs.kind)
    for g in gs.gens:
        total = total + kron(g, g.conj())
    return total


def scale_bound(gs: GeneratorSet) -> int:
    """Integer B = ceil(sum of squared Frobenius norms) + 1.

    Dividing the summed Kronecker square by B (equivalently, each generator
    by sqrt B) makes its Frobenius norm strictly less than 1, since the
    Frobenius norm of kron(X, X) is the squared norm of X.
    """
    if gs.kind.tag == "gfp":
        raise ValueError("no norm bound over GF(p)")
    total = Fraction(0) if gs.kind.tag == "rational" else 0.0
    for g in gs.gens:
        f = norm(g)
        total += f if gs.kind.tag == "rational" else f * f
    return math.ceil(total) + 1


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


def span_matrix(gs: GeneratorSet, scale: int | None = None) -> SpanMatrixReport:
    """Build the span matrix of ``gs`` (see the module docstring) and its rank.

    B is scale_bound(gs), except over GF(p), where ``scale`` must be that
    integer B computed over Q and SingularMatrixError means p divides
    det(B*I - S); no other kind takes a ``scale``.
    """
    gfp = gs.kind.tag == "gfp"
    if gfp and not isinstance(scale, int):
        raise ValueError("span matrices over GF(p) need an explicit integer scale B")
    if not gfp and scale is not None:
        raise ValueError("only span matrices over GF(p) take an explicit scale")

    s = sum_kron(gs)
    eye = Mat.identity(gs.n * gs.n, gs.kind)
    if gfp:
        b, eye = scale, eye * scale
    else:
        b = scale_bound(gs)
        s = s / b

    if not gs.kind.exact:
        k = default_power_exponent(gs.n)
        step = eye + s
        # free what the products do not read: each copy is 2.6 MB at n = 24
        del eye
        if gs.unital:
            del s
            core, variant = _matrix_power(step, k), f"power:{k}"
        else:
            core, variant = s @ _matrix_power(step, k - 1), f"power_nonunital:{k}"
    elif gs.unital:
        core, variant = inverse(eye - s), "resolvent"
    else:
        core, variant = s @ inverse(eye - s), "resolvent_nonunital"

    info = rank_info(realign(core))
    return SpanMatrixReport(**vars(info), variant=variant, scale=b)
