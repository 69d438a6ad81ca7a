"""Construction of the span matrix of a generator set.

The span matrix is the realignment of a resolvent (or matrix power) in the
summed Kronecker square of the generators.  It is symmetric positive
semi-definite, its column space is the vectorized algebra generated by the
input matrices, and its rank is the dimension of that algebra.  The right
Kronecker factor is conjugated (a no-op on real and exact kinds), and the
generator set's unital flag selects the resolvent R = (I - S)^-1 (unital
algebra) or S R (non-unital).  ``power=k`` builds (I + S)^k in place of the
resolvent: it spans the unital algebra once k reaches the word length at
which products saturate, and needs no norm hypothesis.

Over GF(p) the same object is built from an explicit integer B in the form
B*I - S: its inverse is the reduction mod p of the rational
(I - S/B)^-1 / B, and it stays defined when p divides B, where S/B does not.
This is the mod-p certificate of the ``modp`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .generators import GeneratorSet
from .matrix import Mat, RankInfo, inverse, kron, norm, rank_info, realign


class NormBoundError(ValueError):
    """The resolvent contraction hypothesis failed and rescaling was off."""


@dataclass(frozen=True, kw_only=True)
class SpanMatrixReport(RankInfo):
    """The rank of a span matrix (``matrix``) with its provenance.

    As a RankInfo it carries the rank diagnostics and ``colspace``, a basis
    of the vectorized algebra that membership, basis and intersection read.
    ``variant`` names what was realigned: "resolvent", "resolvent_conjugate"
    (complex input), "resolvent_nonunital" or "power:<k>" with the exponent
    actually used.  ``scale`` is the divisor applied to the summed Kronecker
    square (the B of B*I - S over GF(p)).
    """

    variant: str
    scale: object


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
        f = norm(g, "fro")
        total += f if gs.kind.tag == "rational" else f * f
    return math.ceil(total) + 1


def default_power_exponent(n: int) -> int:
    """Word length at which products of the generators certainly span:
    min(n^2, ceil(2 n log2 n + 4 n))."""
    if n < 1:
        raise ValueError("n must be positive")
    return min(n * n, math.ceil(2 * n * math.log2(n) + 4 * n))


def _matrix_power(m: Mat, k: int) -> Mat:
    acc = Mat.identity(m.rows, m.kind)
    base = m
    while k:
        if k & 1:
            acc = acc @ base
        k >>= 1
        if k:
            base = base @ base
    return acc


def _norm_ok(s: Mat) -> bool:
    # any of the three cheap consistent norms under 1 suffices
    fro = norm(s, "fro")
    fro_ok = fro < 1  # rational "fro" is squared, same verdict
    return fro_ok or norm(s, "l1") < 1 or norm(s, "linf") < 1


def span_matrix(
    gs: GeneratorSet,
    power: int | None = None,
    scale="auto",
    tol: float | None = None,
) -> SpanMatrixReport:
    """Build the span matrix of ``gs`` and compute its rank.

    ``power`` is None for the resolvent form, or an exponent k >= 1 for the
    powering form (I + S)^k of a unital set; k is capped at
    default_power_exponent(n), where the words saturate, which keeps large
    k from swamping the float rank.  ``scale`` is "auto" (divide by
    the scale_bound integer), None (no rescaling; the contraction hypothesis
    is checked and NormBoundError is raised when every cheap norm is >= 1),
    or an explicit positive divisor (also checked).  The power form needs no
    norm hypothesis and skips the check.  Over GF(p) ``scale`` must be an
    explicit integer B, the identity is scaled by B in place of dividing S
    by it, and there is no norm check; SingularMatrixError means p divides
    det(B*I - S).
    """
    gfp = gs.kind.tag == "gfp"
    if gfp and not isinstance(scale, int):
        raise ValueError("span matrices over GF(p) need an explicit integer scale B")
    if power is not None:
        if power < 1:
            raise ValueError(f"the power form needs an exponent k >= 1, got {power}")
        if not gs.unital:
            raise ValueError("the power form computes the unital algebra; the generator set is non-unital")

    s = sum_kron(gs)
    if scale == "auto":
        divisor = scale_bound(gs)
    elif scale is None:
        divisor = 1
    else:
        divisor = scale
        if not (divisor > 0):
            raise ValueError("explicit scale must be positive")
    eye = Mat.identity(gs.n * gs.n, gs.kind)
    if gfp:
        eye = eye * divisor
    elif divisor != 1:
        s = s / divisor

    if power is None and scale != "auto" and not gfp and not _norm_ok(s):
        raise NormBoundError(
            "summed Kronecker square has norm >= 1 in all of Frobenius/l1/linf; "
            "rescale (scale='auto') or pass an explicit divisor"
        )

    if power is not None:
        # every exponent from the saturation length on spans the same algebra
        power = min(power, default_power_exponent(gs.n))
        core = _matrix_power(eye + s, power)
        variant = f"power:{power}"
    elif gs.unital:
        core = inverse(eye - s)
        variant = "resolvent_conjugate" if gs.kind.tag == "c64" else "resolvent"
    else:
        core = s @ inverse(eye - s)
        variant = "resolvent_nonunital"

    info = rank_info(realign(core), tol)
    return SpanMatrixReport(**vars(info), variant=variant, scale=divisor)
