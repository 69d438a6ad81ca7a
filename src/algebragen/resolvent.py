"""Construction of the span matrix of a generator set.

The span matrix is the realignment of a resolvent (or matrix power) in the
summed Kronecker square of the generators.  It is symmetric positive
semi-definite, its column space is the vectorized algebra generated by the
input matrices, and its rank is the dimension of that algebra.  Variants
cover the unital and non-unital algebras, entrywise conjugation for complex
inputs, and a powering form that needs no norm hypothesis.

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


@dataclass(frozen=True)
class Variant:
    """Which span matrix to build.

    tag: "resolvent" (unital), "resolvent_conjugate" (unital, conjugated
    right Kronecker factor), "resolvent_nonunital", or "power" (unital,
    (1 + S)^k, no norm hypothesis).  ``k`` applies to "power" only.
    """

    tag: str
    k: int | None = None

    def __post_init__(self):
        if self.tag not in ("resolvent", "resolvent_conjugate", "resolvent_nonunital", "power"):
            raise ValueError(f"unknown variant {self.tag!r}")
        if self.tag == "power":
            if self.k is None or self.k < 1:
                raise ValueError("power variant needs an exponent k >= 1")
        elif self.k is not None:
            raise ValueError(f"variant {self.tag!r} takes no exponent")

    @property
    def conjugated(self) -> bool:
        return self.tag != "resolvent"

    @property
    def unital(self) -> bool:
        return self.tag != "resolvent_nonunital"


RESOLVENT = Variant("resolvent")
RESOLVENT_CONJUGATE = Variant("resolvent_conjugate")
RESOLVENT_NONUNITAL = Variant("resolvent_nonunital")


def power(k: int) -> Variant:
    return Variant("power", int(k))


def auto_variant(gs: GeneratorSet) -> Variant:
    """Default variant: conjugated for complex input, per the unital flag."""
    if not gs.unital:
        return RESOLVENT_NONUNITAL
    return RESOLVENT_CONJUGATE if gs.kind.tag == "c64" else RESOLVENT


@dataclass(frozen=True)
class SpanMatrixReport:
    """A computed span matrix with its provenance and rank diagnostics.

    On exact kinds ``pivots`` are the pivot columns of ``matrix``, which
    form a basis of its column space; None on approximate kinds.
    """

    matrix: Mat
    variant: Variant
    scale: object  # divisor applied to the summed Kronecker square
    rank: int
    tol: float | None
    ill_conditioned: bool
    singular_values: tuple[float, ...] | None
    pivots: tuple[int, ...] | None = None


def sum_kron(gs: GeneratorSet, conjugate: bool = False) -> Mat:
    """Sum of kron(X, X) (or kron(X, conj X)) over the generators."""
    nn = gs.n * gs.n
    total = Mat.zeros(nn, nn, gs.kind)
    for g in gs.gens:
        total = total + kron(g, g.conj() if conjugate else g)
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
    variant: Variant | None = None,
    scale="auto",
    tol: float | None = None,
) -> SpanMatrixReport:
    """Build the span matrix of ``gs`` and compute its rank.

    ``scale`` is "auto" (divide by the scale_bound integer), None (no
    rescaling; the contraction hypothesis is checked and NormBoundError is
    raised when every cheap norm is >= 1), or an explicit positive divisor
    (also checked).  The power variant needs no norm hypothesis and skips
    the check.  Over GF(p) ``scale`` must be an explicit integer B, the
    identity is scaled by B in place of dividing S by it, and there is no
    norm check; SingularMatrixError means p divides det(B*I - S).
    """
    gfp = gs.kind.tag == "gfp"
    if gfp and not isinstance(scale, int):
        raise ValueError("span matrices over GF(p) need an explicit integer scale B")
    if variant is None:
        variant = auto_variant(gs)
    if variant.unital != gs.unital:
        raise ValueError(
            f"variant {variant.tag!r} computes the "
            f"{'unital' if variant.unital else 'non-unital'} algebra but the "
            f"generator set is {'unital' if gs.unital else 'non-unital'}"
        )

    s = sum_kron(gs, conjugate=variant.conjugated)
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

    if variant.tag != "power" and scale != "auto" and not gfp and not _norm_ok(s):
        raise NormBoundError(
            "summed Kronecker square has norm >= 1 in all of Frobenius/l1/linf; "
            "rescale (scale='auto') or pass an explicit divisor"
        )

    if variant.tag == "power":
        core = _matrix_power(eye + s, variant.k)
    else:
        resolvent = inverse(eye - s)
        core = s @ resolvent if variant.tag == "resolvent_nonunital" else resolvent

    p = realign(core)
    info: RankInfo = rank_info(p, tol)
    return SpanMatrixReport(
        matrix=p,
        variant=variant,
        scale=divisor,
        rank=info.rank,
        tol=info.tol,
        ill_conditioned=info.ill_conditioned,
        singular_values=info.singular_values,
        pivots=info.pivots,
    )
