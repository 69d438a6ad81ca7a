"""Membership, dimension, basis and intersection of generated matrix algebras.

Everything here reads one object, the span matrix report of
``resolvent.span_matrix`` (a realigned power of the summed Kronecker square
on float kinds, its realigned resolvent on exact kinds): the dimension is
its rank, and its ``colspace`` is a basis of the vectorized algebra.  Basis
matrices are those columns unvectorized, a candidate is a member when its
vectorization lies in that column space, and an intersection is that of two
such column spaces.  On float kinds ``colspace`` is orthonormal, so a
membership residual is a projection defect and an intersection is cut on
the sines of the principal angles.  Over Q ``colspace`` is the one exact
form, the transposed reduced echelon basis q of the algebra, lifted from
GF(p) images of the span matrix and checked exactly to span the algebra,
so its entries stay small and basis matrices are its rows; a member is a
z with vec(z) = q vec(z)[P], P the pivots of q, read with no elimination,
a non-member is witnessed by the first nonzero entry of that difference,
and an intersection comes out in the same form.  Human-readable word
certificates come from the word-span baseline, which can exhibit an
explicit combination where the span matrix only proves existence.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import wordspan
from .generators import GeneratorSet
from .matrix import Mat, _exact_verdict, in_range, subspace_intersect, vec
from .resolvent import SpanMatrixReport, span_matrix


@dataclass(frozen=True)
class MembershipResult:
    """Verdict for one candidate matrix.

    ``residual`` is the projection defect |v - Q Q^H v| of v = vec(z) on
    approximate backends.  On exact ones it is zero for members, and for a
    non-member the first nonzero entry of v - q v[P], q the basis ``basis``
    prints: f(v) for a functional f zero on the algebra (``matrix.in_range``),
    and ``witness_index`` is its index c in v; it is None for members and
    on approximate backends.  ``certificate`` (when requested and available) lists (word,
    coefficient) pairs whose combination reconstructs the candidate; words
    are tuples of 0-based generator indices, the empty tuple meaning the
    identity.
    """

    member: bool
    residual: object
    certificate: list | None = None
    witness_index: int | None = None


@dataclass(frozen=True)
class AlgebraBasis:
    """A basis of the algebra: a column block, each column unvectorized to an n x n matrix; ``dim`` is their count."""

    mats: tuple[Mat, ...]
    source: str  # the variant of the span matrix it was read from

    @property
    def dim(self) -> int:
        return len(self.mats)


def dimension(gs: GeneratorSet) -> int:
    """Dimension of the algebra generated by ``gs`` (rank of its span matrix)."""
    return span_matrix(gs).rank


def membership(
    gs: GeneratorSet,
    z: Mat,
    want_certificate: bool = False,
    report: SpanMatrixReport | None = None,
) -> MembershipResult:
    """Does ``z`` lie in the algebra generated by ``gs``?

    A float verdict accepts a residual of at most DEFAULT_RESIDUAL_RTOL *
    max(1, |z|) (see in_range).  Pass a precomputed ``report`` to amortize
    the span matrix and its column space across many candidates.  Over Q
    the verdict reads the report's integer rows of the lifted basis, and
    builds no Fraction ``colspace``.
    """
    if z.rows != gs.n or z.cols != gs.n:
        raise ValueError(f"candidate must be {gs.n}x{gs.n}")
    if z.kind != gs.kind:
        raise ValueError("candidate kind differs from generator kind")
    if report is None:
        report = span_matrix(gs)
    if report._lifted is None:
        member, residual = in_range(report.colspace, vec(z))
        index = None
    else:
        member, residual, index = _exact_verdict(*report._lifted, vec(z).data, z.kind)
    certificate = None
    if member and want_certificate:
        certificate = wordspan.express(wordspan.word_span(gs), z)
    return MembershipResult(member=member, residual=residual, certificate=certificate, witness_index=index)


def basis(gs: GeneratorSet) -> AlgebraBasis:
    """Basis matrices: the span matrix's column space, unvectorized (over Q
    the rows of the algebra's reduced echelon basis)."""
    report = span_matrix(gs)
    return AlgebraBasis(mats=_unvectorized(report.colspace, gs.n), source=report.variant)


def intersect(gs_a: GeneratorSet, gs_b: GeneratorSet) -> AlgebraBasis:
    """Basis of the intersection of two generated algebras: that of the
    column spaces of their span matrices (see subspace_intersect)."""
    if gs_a.n != gs_b.n:
        raise ValueError("intersection needs matrices of the same side")
    if gs_a.kind != gs_b.kind:
        raise ValueError("intersection needs the same scalar kind")
    if gs_a.unital != gs_b.unital:
        raise ValueError("intersection needs matching unital flags")
    report = span_matrix(gs_a)
    w = subspace_intersect(report.colspace, span_matrix(gs_b).colspace)
    return AlgebraBasis(mats=_unvectorized(w, gs_a.n), source=report.variant)


def _unvectorized(cols: Mat, n: int) -> tuple[Mat, ...]:
    """Each column of ``cols`` refolded column-major into an n x n matrix; they share no entries."""
    return tuple(Mat.wrap(m, cols.kind) for m in cols.data.T.reshape(cols.cols, n, n).transpose(0, 2, 1))
