"""Ground-truth basis builder: breadth-first products plus elimination.

Words over the generators are enumerated by degree (empty word first when
unital), and a word is kept exactly when it enlarges the span of the words
kept before it.  Each degree layer is formed by one stacked product per
generator and selected in one step on every kind.
On exact kinds that step is one elimination (``matrix._rref``): the layer's
new words are the pivot columns of [kept words | layer candidates] past the
kept ones.  On approximate kinds each column of the layer block is first
divided by a power of two near its largest entry (``matrix._unit_scaled``),
so that no norm of it overflows or underflows; the orthonormal basis of the
kept words is then projected out of the whole block twice, in one matrix
product each time, and a short pass over the layer keeps each candidate whose
residual against the words kept before it in the layer stays above
``DEFAULT_RESIDUAL_RTOL`` of its norm.  Only kept words are extended;
the span of kept words still contains every word, because a dependent
word's extensions are spanned by extensions of earlier kept words.  The
search stops at the first layer that adds no word, or once the words fill
all n^2 dimensions; every layer before the last adds a word, so it ends by
degree n^2 with the whole algebra spanned.  This is the simple baseline the
span-matrix construction is validated against, and the source of explicit
word certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSet
from .matrix import DEFAULT_RESIDUAL_RTOL, Mat, _cleared, _fractions, _project_out, _rref, _solve, _unit_scaled, vec
from .scalars import ScalarKind


@dataclass(frozen=True)
class WordBasis:
    """Linearly independent words, each paired with its product matrix,
    spanning the whole algebra."""

    n: int
    kind: ScalarKind
    unital: bool
    words: tuple[tuple[int, ...], ...]
    mats: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.words)


def word_span(gs: GeneratorSet) -> WordBasis:
    """Breadth-first word basis of the algebra generated by ``gs``.

    Over Q the products are taken of the integer generators l_i g_i, l_i
    the denominator lcm of g_i (``matrix._cleared``): a word of them is a
    nonzero multiple of the word of the g_i, so the same words are kept,
    and only the kept ones are divided back by their product of l_i into
    Fraction entries.
    """
    full = gs.n * gs.n
    gens, eye = gs.gens, Mat.identity(gs.n, gs.kind)
    if gs.kind.tag == "rational":
        # Python ints inside these Mats, until the kept words are divided back
        cleared = [_cleared(g.data) for g in gs.gens]
        gens = [Mat(ints, gs.kind) for _, ints in cleared]
        lcms = [l for l, _ in cleared]
        eye = Mat(np.identity(gs.n, dtype=int).astype(object), gs.kind)
    kept: list[np.ndarray] = []  # vectorized kept words, exact kinds only
    # approximate kinds only: orthonormal columns spanning the kept words,
    # the first len(words) of them filled
    basis = None if gs.kind.exact else np.empty((full, full), dtype=gs.kind.dtype, order="F")
    words: list[tuple[int, ...]] = []
    mats: list[Mat] = []

    def keep(candidates):
        """Keep, in order, the candidates that enlarge the span; return them."""
        if not candidates:
            return []
        k = len(words)
        if basis is None:
            vecs = [vec(m).data for _, m in candidates]
            _, pivots = _rref(np.concatenate(kept + vecs, axis=1), gs.kind, reduced=False)
            new = [c - k for c in pivots[k:]]
            kept.extend(vecs[j] for j in new)
        else:
            block, _ = _unit_scaled(np.concatenate([vec(m).data for _, m in candidates], axis=1))
            norms = np.linalg.norm(block, axis=0)
            _project_out(basis[:, :k], block)
            new = []
            for j, norm in enumerate(norms):
                c = block[:, j]
                _project_out(basis[:, k : k + len(new)], c)
                resid = np.linalg.norm(c)
                if resid > DEFAULT_RESIDUAL_RTOL * norm:
                    basis[:, k + len(new)] = c / resid
                    new.append(j)
        # copies: views would keep the layer's whole stacked products alive,
        # 4.8 MB held by the words of n = 24 against their own 2.7 MB
        layer = [(word, Mat(m.data.copy(), m.kind)) for word, m in (candidates[j] for j in new)]
        words.extend(word for word, _ in layer)
        mats.extend(m for _, m in layer)
        return layer

    def extend(frontier):
        """The frontier's words times each generator, word by word: one
        stacked product per generator, its entries made canonical (mod p
        over GF(p)) at once.  The stack and the unreduced products are gone
        before the selection, whose peak memory they would raise: by 1.4 MB
        at n = 24 on floats, and by 0.9 MB the peak of the modp-certify
        benchmark, whose case generation runs the GF(p) word span."""
        stack = np.stack([m.data for _, m in frontier])
        products = [Mat.wrap((stack @ g.data).reshape(-1, gs.n), gs.kind).data.reshape(stack.shape) for g in gens]
        return [(word + (i,), Mat(p[j], gs.kind)) for j, (word, _) in enumerate(frontier) for i, p in enumerate(products)]

    if gs.unital:
        frontier = keep([((), eye)])
    else:
        frontier = keep([((i,), g) for i, g in enumerate(gens)])
    while frontier and len(words) < full:
        frontier = keep(extend(frontier))

    if gs.kind.tag == "rational":
        mats = [Mat(_fractions(m.data, math.prod(lcms[i] for i in w)), gs.kind) for w, m in zip(words, mats)]

    return WordBasis(n=gs.n, kind=gs.kind, unital=gs.unital, words=tuple(words), mats=tuple(mats))


def dimension(gs: GeneratorSet) -> int:
    """Algebra dimension by the product-and-eliminate baseline."""
    return word_span(gs).dim


def express(wb: WordBasis, z: Mat):
    """Coefficients writing ``z`` as a combination of the basis words.

    Returns a list of (word, coefficient) pairs with nonzero coefficients
    (empty for the zero matrix), or None when ``z`` is outside the span.  On
    exact kinds [W | vec z], W the vectorized words, is cleared once to
    Python ints, which multiply far faster than Fractions, and solved by
    ``matrix._solve``; the combination is multiplied out again on those
    ints before it is returned.  An ArithmeticError says that it missed,
    a SingularMatrixError that the words are dependent (``word_span`` keeps
    none such).  On float kinds the least-squares residual is cut at
    DEFAULT_RESIDUAL_RTOL * max(1, |z|), as in ``matrix.in_range``, on vec z
    scaled by a power of two (``matrix._unit_scaled``).
    """
    if z.rows != wb.n or z.cols != wb.n:
        raise ValueError(f"candidate must be {wb.n}x{wb.n}")
    if z.kind != wb.kind:
        raise ValueError("candidate kind differs from basis kind")
    aug = np.concatenate([vec(m).data for m in wb.mats] + [vec(z).data], axis=1)
    if wb.kind.exact:
        # one lcm l scales W and vec z alike, so x is unchanged (l = 1 over GF(p))
        _, aug = _cleared(aug)
        w, target = aug[:, :-1], aug[:, -1:]
        x = _solve(w, target, wb.kind)
        if x is None:
            return None
        lx, xi = _cleared(x)
        diff = w.dot(xi) - target * lx
        p = wb.kind.modulus
        if (diff if p is None else diff % p).any():
            raise ArithmeticError("certificate failed exact re-verification")
        coeffs = list(x[:, 0])
    else:
        w, (target, s) = aug[:, :-1], _unit_scaled(aug[:, -1:])
        s = float(s[0])
        sol, *_ = np.linalg.lstsq(w, target, rcond=None)
        residual = float(np.linalg.norm(w.dot(sol) - target))
        # in units of s, as in matrix.in_range
        if residual > DEFAULT_RESIDUAL_RTOL * max(1.0 / s, float(np.linalg.norm(target))):
            return None
        coeffs = list(sol[:, 0] * s)
    return [(word, c) for word, c in zip(wb.words, coeffs) if c != 0]
