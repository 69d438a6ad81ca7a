"""Ground-truth basis builder: breadth-first products plus elimination.

Words over the generators are enumerated by degree (empty word first when
unital), and a word is kept exactly when it enlarges the span of the words
kept before it.  On exact kinds each degree layer is selected in one
elimination (``matrix._rref``): its new words are the pivot columns of
[kept words | layer candidates] past the kept ones.  On approximate kinds
each candidate is projected against an orthonormal accumulator.  Only kept
words are extended; the span of kept words still contains every word,
because a dependent word's extensions are spanned by extensions of earlier
kept words.  This is the simple baseline the span-matrix construction is
validated against, and the source of explicit word certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorSet
from .matrix import Mat, _rref, _solve_exact, vec
from .scalars import ScalarKind

# relative residual under which a candidate counts as dependent (approximate
# kinds only; exact kinds reduce exactly)
DEFAULT_INDEPENDENCE_RTOL = 1e-9


class _Accumulator:
    """Incremental orthonormal rows for the approximate kinds."""

    def __init__(self, kind: ScalarKind, tol: float | None = None):
        self.kind = kind
        self.tol = DEFAULT_INDEPENDENCE_RTOL if tol is None else tol
        self.rows: list[np.ndarray] = []

    def insert(self, column: np.ndarray) -> bool:
        """Reduce a vector against the accumulator; keep and report True
        when it is independent of everything inserted so far."""
        v = np.asarray(column, dtype=self.kind.dtype)
        scale = np.linalg.norm(v)
        if scale == 0:
            return False
        # project out twice for numerical stability
        for _ in range(2):
            for r in self.rows:
                v = v - np.vdot(r, v) * r
        resid = np.linalg.norm(v)
        if resid <= self.tol * scale:
            return False
        v = v / resid
        self.rows.append(v)
        return True


@dataclass(frozen=True)
class WordBasis:
    """Linearly independent words, each paired with its product matrix.

    ``saturated`` is True when the search stopped because a whole degree
    layer added nothing new (or the span filled up), False when the degree
    cap cut it short.
    """

    n: int
    kind: ScalarKind
    unital: bool
    words: tuple[tuple[int, ...], ...]
    mats: tuple[Mat, ...]
    degree_reached: int
    saturated: bool

    @property
    def dim(self) -> int:
        return len(self.words)


def word_span(gs: GeneratorSet, degree_cap: int | None = None, tol: float | None = None) -> WordBasis:
    """Breadth-first word basis of the algebra generated by ``gs``.

    The default cap n^2 always saturates: words of degree up to n^2 span
    the whole algebra.
    """
    if degree_cap is None:
        degree_cap = gs.n * gs.n
    if degree_cap < 1:
        raise ValueError("degree cap must be >= 1")
    full = gs.n * gs.n
    acc = None if gs.kind.exact else _Accumulator(gs.kind, tol)
    kept: list[np.ndarray] = []  # vectorized kept words, exact kinds only
    words: list[tuple[int, ...]] = []
    mats: list[Mat] = []

    def keep(candidates):
        """Keep, in order, the candidates that enlarge the span; return them."""
        if not candidates:
            return []
        vecs = [vec(m).data for _, m in candidates]
        if acc is None:
            k = len(kept)
            _, pivots = _rref(np.concatenate(kept + vecs, axis=1), gs.kind, reduced=False)
            new = [c - k for c in pivots[k:]]
            kept.extend(vecs[j] for j in new)
        else:
            new = [j for j, v in enumerate(vecs) if acc.insert(v.ravel())]
        layer = [candidates[j] for j in new]
        words.extend(word for word, _ in layer)
        mats.extend(m for _, m in layer)
        return layer

    if gs.unital:
        frontier = keep([((), Mat.identity(gs.n, gs.kind))])
        degree = 0
    else:
        frontier = keep([((i,), g) for i, g in enumerate(gs.gens)])
        degree = 1

    saturated = not frontier or len(words) == full
    degree_reached = degree
    while frontier and len(words) < full and degree < degree_cap:
        layer = keep([(word + (i,), m @ g) for word, m in frontier for i, g in enumerate(gs.gens)])
        degree += 1
        if layer:
            degree_reached = degree
        if not layer or len(words) == full:
            saturated = True
            break
        frontier = layer
    else:
        saturated = saturated or not frontier or len(words) == full

    return WordBasis(
        n=gs.n,
        kind=gs.kind,
        unital=gs.unital,
        words=tuple(words),
        mats=tuple(mats),
        degree_reached=degree_reached,
        saturated=saturated,
    )


def dimension(gs: GeneratorSet, degree_cap: int | None = None, tol: float | None = None) -> int:
    """Algebra dimension by the product-and-eliminate baseline."""
    return word_span(gs, degree_cap, tol).dim


def express(wb: WordBasis, z: Mat, tol: float | None = None):
    """Coefficients writing ``z`` as a combination of the basis words.

    Returns a list of (word, coefficient) pairs with nonzero coefficients,
    or None when ``z`` is outside the span.  On exact kinds the combination
    is re-multiplied out and checked before being returned.
    """
    if z.rows != wb.n or z.cols != wb.n:
        raise ValueError(f"candidate must be {wb.n}x{wb.n}")
    if z.kind != wb.kind:
        raise ValueError("candidate kind differs from basis kind")
    full = wb.n * wb.n
    if not wb.mats:
        return None
    cols = np.concatenate([vec(m).data for m in wb.mats], axis=1)
    w = Mat.wrap(cols, wb.kind)
    target = vec(z)
    if wb.kind.exact:
        x = _solve_exact(w, target)
        if x is None:
            return None
        coeffs = list(x.data[:, 0])
        combo = Mat.zeros(wb.n, wb.n, wb.kind)
        for c, m in zip(coeffs, wb.mats):
            combo = combo + m * c
        if combo != z:
            raise AssertionError("certificate failed exact re-verification")
    else:
        sol, *_ = np.linalg.lstsq(w.data, target.data, rcond=None)
        residual = float(np.linalg.norm(w.data.dot(sol) - target.data))
        bound = (tol if tol is not None else 1e-8) * max(1.0, float(np.linalg.norm(target.data)))
        if residual > bound:
            return None
        coeffs = list(sol[:, 0])
    return [(word, c) for word, c in zip(wb.words, coeffs) if c != 0]
