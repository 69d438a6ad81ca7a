"""Seeded instances whose answers are known by construction.

Every instance is a set of d = 2 generators that are block upper triangular
for a partition of n (one block means no structure), hidden by a random
similarity: orthogonal for f64, a small unimodular integer matrix for exact
data.  For generic blocks the generated algebra is the whole block upper
triangular algebra, whose dimension is (n^2 + sum of squared block sizes) / 2:
n^2 for one block, a^2 + ab + b^2 for a split (a, b).  Two partitions hidden
by the same similarity intersect in the algebra of their common refinement.

Members are random elements of the structured algebra; non-members are the
same plus one entry below the block diagonal.

An exact draw can be degenerate (small integer entries), so each one is
checked with the word-span dimension over GF(p) for one large prime.  That
dimension is at most the dimension over Q, which is at most the construction
bound, so equality certifies the expected answer; otherwise the draw is
redone.  Float draws are generic with probability 1 and are not checked here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CERT_PRIME = 2_147_483_647  # 2^31 - 1
MAX_REDRAWS = 20
TRANSVECTIONS = 2  # shears in the hiding similarity of exact data
HIDE_SEED = 1812_10041  # fixed stream of the exact hiding similarities


def structured_dim(blocks) -> int:
    """Dimension of the upper block triangular algebra of a partition."""
    n = sum(blocks)
    return (n * n + sum(b * b for b in blocks)) // 2


def refine(a, b) -> tuple[int, ...]:
    """Common refinement of two partitions of the same n."""
    cuts = sorted(set(np.cumsum(a).tolist()) | set(np.cumsum(b).tolist()))
    return tuple(int(y - x) for x, y in zip([0] + cuts, cuts))


@dataclass
class Case:
    """One generator set with its expected answers and candidates."""

    name: str
    field: str  # "f64" or "rational"
    blocks: tuple[int, ...]
    gens: list  # n x n arrays: float64, or object arrays of Fraction
    members: list
    nonmembers: list
    hide: np.ndarray  # gens = hide @ T @ unhide with T block upper triangular
    unhide: np.ndarray

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def dim(self) -> int:
        return structured_dim(self.blocks)

    def in_structure(self, m) -> bool:
        """Whether the exact matrix ``m`` lies in the structured algebra."""
        t = self.unhide.dot(np.asarray(m)).dot(self.hide)
        return all(t[i, j] == 0 for i, j in _below_blocks(self.blocks))


def _below_blocks(blocks):
    starts = np.cumsum((0,) + tuple(blocks))
    for bi in range(len(blocks)):
        for bj in range(bi):
            for i in range(starts[bi], starts[bi + 1]):
                for j in range(starts[bj], starts[bj + 1]):
                    yield i, j


def _block_upper(rng, blocks, exact: bool) -> np.ndarray:
    n = sum(blocks)
    if exact:
        # entries of one size keep the cost of exact arithmetic steady from
        # seed to seed
        t = rng.choice((-1, 1), size=(n, n)).astype(object)
    else:
        t = rng.standard_normal((n, n))
    for i, j in _below_blocks(blocks):
        t[i, j] = 0
    return t


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return q, q.T


def _unimodular(rng, n):
    """A signed permutation times a few transvections by +-1, with its
    inverse.  More shears grow the entries, and with them the cost of
    exact arithmetic."""
    u = np.eye(n, dtype=int).astype(object)
    v = np.eye(n, dtype=int).astype(object)
    for _ in range(TRANSVECTIONS):
        i, j = rng.choice(n, size=2, replace=False)
        c = int(rng.choice((-1, 1)))
        u[i, :] = u[i, :] + c * u[j, :]  # u <- E u, E = I + c e_i e_j^T
        v[:, j] = v[:, j] - c * v[:, i]  # v <- v E^-1
    perm = rng.permutation(n)
    sign = rng.choice((-1, 1), size=n).astype(object)
    return u[perm, :] * sign[:, None], v[:, perm] * sign[None, :]


def _hide(rng, field, n):
    """The hiding similarity and its inverse.

    Over Q it is drawn once per n from a fixed stream rather than from the
    workload seed: its fill-in pattern sets most of the cost of exact
    elimination, so a per-seed similarity made that cost vary by 15-25%
    between seeds.  The seed still draws every entry, member and non-member.
    """
    if field == "rational":
        return _unimodular(np.random.default_rng([HIDE_SEED, n]), n)
    return _orthogonal(rng, n)


def _draw(rng, name, field, blocks, scale, n_members, hide=None):
    exact = field == "rational"
    n = sum(blocks)
    if hide is None:
        hide = _hide(rng, field, n)
    s, s_inv = hide

    def conj(t):
        m = s.dot(t).dot(s_inv)
        if exact:
            m = np.vectorize(Fraction, otypes=[object])(m)
        return m

    gens = [conj(_block_upper(rng, blocks, exact)) for _ in range(2)]
    if scale != 1:
        gens = [g * scale for g in gens]
    members, nonmembers = [], []
    below = list(_below_blocks(blocks))
    for _ in range(n_members):
        t = _block_upper(rng, blocks, exact)
        members.append(conj(t))
        if below:
            i, j = below[rng.integers(len(below))]
            t = t.copy()
            t[i, j] = 1
            nonmembers.append(conj(t))
    return Case(name, field, tuple(blocks), gens, members, nonmembers, s, s_inv)


def certified_gf_dim(gens) -> int:
    """Word-span dimension of the reduction mod CERT_PRIME."""
    from algebragen import GeneratorSet, Mat, gf, wordspan

    kind = gf(CERT_PRIME)
    mats = tuple(Mat.from_rows(g.tolist(), kind) for g in gens)
    return wordspan.dimension(GeneratorSet(mats[0].rows, mats, kind))


def draw_case(rng, name, field, blocks, scale=1, n_members=0, hide=None) -> Case:
    """Draw a case; exact draws are redrawn until certified."""
    for _ in range(MAX_REDRAWS):
        case = _draw(rng, name, field, blocks, scale, n_members, hide)
        if field != "rational" or certified_gf_dim(case.gens) == case.dim:
            return case
    raise RuntimeError(f"{name}: no certified draw in {MAX_REDRAWS} tries")


def draw_pair(rng, name, field, blocks_a, blocks_b, n_members=0, scale_b=1):
    """Two cases sharing one hidden similarity, so their intersection is
    the structured algebra of the common refinement; returns (a, b, its
    dimension)."""
    hide = _hide(rng, field, sum(blocks_a))
    a = draw_case(rng, name + "a", field, blocks_a, 1, n_members, hide)
    b = draw_case(rng, name + "b", field, blocks_b, scale_b, n_members, hide)
    return a, b, structured_dim(refine(blocks_a, blocks_b))


def _entry(x, field) -> str:
    return repr(float(x)) if field == "f64" else str(Fraction(x))


def _doc(n, field, mats) -> dict:
    return {
        "n": n,
        "field": field,
        "unital": True,
        "generators": [[[_entry(x, field) for x in row] for row in m] for m in mats],
    }


def write_case(case: Case, directory: str) -> dict:
    """Write the generators and each candidate as instance files; returns
    the paths: {"gens": path, "members": [...], "nonmembers": [...]}."""
    def dump(stem, mats):
        path = os.path.join(directory, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_doc(case.n, case.field, mats), fh)
        return path

    return {
        "gens": dump(case.name, case.gens),
        "members": [dump(f"{case.name}.m{k}", [m]) for k, m in enumerate(case.members)],
        "nonmembers": [dump(f"{case.name}.x{k}", [m]) for k, m in enumerate(case.nonmembers)],
    }
