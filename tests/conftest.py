import random
from fractions import Fraction

import numpy as np
import pytest

import algebragen as ag

# 3x3 upper-triangular pair whose unital algebra is the 5-dimensional space
# of upper triangular matrices with equal (2,2) and (3,3) entries.  All the
# golden values below were computed by hand / by the word-span baseline.
TRI_X1_ROWS = [["1/3", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
TRI_X2_ROWS = [["0", "1/3", "0"], ["0", "0", "1/3"], ["0", "0", "0"]]

MEMBER_ROWS = [["1", "0", "1"], ["0", "1", "-1"], ["0", "0", "1"]]
NONMEMBER_ROWS = [["1", "0", "1"], ["0", "1", "-1"], ["1", "0", "1"]]

# realigned (I - S)^-1 of the pair, S its summed Kronecker square unscaled
GOLDEN_SPAN_ROWS = [
    ["9/8", "0", "0", "0", "1", "0", "0", "0", "1"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1/8", "0", "0", "0", "1/9", "0"],
    ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1/72", "0", "0"],
    ["0", "0", "0", "1/9", "0", "0", "0", "1/9", "0"],
    ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
]


@pytest.fixture
def tri_gens() -> ag.GeneratorSet:
    x1 = ag.Mat.from_rows(TRI_X1_ROWS, ag.RATIONAL)
    x2 = ag.Mat.from_rows(TRI_X2_ROWS, ag.RATIONAL)
    return ag.GeneratorSet(n=3, gens=(x1, x2), kind=ag.RATIONAL)


@pytest.fixture
def member_candidate() -> ag.Mat:
    return ag.Mat.from_rows(MEMBER_ROWS, ag.RATIONAL)


@pytest.fixture
def nonmember_candidate() -> ag.Mat:
    return ag.Mat.from_rows(NONMEMBER_ROWS, ag.RATIONAL)


@pytest.fixture
def golden_span() -> ag.Mat:
    return ag.Mat.from_rows(GOLDEN_SPAN_ROWS, ag.RATIONAL)


def rand_mat(rng: random.Random, n: int, kind: ag.ScalarKind, lo=-3, hi=3, max_den=1) -> ag.Mat:
    """Random matrix with small entries; rationals get denominators up to
    max_den, floats/complexes get uniform entries in [lo, hi]."""
    if kind.tag == "rational":
        return ag.Mat.from_rows(
            [
                [Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(n)]
                for _ in range(n)
            ],
            kind,
        )
    if kind.tag == "gfp":
        return ag.Mat.from_rows(
            [[rng.randint(0, kind.modulus - 1) for _ in range(n)] for _ in range(n)], kind
        )
    if kind.tag == "c64":
        data = np.array(
            [[complex(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)] for _ in range(n)]
        )
        return ag.Mat.wrap(data, kind)
    data = np.array([[rng.uniform(lo, hi) for _ in range(n)] for _ in range(n)])
    return ag.Mat.wrap(data, kind)


def rand_int_generator_set(rng: random.Random, n: int, d: int, unital: bool, lo=-3, hi=3) -> ag.GeneratorSet:
    gens = tuple(rand_mat(rng, n, ag.RATIONAL, lo, hi) for _ in range(d))
    return ag.GeneratorSet(n=n, gens=gens, kind=ag.RATIONAL, unital=unital)


def word_value(gs: ag.GeneratorSet, word: tuple) -> ag.Mat:
    m = ag.Mat.identity(gs.n, gs.kind).data
    for i in word:
        m = m @ gs.gens[i].data
    return ag.Mat.wrap(m, gs.kind)


def gaussian(rng: np.random.Generator, n: int, kind: ag.ScalarKind = ag.F64) -> ag.Mat:
    """An n x n matrix of standard normal entries; on c64 the real and the
    imaginary parts are drawn independently."""
    t = rng.standard_normal((n, n))
    if kind.tag == "c64":
        t = t + 1j * rng.standard_normal((n, n))
    return ag.Mat.wrap(t, kind)


def hidden_block_upper(rng: np.random.Generator, q: np.ndarray, split: int, kind: ag.ScalarKind = ag.F64) -> ag.Mat:
    """q T q^T for a Gaussian T, block upper triangular for the partition
    (split, n - split) of n, and an orthogonal n x n matrix q."""
    t = gaussian(rng, q.shape[0], kind).data
    t[split:, :split] = 0
    return ag.Mat.wrap(q @ t @ q.T, kind)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((n, n)))[0]
