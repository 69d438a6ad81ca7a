"""The exact span matrix over Q, lifted from GF(p) images.

Its rank, pivots and column space come from the reduced echelon form of
the span matrix mod primes taken largest first below the int64 modulus
limit, lifted by rational reconstruction (and CRT) and accepted only after
an exact check.  The reference is the exact rank of the realigned Fraction
resolvent of the generators as given, by Bareiss elimination.
"""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import algebragen as ag
from algebragen import resolvent, wordspan
from algebragen.matrix import INT64_MODULUS_LIMIT, _cleared, rank
from algebragen.primes import is_prime
from algebragen.resolvent import _lift, _lift_primes, _reconstruct, _spans_algebra, kron_square

from linalg_helpers import echelon_reference, generator_set, realigned_resolvent, square_bound


def _unimodular(rng, n):
    """An integer matrix of determinant 1: unit lower times unit upper
    triangular, small entries."""
    lo = np.identity(n, dtype=object)
    up = np.identity(n, dtype=object)
    for i in range(n):
        for j in range(i):
            lo[i, j] = rng.randint(-2, 2)
            up[j, i] = rng.randint(-2, 2)
    return lo.dot(up)


def _fraction_set(rng, n, d, unital, split=None):
    """d generators with Fraction entries (denominators up to 3).  With a
    ``split``, each is block upper triangular for (split, n - split),
    hidden by one unimodular similarity."""
    p = _unimodular(rng, n)
    p_inv = ag.inverse(ag.Mat.wrap(p, ag.RATIONAL)).data
    gens = []
    for _ in range(d):
        t = np.array([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)],
                     dtype=object)
        if split is not None:
            t[split:, :split] = Fraction(0)
            t = p.dot(t).dot(p_inv)
        gens.append(ag.Mat.wrap(t, ag.RATIONAL))
    return ag.GeneratorSet(n, tuple(gens), ag.RATIONAL, unital)


def _candidates(rng, gs, count):
    """``count`` members (combinations of the word basis) and ``count``
    random matrices."""
    words = wordspan.word_span(gs).mats
    zs = []
    for _ in range(count):
        z = ag.Mat.zeros(gs.n, gs.n, ag.RATIONAL).data
        for w in words:
            z = z + w.data * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        zs.append(ag.Mat.wrap(z, ag.RATIONAL))
    zs += [ag.Mat.wrap(np.array([[Fraction(rng.randint(-3, 3)) for _ in range(gs.n)] for _ in range(gs.n)],
                                dtype=object), ag.RATIONAL) for _ in range(count)]
    return zs


def _word_columns(gs):
    mats = wordspan.word_span(gs).mats
    return ag.Mat(np.concatenate([ag.vec(m).data for m in mats], axis=1) if mats
                  else np.empty((gs.n * gs.n, 0), dtype=object), ag.RATIONAL)


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "nonunital"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lift_matches_the_bareiss_path(n, unital):
    rng = random.Random(100 * n + unital)
    sets = []
    for d in range(4):
        sets.append(_fraction_set(rng, n, d, unital))
        if n > 1:
            sets.append(_fraction_set(rng, n, d, unital, split=rng.randint(1, n - 1)))
    reports = []
    for gs in sets:
        rep = ag.span_matrix(gs)
        ref_rank, ref_pivots, ref_colspace = echelon_reference(realigned_resolvent(gs, square_bound(gs.gens)))
        assert rep.primes == resolvent.LIFT_PRIMES[: len(rep.primes)]
        assert rep.rank == ref_rank == wordspan.dimension(gs)
        # the pivots of a PSD matrix are the first independent rows of any
        # basis of its column space, so they are the echelon basis's
        assert rep.pivots == ref_pivots
        # one column space, one form: the lift is the transposed reduced
        # echelon basis of the resolvent's column space
        assert ref_colspace == rep.colspace
        # a non-member against the wide resolvent columns takes seconds at
        # n = 5: there the word basis, another basis of the space, stands in
        other = ref_colspace if n < 5 else _word_columns(gs)
        for z in _candidates(rng, gs, 2):
            assert ag.in_range(rep.colspace, ag.vec(z)) == ag.in_range(other, ag.vec(z))
        reports.append((gs, rep, other))
    # intersections of consecutive sets: the lifted dimension against
    # dim U + dim V - dim(U + V) on the reference columns
    for (gs_a, rep_a, ref_a), (gs_b, rep_b, ref_b) in zip(reports, reports[1:]):
        both = ag.Mat(np.concatenate([ref_a.data, ref_b.data], axis=1), ag.RATIONAL)
        want = ref_a.cols + ref_b.cols - rank(both)
        assert ag.intersect(gs_a, gs_b).dim == ag.subspace_intersect(rep_a.colspace, rep_b.colspace).cols == want


def test_basis_rows_lie_in_the_algebra():
    rng = random.Random(5)
    gs = _fraction_set(rng, 4, 2, True, split=2)
    words = _word_columns(gs)
    ab = ag.basis(gs)
    assert ab.dim == words.cols == 12
    for m in ab.mats:
        assert ag.in_range(words, ag.vec(m))[0]


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "nonunital"])
def test_a_wide_denominator_needs_two_primes(unital):
    # conjugating E11 by [[1, 10^6], [0, 1]] puts 1/10^6 in the echelon
    # basis of the unital algebra (-10^6 in the non-unital one): one prime
    # near 3e9 reconstructs fractions with both parts up to 38968, two
    # combined by CRT up to 2.1e9
    big = 10**6
    g = ag.Mat.from_rows([[1, -big], [0, 0]], ag.RATIONAL)
    gs = generator_set(g, unital=unital)
    rep = ag.span_matrix(gs)
    assert rep.primes == resolvent.LIFT_PRIMES[:2]
    want = [[1, 0, 0, 1], [0, 0, 1, Fraction(1, big)]] if unital else [[1, 0, -big, 0]]
    want_cols = ag.Mat.wrap(ag.Mat.from_rows(want, ag.RATIONAL).data.T, ag.RATIONAL)
    assert rep.rank == len(want)
    assert rep.colspace == want_cols
    assert ag.basis(gs).mats[-1] == ag.Mat.wrap(want_cols.data[:, -1].reshape(2, 2, order="F"), ag.RATIONAL)


def test_bad_primes_are_passed_over():
    # diag(1, 1 + P), P the product of LIFT_PRIMES, is I modulo each of
    # them: their images have rank 1, their lifts miss the generator and
    # are rejected, and the next prime below them gives 2
    g = ag.Mat.from_rows([[1, 0], [0, 1 + math.prod(resolvent.LIFT_PRIMES)]], ag.RATIONAL)
    gs = generator_set(g)
    rep = ag.span_matrix(gs)
    assert rep.rank == 2 and rep.pivots == (0, 3) and rep.primes == (3_037_000_399,)
    assert ag.membership(gs, g, report=rep).member
    assert ag.basis(gs).dim == 2


def test_a_bad_prime_list_falls_back():
    # diag(1, 6) is I mod 5: the lift over 5 alone misses the generator
    # and ends with the primes, and 7 after it gives 2
    gs = generator_set(ag.Mat.from_rows([[1, 0], [0, 6]], ag.RATIONAL))
    assert _lifted(gs, (5,))[0] is None
    (rows, d, pivots, used), _ = _lifted(gs, (5, 7))
    assert used == (7,) and pivots == [0, 3]
    assert np.array_equal(rows, d * np.array([[1, 0, 0, 0], [0, 0, 0, 1]]))
    assert ag.span_matrix(gs).rank == 2


def test_lift_primes_are_fixed_int64_primes():
    assert len(set(resolvent.LIFT_PRIMES)) == len(resolvent.LIFT_PRIMES) >= 2
    assert all(is_prime(p) and p < INT64_MODULUS_LIMIT for p in resolvent.LIFT_PRIMES)
    # they are the largest, and the sequence goes on through every prime
    # below them
    below = (c for c in range(INT64_MODULUS_LIMIT - 1, 0, -1) if is_prime(c))
    want = [next(below) for _ in range(12)]
    seq = _lift_primes()
    assert [next(seq) for _ in range(12)] == want
    assert want[: len(resolvent.LIFT_PRIMES)] == list(resolvent.LIFT_PRIMES) and want[4] == 3_037_000_399


def _lifted(gs, primes=None):
    s, b = kron_square(gs)
    x = b * np.identity(s.shape[0], dtype=object) - s
    gens = [_cleared(g.data)[1] for g in gs.gens]
    return _lift(x, b, gens, gs.unital, _lift_primes() if primes is None else primes), gens


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "nonunital"])
def test_the_check_rejects_a_truncated_or_perturbed_basis(tri_gens, unital):
    gs = dataclasses.replace(tri_gens, unital=unital)
    (rows, d, pivots, _), gens = _lifted(gs)
    assert _spans_algebra(rows, d, pivots, gens, unital)
    # one row short: a span one smaller cannot hold the algebra
    for i in range(len(pivots)):
        keep = [k for k in range(len(pivots)) if k != i]
        assert not _spans_algebra(rows[keep], d, [pivots[k] for k in keep], gens, unital)
    # any other echelon basis of the same shape spans another space
    free = [j for j in range(rows.shape[1]) if j not in pivots]
    for i in range(len(pivots)):
        for j in free:
            if j > pivots[i]:
                bent = rows.copy()
                bent[i, j] += 1
                assert not _spans_algebra(bent, d, pivots, gens, unital)


def test_the_check_on_random_sets():
    rng = random.Random(9)
    for _ in range(10):
        gs = _fraction_set(rng, 3, 2, rng.random() < 0.5, split=1)
        (rows, d, pivots, _), gens = _lifted(gs)
        assert len(pivots) == wordspan.dimension(gs)
        assert _spans_algebra(rows, d, pivots, gens, gs.unital)
        if len(pivots) > 1:
            assert not _spans_algebra(rows[1:], d, pivots[1:], gens, gs.unital)


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "nonunital"])
def test_the_check_on_either_side_of_its_product_bound(unital):
    # rows k / (d k) span what rows / d spans, and n max|rows| max|g| passes
    # 2^53 between k and k + 1: the float64 products of g E and the
    # Python-int ones give the same verdicts
    gs = _fraction_set(random.Random(4), 3, 2, unital, split=1)
    (rows, d, pivots, _), gens = _lifted(gs)
    peak = max(abs(x) for g in gens for x in g.flat)
    k = (2**53 - 1) // (gs.n * max(abs(x) for x in rows.flat) * peak)
    free = next(j for j in range(rows.shape[1]) if j not in pivots and j > pivots[0])
    for scale, below in ((k, True), (k + 1, False)):
        wide = rows * scale
        assert (gs.n * max(abs(x) for x in wide.flat) * peak < 2**53) == below
        assert _spans_algebra(wide, d * scale, pivots, gens, unital)
        assert not _spans_algebra(wide[1:], d * scale, pivots[1:], gens, unital)
        bent = wide.copy()
        bent[0, free] += 1
        assert not _spans_algebra(bent, d * scale, pivots, gens, unital)


def _euclid(u, m):
    """The fraction of one residue, entry by entry: num / den = u mod m with
    |num|, den <= sqrt(m / 2), or None."""
    t = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > t:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > t or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1 if s1 > 0 else -r1, abs(s1))


@pytest.mark.parametrize("primes", [1, 2], ids=["one-prime", "two-primes"])
def test_reconstruct_matches_the_entrywise_euclid(primes):
    # entries within t of 0 or of m, those at t and m - t among them, are
    # read at once; the rest run the Euclid loop
    m = math.prod(resolvent.LIFT_PRIMES[:primes])
    t = math.isqrt(m // 2)
    rng = random.Random(primes)
    fracs = [Fraction(rng.randint(-t, t), rng.randint(1, t)) for _ in range(20)]
    hard = [f.numerator * pow(f.denominator, -1, m) % m for f in fracs]
    easy = [0, 1, t, m - t, m - 1, rng.randint(0, t), m - rng.randint(0, t)]
    mixed = easy + hard
    rng.shuffle(mixed)
    residues = np.array(mixed, dtype=object).reshape(3, 9)
    nums, d = _reconstruct(residues, m)
    want = [_euclid(u, m) for u in mixed]
    assert nums.shape == (3, 9) and all(type(v) is int for v in nums.flat)
    assert d == math.lcm(*(f.denominator for f in want))
    assert [Fraction(v, d) for v in nums.flat] == want
    # t + 1 has no fraction within the bound, beside easy entries
    assert _euclid(t + 1, m) is None
    assert _reconstruct(np.array([[0, t, t + 1, m - t]], dtype=object), m) is None


def test_empty_and_zero_sets_lift():
    for unital, rank in ((True, 1), (False, 0)):
        for gens in ((), (ag.Mat.zeros(2, 2, ag.RATIONAL),)):
            rep = ag.span_matrix(ag.GeneratorSet(2, gens, ag.RATIONAL, unital))
            assert rep.rank == rank and rep.primes == resolvent.LIFT_PRIMES[:1]
            assert rep.colspace.cols == rank


def test_rational_reconstruction_bounds():
    p, q = resolvent.LIFT_PRIMES[:2]
    t = math.isqrt(p // 2)  # 38967

    def residues(fracs, m):
        return np.array([f.numerator * pow(f.denominator, -1, m) % m for f in fracs], dtype=object)

    fracs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-t, t - 1), Fraction(t, 2)]
    nums, d = _reconstruct(residues(fracs, p), p)
    assert d == math.lcm(7, t - 1, 2) and [Fraction(v, d) for v in nums] == fracs
    # past the bound one prime gives another small fraction (-3037 / 493
    # for 1 / 10^6), which only the exact check can reject; two primes
    # give the right one
    wide = [Fraction(1, 10**6), Fraction(-(10**6))]
    for f in wide:
        (num,), d = _reconstruct(residues([f], p), p)
        assert Fraction(num, d) != f
    nums, d = _reconstruct(residues(wide, p * q), p * q)
    assert [Fraction(v, d) for v in nums] == wide
    # 2 t^2 is 2 t^2 - p = -146315 mod p, and no fraction within the bound
    # is congruent to it
    assert _reconstruct(np.array([2 * t * t], dtype=object), p) is None
