import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebragen as ag
from algebragen import wordspan
from algebragen.matrix import rank
from algebragen.modp import per_prime_failure_bound, prime_ceiling, sample_prime
from algebragen.primes import is_prime
from algebragen.matrix import _cleared, _realign
from algebragen.resolvent import _echelon_mod_p, kron_square

from conftest import rand_int_generator_set, rand_mat
from linalg_helpers import b_minus_s, convert, det, generator_set, reference_rref, square_bound, summed_kron_square


def b_minus_s_det(gs: ag.GeneratorSet) -> Fraction:
    b = square_bound(gs.gens)
    return det(ag.Mat.wrap(ag.Mat.identity(gs.n * gs.n, gs.kind).data * b - summed_kron_square(gs).data, gs.kind))


def test_forced_prime_dividing_det_is_a_singular_skip():
    rng = random.Random(3)
    while True:
        gs = rand_int_generator_set(rng, 2, 2, True)
        det = b_minus_s_det(gs)
        q = next((q for q in (2, 3, 5, 7, 11, 13) if det.numerator % q == 0), None)
        if q is not None:
            break
    x, _ = b_minus_s(gs)
    assert ag.dimension_mod_p(x, q) == ag.PrimeOutcome(p=q, rank=None)
    dim, plan = ag.certified_dimension(list(gs.gens), trials=1, seed=0, forced_prime=q)
    assert plan.outcomes[0] == ag.PrimeOutcome(p=q, rank=None)
    assert not plan.outcomes[-1].singular
    assert dim == ag.dimension(gs)


def test_prime_plan_is_seed_deterministic():
    rng = random.Random(4)
    gens = list(rand_int_generator_set(rng, 3, 2, True).gens)
    dim1, plan1 = ag.certified_dimension(gens, trials=3, seed=12345)
    dim2, plan2 = ag.certified_dimension(gens, trials=3, seed=12345)
    assert (dim1, plan1) == (dim2, plan2)
    _, other = ag.certified_dimension(gens, trials=3, seed=54321)
    assert [o.p for o in other.outcomes] != [o.p for o in plan1.outcomes]


def test_precomputed_b_gives_the_same_outcome():
    # one integer B*I - S serves every prime
    rng = random.Random(5)
    gs = rand_int_generator_set(rng, 3, 2, True)
    x, b = b_minus_s(gs)
    assert b == square_bound(gs.gens)
    for p in (1048583, 4294967311):  # int64 rows, then Python-int rows
        assert ag.dimension_mod_p(x, p) == ag.PrimeOutcome(p=p, rank=reference_mod_p(gs, p))


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_certified_dimension_matches_rational(n, d, seed):
    rng = random.Random(seed)
    gs = rand_int_generator_set(rng, n, d, True)
    dim, plan = ag.certified_dimension(list(gs.gens), trials=2, seed=seed, n=n)
    assert dim == ag.dimension(gs)
    assert sum(not o.singular for o in plan.outcomes) == 2


def reference_mod_p(gs: ag.GeneratorSet, p: int):
    """Rank of realign((B I - S)^-1) over GF(p), built step by step from the
    public pieces; None when B I - S is singular mod p."""
    b = sum(x * x for g in gs.gens for x in g.data.ravel()) + 1
    kind = ag.gf(p)
    s = summed_kron_square(convert(gs, kind))
    try:
        core = ag.inverse(ag.Mat.wrap(ag.Mat.identity(gs.n * gs.n, kind).data * kind.coerce(b) - s.data, kind))
    except ag.SingularMatrixError:
        return None
    return rank(ag.realign(core))


def test_dimension_mod_p_matches_reference():
    # every odd prime folds X by the swap, GF(2) inverts X itself, and
    # 4294967311 takes Python-int rows
    rng = random.Random(7)
    divides_b = singular = 0
    for _ in range(60):
        gs = rand_int_generator_set(rng, rng.randint(1, 5), rng.randint(0, 3), True, lo=-2, hi=2)
        x, b = b_minus_s(gs)
        for p in (2, 3, 5, 7, 1048583, 4294967311):
            outcome = ag.dimension_mod_p(x, p)
            assert outcome == ag.PrimeOutcome(p=p, rank=reference_mod_p(gs, p))
            divides_b += b % p == 0
            singular += outcome.singular
    assert divides_b > 20 and singular > 20


def test_multi_panel_images_match_python_gauss_jordan():
    # sides 36-64 take two panels, and so do the folded blocks beside their
    # identity; 1073741789 reduces a panel every 8 steps, 134217689 at its
    # end.  The reference inverts X and reduces realign(X^-1) by Gauss-Jordan
    # on Python ints, with no call into the elimination under test.
    rng = random.Random(11)
    for n in (6, 7, 8):
        side = n * n
        eye = [[int(i == j) for j in range(side)] for i in range(side)]
        full = rand_int_generator_set(rng, n, 2, True, lo=-2, hi=2)
        upper = ag.GeneratorSet(n, tuple(ag.Mat.wrap(np.triu(g.data), ag.RATIONAL) for g in full.gens), ag.RATIONAL)
        for gs in (full, upper):
            x, _ = b_minus_s(gs)
            for p in (1073741789, 134217689):
                kind = ag.gf(p)
                left, pivots = reference_rref([row + e for row, e in zip(x.tolist(), eye)], kind)
                assert pivots == list(range(side))
                inv = np.array([row[side:] for row in left], dtype=object)
                want, want_pivots = reference_rref(_realign(inv).tolist(), kind)
                r, pivots = _echelon_mod_p(x, p)
                assert pivots == want_pivots and r.tolist() == want
                assert ag.dimension_mod_p(x, p) == ag.PrimeOutcome(p=p, rank=len(pivots))
                # a generic pair spans every matrix, a triangular one at most
                # the n(n + 1)/2 triangular ones, so its images skip columns
                assert len(pivots) == side if gs is full else len(pivots) <= n * (n + 1) // 2


def test_dimension_mod_p_refuses_an_x_that_does_not_commute_with_the_swap():
    # the fold reads X in the basis of symmetric and antisymmetric pairs,
    # which only an X that commutes with vec(Y) -> vec(Y^T) keeps apart
    x = np.identity(4, dtype=object)
    x[0, 1] = 1  # E_11 -> E_11 + E_21, whose swap maps E_11 to E_12
    swapped = x.copy()
    swapped[0, 2] = 1  # and to E_11 + E_12 as well: this X commutes with it
    for p in (2, 5, 1048583, 4294967311):
        with pytest.raises(ValueError, match="commute with the swap"):
            ag.dimension_mod_p(x, p)
        want = rank(ag.realign(ag.inverse(ag.Mat.wrap(swapped, ag.gf(p)))))
        assert ag.dimension_mod_p(swapped, p) == ag.PrimeOutcome(p=p, rank=want)


class _Draws:
    """A stand-in generator whose ``integers`` returns the given draws."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, lo, hi):
        c = self.draws.pop(0)
        assert lo <= c < hi
        return c


def test_sample_prime_stays_below_the_ceiling():
    # an even draw of the ceiling N maps to N + 1, which is prime for this
    # bound; it is drawn again, and an odd draw keeps its prime
    bound = 1740.0
    n = prime_ceiling(bound)
    assert n == 2_099_626 and is_prime(n + 1)
    below = next(c for c in range(n - 1, 0, -2) if is_prime(c))
    assert sample_prime(bound, _Draws(n, below)) == below
    assert sample_prime(bound, _Draws(below - 1)) == below


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_cleared_keeps_the_dimension(n, d, seed):
    rng = random.Random(seed)
    gens = tuple(rand_mat(rng, n, ag.RATIONAL, max_den=6) for _ in range(d))
    gs = ag.GeneratorSet(n=n, gens=gens, kind=ag.RATIONAL)
    dim, plan = ag.certified_dimension(list(gens), trials=2, seed=seed)
    cleared = [ag.Mat.from_rows(_cleared(g.data)[1].tolist(), ag.RATIONAL) for g in gens]
    assert (dim, plan) == ag.certified_dimension(cleared, trials=2, seed=seed)
    assert dim == ag.dimension(gs)


def test_cleared_gives_python_ints():
    g = ag.Mat.from_rows([["1/3", "2/5"], ["-1", "0"]], ag.RATIONAL)
    l, ints = _cleared(g.data)
    assert l == 15 and ints.tolist() == [[5, 6], [-15, 0]]
    assert all(type(v) is int for v in ints.ravel())


def test_integer_b_minus_s_is_the_cleared_resolvent_matrix():
    # X = B*I - S of the cleared set, on Python ints, for mixed denominators
    rng = random.Random(11)
    gens = [ag.Mat.from_rows([[Fraction(rng.randint(-3, 3), rng.choice((1, den))) for _ in range(3)]
                              for _ in range(3)], ag.RATIONAL) for den in (3, 5, 7)]
    x, b = b_minus_s(generator_set(*gens))
    cleared = generator_set(*(ag.Mat.from_rows(_cleared(g.data)[1].tolist(), ag.RATIONAL) for g in gens))
    assert b == square_bound(cleared.gens)
    want = ag.Mat.identity(9, ag.RATIONAL).data * b - summed_kron_square(cleared).data
    assert ag.Mat.wrap(x, ag.RATIONAL) == ag.Mat.wrap(want, ag.RATIONAL)
    assert all(type(v) is int for v in x.ravel())
    empty, b0 = kron_square(ag.GeneratorSet(2, (), ag.RATIONAL))
    assert b0 == 1 and empty.tolist() == np.zeros((4, 4), dtype=int).tolist()


def test_certified_dimension_with_wide_entries():
    # entries >= 2^40: B*I - S holds entries near 2^82, far past int64,
    # and every prime still sees the rank of the rational span matrix
    rng = random.Random(19)
    for k in range(3):
        base = 1 << 40
        gens = [ag.Mat.from_rows([[Fraction(base + rng.randint(0, 9), den) if j >= i else 0 for j in range(3)]
                                  for i in range(3)], ag.RATIONAL) for den in (3, 5, 7)[: k + 1]]
        x, _ = b_minus_s(generator_set(*gens))
        assert max(abs(v) for v in x.ravel()) > 1 << 80
        dim, plan = ag.certified_dimension(gens, trials=2, seed=k)
        assert dim == ag.dimension(generator_set(*gens)) == wordspan.dimension(generator_set(*gens))


def test_certified_dimension_refuses_float_generators():
    for kind in (ag.F64, ag.C64):
        with pytest.raises(ValueError, match=f"certified_dimension.*{kind}"):
            ag.certified_dimension([ag.Mat.identity(2, kind)], trials=1, seed=0)


def test_certified_dimension_checks_sizes():
    g3, g2 = ag.Mat.identity(3, ag.RATIONAL), ag.Mat.identity(2, ag.RATIONAL)
    with pytest.raises(ValueError, match="generator is 3x3, expected 2x2"):
        ag.certified_dimension([g3], trials=1, seed=0, n=2)
    with pytest.raises(ValueError, match="generator is 2x2, expected 3x3"):
        ag.certified_dimension([g3, g2], trials=1, seed=0)


def test_a_forced_prime_is_no_trial():
    # diag(1, 6) is I mod 5, so the forced prime sees rank 1; the one trial
    # still draws its random prime, which sees 2, and only it enters the bound
    gens = [ag.Mat.from_rows([[1, 0], [0, 6]], ag.RATIONAL), ag.Mat.zeros(2, 2, ag.RATIONAL)]
    dim, plan = ag.certified_dimension(gens, trials=1, seed=1, forced_prime=5)
    assert dim == 2
    assert plan.outcomes[0] == ag.PrimeOutcome(p=5, rank=1)
    assert [o.rank for o in plan.outcomes[1:] if not o.singular] == [2]
    per_prime = per_prime_failure_bound(plan.bad_prime_bound, plan.ceiling)
    assert plan.failure_probability_bound == per_prime
    # the random primes are those of the same seed without a forced prime
    _, free = ag.certified_dimension(gens, trials=1, seed=1)
    assert plan.outcomes[1:] == free.outcomes
