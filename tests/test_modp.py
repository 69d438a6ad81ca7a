import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import algebragen as ag

from conftest import rand_int_generator_set, rand_mat
from linalg_helpers import det


def b_minus_s_det(gs: ag.GeneratorSet) -> Fraction:
    b = ag.scale_bound(gs)
    return det(ag.Mat.identity(gs.n * gs.n, gs.kind) * b - ag.sum_kron(gs))


def test_forced_prime_dividing_det_is_a_singular_skip():
    rng = random.Random(3)
    while True:
        gs = rand_int_generator_set(rng, 2, 2, True)
        det = b_minus_s_det(gs)
        q = next((q for q in (2, 3, 5, 7, 11, 13) if det.numerator % q == 0), None)
        if q is not None:
            break
    assert ag.dimension_mod_p(gs, q, ag.scale_bound(gs)) == ag.PrimeOutcome(p=q, rank=None)
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
    rng = random.Random(5)
    gs = rand_int_generator_set(rng, 3, 2, True)
    b = ag.scale_bound(gs)
    for p in (1048583, 4294967311):  # int64 rows, then Python-int rows
        assert ag.dimension_mod_p(gs, p, b) == ag.PrimeOutcome(p=p, rank=reference_mod_p(gs, p))


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
    s = ag.sum_kron(gs.convert(kind))
    try:
        core = ag.inverse(ag.Mat.identity(gs.n * gs.n, kind) * b - s)
    except ag.SingularMatrixError:
        return None
    return ag.rank(ag.realign(core))


def test_dimension_mod_p_matches_reference():
    rng = random.Random(7)
    divides_b = singular = 0
    for _ in range(60):
        gs = rand_int_generator_set(rng, rng.randint(1, 3), rng.randint(0, 3), True, lo=-2, hi=2)
        b = ag.scale_bound(gs)
        for p in (2, 3, 5, 7, 1048583):
            outcome = ag.dimension_mod_p(gs, p, b)
            assert outcome == ag.PrimeOutcome(p=p, rank=reference_mod_p(gs, p))
            divides_b += b % p == 0
            singular += outcome.singular
    assert divides_b > 20 and singular > 20


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_clear_denominators_keeps_the_dimension(n, d, seed):
    rng = random.Random(seed)
    gens = tuple(rand_mat(rng, n, ag.RATIONAL, max_den=6) for _ in range(d))
    gs = ag.GeneratorSet(n=n, gens=gens, kind=ag.RATIONAL)
    dim, plan = ag.certified_dimension(list(gens), trials=2, seed=seed)
    assert (dim, plan) == ag.certified_dimension(ag.clear_denominators(gens), trials=2, seed=seed)
    assert dim == ag.dimension(gs)
