import random
from fractions import Fraction

import numpy as np
import pytest

import algebragen as ag
from algebragen import wordspan
from algebragen.instances import random_generator_set

from conftest import rand_int_generator_set, rand_mat, word_value


def test_dimension_golden(tri_gens):
    assert ag.dimension(tri_gens) == 5
    assert ag.dimension(tri_gens.with_unital(False)) == 4


def test_dimension_identity():
    assert ag.dimension(ag.GeneratorSet.of(ag.Mat.identity(4, ag.RATIONAL))) == 1


def test_dimension_generic_pair_is_full():
    rng = np.random.default_rng(12)
    gens = tuple(ag.Mat.wrap(rng.standard_normal((4, 4)), ag.F64) for _ in range(2))
    gs = ag.GeneratorSet(n=4, gens=gens, kind=ag.F64)
    assert ag.dimension(gs) == 16


def test_membership_golden(tri_gens, member_candidate, nonmember_candidate):
    res = ag.membership(tri_gens, member_candidate, want_certificate=True)
    assert res.member and res.residual == 0
    combo = ag.Mat.zeros(3, 3, ag.RATIONAL)
    for word, coeff in res.certificate:
        combo = combo + word_value(tri_gens, word) * coeff
    assert combo == member_candidate
    res2 = ag.membership(tri_gens, nonmember_candidate)
    assert not res2.member and res2.residual > 0 and res2.certificate is None


def test_membership_identity_always_unital(tri_gens):
    res = ag.membership(tri_gens, ag.Mat.identity(3, ag.RATIONAL))
    assert res.member and res.residual == 0


def test_membership_validation(tri_gens):
    with pytest.raises(ValueError):
        ag.membership(tri_gens, ag.Mat.identity(2, ag.RATIONAL))
    with pytest.raises(ValueError):
        ag.membership(tri_gens, ag.Mat.identity(3, ag.F64))


def test_membership_report_reuse(tri_gens, member_candidate):
    rep = ag.span_matrix(tri_gens)
    r1 = ag.membership(tri_gens, member_candidate, report=rep)
    r2 = ag.membership(tri_gens, member_candidate)
    assert r1.member == r2.member == True  # noqa: E712


def test_basis_golden_spans_expected_family(tri_gens):
    ab = ag.basis(tri_gens)
    assert ab.dim == 5 and ab.source == "resolvent"
    # every basis matrix is upper triangular with equal (2,2) and (3,3)
    for m in ab.mats:
        assert m.data[1, 0] == m.data[2, 0] == m.data[2, 1] == 0
        assert m.data[1, 1] == m.data[2, 2]
    # and the five canonical directions of that family are members
    e = lambda i, j: ag.Mat.from_rows(
        [[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)], ag.RATIONAL
    )
    family = [e(0, 0), e(0, 1), e(0, 2), e(1, 2), e(1, 1) + e(2, 2)]
    stacked = ag.Mat.wrap(
        np.concatenate([ag.vec(m).data for m in ab.mats], axis=1), ag.RATIONAL
    )
    for f in family:
        assert ag.in_range(stacked, ag.vec(f))[0]


def test_basis_empty_generators():
    gs = ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL)
    ab = ag.basis(gs)
    assert ab.dim == 1
    m = ab.mats[0]
    assert m.data[0, 1] == 0 and m.data[0, 0] == m.data[1, 1] == m.data[2, 2] != 0


def test_basis_single_nilpotent_nonunital():
    e12 = ag.Mat.from_rows([[0, 1], [0, 0]], ag.RATIONAL)
    ab = ag.basis(ag.GeneratorSet.of(e12, unital=False))
    assert ab.dim == 1
    m = ab.mats[0]
    assert m.data[0, 0] == m.data[1, 0] == m.data[1, 1] == 0 and m.data[0, 1] != 0


def test_basis_closure_under_products():
    rng = random.Random(3)
    for _ in range(6):
        gs = rand_int_generator_set(rng, rng.randint(2, 3), rng.randint(1, 2), rng.random() < 0.5)
        ab = ag.basis(gs)
        rep = ag.span_matrix(gs)
        for bi in ab.mats:
            for bj in ab.mats:
                assert ag.membership(gs, bi @ bj, report=rep).member
        if gs.unital:
            assert ag.membership(gs, ag.Mat.identity(gs.n, gs.kind), report=rep).member


def test_generator_scaling_invariance():
    rng = random.Random(13)
    for _ in range(6):
        gs = rand_int_generator_set(rng, rng.randint(2, 3), rng.randint(1, 3), rng.random() < 0.5)
        factors = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in gs.gens]
        scaled = ag.GeneratorSet(
            n=gs.n,
            gens=tuple(g * t for g, t in zip(gs.gens, factors)),
            kind=gs.kind,
            unital=gs.unital,
        )
        assert ag.dimension(gs) == ag.dimension(scaled)
        rep, rep_s = ag.span_matrix(gs), ag.span_matrix(scaled)
        for _k in range(4):
            z = rand_mat(rng, gs.n, ag.RATIONAL, max_den=2)
            assert (
                ag.membership(gs, z, report=rep).member
                == ag.membership(scaled, z, report=rep_s).member
            )


def test_dimension_monotone_in_generators():
    rng = random.Random(21)
    for _ in range(8):
        n = rng.randint(2, 4)
        x1, x2 = rand_mat(rng, n, ag.RATIONAL), rand_mat(rng, n, ag.RATIONAL)
        small = ag.dimension(ag.GeneratorSet.of(x1))
        large = ag.dimension(ag.GeneratorSet.of(x1, x2))
        assert small <= large


def test_oracle_equivalence_sample():
    rng = random.Random(77)
    for _ in range(30):
        gs = rand_int_generator_set(rng, rng.randint(2, 4), rng.randint(1, 3), rng.random() < 0.5)
        assert ag.dimension(gs) == wordspan.dimension(gs)


def test_intersect_self(tri_gens):
    ab = ag.intersect(tri_gens, tri_gens)
    assert ab.dim == ag.dimension(tri_gens)


def test_intersect_single_generator_algebras(tri_gens):
    # unital algebras of the two generators separately; the intersection is
    # checked against one computed from the word-span bases by elimination
    gs1 = ag.GeneratorSet.of(tri_gens.gens[0])
    gs2 = ag.GeneratorSet.of(tri_gens.gens[1])
    got = ag.intersect(gs1, gs2)

    u = ag.Mat.wrap(
        np.concatenate([ag.vec(m).data for m in wordspan.word_span(gs1).mats], axis=1),
        ag.RATIONAL,
    )
    v = ag.Mat.wrap(
        np.concatenate([ag.vec(m).data for m in wordspan.word_span(gs2).mats], axis=1),
        ag.RATIONAL,
    )
    expect = ag.subspace_intersect(u, v)

    assert got.dim == expect.cols
    stacked_got = ag.Mat.wrap(
        np.concatenate([ag.vec(m).data for m in got.mats], axis=1), ag.RATIONAL
    )
    # same subspace: mutual containment
    for j in range(expect.cols):
        assert ag.in_range(stacked_got, expect.col(j))[0]
    for j in range(stacked_got.cols):
        assert ag.in_range(expect, stacked_got.col(j))[0]
    # the identity direction lies in the intersection
    assert ag.in_range(stacked_got, ag.vec(ag.Mat.identity(3, ag.RATIONAL)))[0]


def test_intersect_full_algebra_with_scalars():
    rng = random.Random(5)
    while True:
        gs = rand_int_generator_set(rng, 3, 2, True)
        if ag.dimension(gs) == 9:
            break
    scalars = ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL)
    ab = ag.intersect(gs, scalars)
    assert ab.dim == 1


def test_intersect_validation(tri_gens):
    other = ag.GeneratorSet.of(ag.Mat.identity(2, ag.RATIONAL))
    with pytest.raises(ValueError):
        ag.intersect(tri_gens, other)
    with pytest.raises(ValueError):
        ag.intersect(tri_gens, tri_gens.with_unital(False))
    floaty = tri_gens.convert(ag.F64)
    with pytest.raises(ValueError):
        ag.intersect(tri_gens, floaty)


# -- one column space: membership, basis and intersect read report.colspace --


def _block_triangular_f64(rng, a, b):
    """Gaussian matrix with a zero lower-left b x a block."""
    m = rng.standard_normal((a + b, a + b))
    m[a:, :a] = 0
    return ag.Mat.wrap(m, ag.F64)


def test_f64_generic_members_at_n10():
    # a generic pair generates all of M_10, so every matrix is a member
    rng = np.random.default_rng(7)
    gs = random_generator_set(10, 2, rng)
    rep = ag.span_matrix(gs)
    assert rep.rank == 100
    for _ in range(4):
        z = ag.Mat.wrap(rng.standard_normal((10, 10)), ag.F64)
        assert ag.membership(gs, z, report=rep).member


def test_f64_block_triangular_nonmember_at_n8():
    rng = np.random.default_rng(8)
    gs = ag.GeneratorSet(n=8, gens=tuple(_block_triangular_f64(rng, 4, 4) for _ in range(2)), kind=ag.F64)
    rep = ag.span_matrix(gs)
    assert rep.rank == 48  # all block upper triangular matrices
    for _ in range(4):
        z = ag.Mat.wrap(rng.standard_normal((8, 8)), ag.F64)
        assert not ag.membership(gs, z, report=rep).member


@pytest.mark.parametrize("kind", [ag.F64, ag.C64, ag.RATIONAL])
def test_basis_is_the_unvectorized_colspace(kind):
    rng = random.Random(31)
    for unital in (True, False):
        gs = ag.GeneratorSet(n=3, gens=tuple(rand_mat(rng, 3, kind, max_den=2) for _ in range(2)),
                             kind=kind, unital=unital)
        rep, ab = ag.span_matrix(gs), ag.basis(gs)
        assert ab.dim == rep.rank == rep.colspace.cols
        for j, m in enumerate(ab.mats):
            assert m == ag.unvec(rep.colspace.col(j), 3, 3)


def test_membership_same_verdict_with_and_without_report():
    rng = np.random.default_rng(9)
    sets = [random_generator_set(10, 2, rng),
            ag.GeneratorSet(n=8, gens=tuple(_block_triangular_f64(rng, 3, 5) for _ in range(2)), kind=ag.F64)]
    for gs in sets:
        rep = ag.span_matrix(gs)
        for z in (gs.gens[0] @ gs.gens[1], ag.Mat.wrap(rng.standard_normal((gs.n, gs.n)), ag.F64)):
            assert ag.membership(gs, z, report=rep).member == ag.membership(gs, z).member
