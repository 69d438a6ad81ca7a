import dataclasses
import inspect
import random
from fractions import Fraction

import numpy as np
import pytest

import algebragen as ag
from algebragen import matrix, resolvent, wordspan
from algebragen.instances import random_generator_set

from conftest import hidden_block_upper, rand_int_generator_set, rand_mat, random_orthogonal, word_value
from linalg_helpers import convert, generator_set


def test_no_public_function_takes_tol():
    # float cuts are fixed in the program, not settable by callers
    for name in ag.__all__:
        obj = getattr(ag, name)
        if inspect.isfunction(obj):
            assert "tol" not in inspect.signature(obj).parameters, name


def test_dimension_golden(tri_gens):
    assert ag.dimension(tri_gens) == 5
    assert ag.dimension(dataclasses.replace(tri_gens, unital=False)) == 4


def test_dimension_identity():
    assert ag.dimension(generator_set(ag.Mat.identity(4, ag.RATIONAL))) == 1


def test_dimension_generic_pair_is_full():
    rng = np.random.default_rng(12)
    gens = tuple(ag.Mat.wrap(rng.standard_normal((4, 4)), ag.F64) for _ in range(2))
    gs = ag.GeneratorSet(n=4, gens=gens, kind=ag.F64)
    assert ag.dimension(gs) == 16


def test_membership_golden(tri_gens, member_candidate, nonmember_candidate):
    res = ag.membership(tri_gens, member_candidate, want_certificate=True)
    assert res.member and res.residual == 0
    combo = ag.Mat.zeros(3, 3, ag.RATIONAL).data
    for word, coeff in res.certificate:
        combo = combo + word_value(tri_gens, word).data * coeff
    assert ag.Mat.wrap(combo, ag.RATIONAL) == member_candidate
    res2 = ag.membership(tri_gens, nonmember_candidate)
    assert not res2.member and res2.residual != 0 and res2.certificate is None


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
    family = [e(0, 0), e(0, 1), e(0, 2), e(1, 2), ag.Mat.wrap(e(1, 1).data + e(2, 2).data, ag.RATIONAL)]
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
    ab = ag.basis(generator_set(e12, unital=False))
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
                assert ag.membership(gs, ag.Mat.wrap(bi.data @ bj.data, gs.kind), report=rep).member
        if gs.unital:
            assert ag.membership(gs, ag.Mat.identity(gs.n, gs.kind), report=rep).member


def test_generator_scaling_invariance():
    rng = random.Random(13)
    for _ in range(6):
        gs = rand_int_generator_set(rng, rng.randint(2, 3), rng.randint(1, 3), rng.random() < 0.5)
        factors = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in gs.gens]
        scaled = ag.GeneratorSet(
            n=gs.n,
            gens=tuple(ag.Mat.wrap(g.data * t, gs.kind) for g, t in zip(gs.gens, factors)),
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
        small = ag.dimension(generator_set(x1))
        large = ag.dimension(generator_set(x1, x2))
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
    gs1 = generator_set(tri_gens.gens[0])
    gs2 = generator_set(tri_gens.gens[1])
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
        assert ag.in_range(stacked_got, ag.Mat.wrap(expect.data[:, j : j + 1], ag.RATIONAL))[0]
    for j in range(stacked_got.cols):
        assert ag.in_range(expect, ag.Mat.wrap(stacked_got.data[:, j : j + 1], ag.RATIONAL))[0]
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
    other = generator_set(ag.Mat.identity(2, ag.RATIONAL))
    with pytest.raises(ValueError):
        ag.intersect(tri_gens, other)
    with pytest.raises(ValueError):
        ag.intersect(tri_gens, dataclasses.replace(tri_gens, unital=False))
    floaty = convert(tri_gens, ag.F64)
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
            assert m == ag.Mat.wrap(rep.colspace.data[:, j].reshape(3, 3, order="F"), kind)


def _reader_cases(case, tri_gens):
    """(gs, other): ``basis`` reads gs, ``intersect`` gs and other."""
    rng = np.random.default_rng(3)
    nonunital = dataclasses.replace(tri_gens, unital=False)
    if case == "f64-full":
        gs = random_generator_set(3, 2, rng)
        return gs, gs
    if case == "f64-below-full":
        gs = ag.GeneratorSet(n=4, gens=tuple(_block_triangular_f64(rng, 2, 2) for _ in range(2)), kind=ag.F64)
        return gs, gs
    if case == "q-unital":
        return tri_gens, ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL)
    if case == "q-nonunital":
        return nonunital, nonunital
    zero = ag.GeneratorSet(n=3, gens=(ag.Mat.zeros(3, 3, ag.RATIONAL),), kind=ag.RATIONAL, unital=False)
    return zero, nonunital


@pytest.mark.parametrize("case", ["f64-full", "f64-below-full", "q-unital", "q-nonunital", "zero"])
def test_basis_and_intersect_read_each_column_column_major(case, tri_gens):
    gs, other = _reader_cases(case, tri_gens)
    n = gs.n
    colspace = ag.span_matrix(gs).colspace
    if case == "f64-full":
        assert np.array_equal(colspace.data, np.identity(n * n))
    inter = ag.intersect(gs, other)
    for ab, cols in ((ag.basis(gs), colspace),
                     (inter, ag.subspace_intersect(colspace, ag.span_matrix(other).colspace))):
        # the reference reader: one column at a time, refolded column-major
        want = [cols.data[:, j].reshape(n, n, order="F") for j in range(cols.cols)]
        assert ab.dim == len(ab.mats) == len(want)
        for m, w in zip(ab.mats, want):
            assert m.kind == gs.kind and m.data.shape == (n, n)
            assert [repr(x) for x in m.data.ravel()] == [repr(x) for x in w.ravel()]
        # writing into one matrix leaves every other one as it was
        before = [m.data.copy() for m in ab.mats]
        for i, m in enumerate(ab.mats):
            m.data[...] = gs.kind.coerce(7)
            assert all(np.array_equal(o.data, b) for j, (o, b) in enumerate(zip(ab.mats, before)) if j != i)
            m.data[...] = before[i]
    if case == "zero":
        assert inter.dim == 0 and inter.mats == ()


def test_membership_same_verdict_with_and_without_report():
    rng = np.random.default_rng(9)
    sets = [random_generator_set(10, 2, rng),
            ag.GeneratorSet(n=8, gens=tuple(_block_triangular_f64(rng, 3, 5) for _ in range(2)), kind=ag.F64)]
    for gs in sets:
        rep = ag.span_matrix(gs)
        for z in (ag.Mat.wrap(gs.gens[0].data @ gs.gens[1].data, ag.F64), ag.Mat.wrap(rng.standard_normal((gs.n, gs.n)), ag.F64)):
            assert ag.membership(gs, z, report=rep).member == ag.membership(gs, z).member


@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize("split", [2, 3, "half"])
def test_f64_block_triangular_members_accepted(n, split):
    a = n // 2 if split == "half" else split
    rng = np.random.default_rng([n, a])
    q = random_orthogonal(rng, n)
    gs = generator_set(*(hidden_block_upper(rng, q, a) for _ in range(2)))
    report = ag.span_matrix(gs)
    assert report.rank == (n * n + a * a + (n - a) ** 2) // 2
    below = ag.Mat.wrap(np.outer(q[:, -1], q[:, 0]), ag.F64)  # q e_n e_1^T q^T
    for _ in range(4):
        z = hidden_block_upper(rng, q, a)
        assert ag.membership(gs, z, report=report).member
        assert not ag.membership(gs, ag.Mat.wrap(z.data + below.data, ag.F64), report=report).member


def test_f64_intersection_dimension_at_n8():
    # partitions (3, 5) and (5, 3) under one similarity meet in the block
    # upper triangular algebra of (3, 2, 3): (64 + 9 + 4 + 9) / 2 = 43
    rng = np.random.default_rng(8)
    q = random_orthogonal(rng, 8)
    gs_a = generator_set(*(hidden_block_upper(rng, q, 3) for _ in range(2)))
    gs_b = generator_set(*(hidden_block_upper(rng, q, 5) for _ in range(2)))
    ab = ag.intersect(gs_a, gs_b)
    assert ab.dim == 43 and ab.source == "power:64"
    for m in ab.mats:
        assert ag.membership(gs_a, m).member and ag.membership(gs_b, m).member


# -- exact membership reads the lifted echelon basis ----------------------------


def test_q_member_verdict_against_a_report_eliminates_nothing(monkeypatch, tri_gens, member_candidate,
                                                              nonmember_candidate):
    rep = ag.span_matrix(tri_gens)
    want = ag.membership(tri_gens, nonmember_candidate, report=rep).residual

    def no_elimination(*args, **kwargs):
        raise AssertionError("a verdict against a colspace ran an elimination")

    # every exact elimination, in any module, runs matrix._eliminate
    monkeypatch.setattr(matrix, "_eliminate", no_elimination)
    with pytest.raises(AssertionError):
        ag.span_matrix(tri_gens)
    res = ag.membership(tri_gens, member_candidate, report=rep)
    assert res.member and res.residual == 0
    # a non-member's witness is read off the same difference
    res = ag.membership(tri_gens, nonmember_candidate, report=rep)
    assert not res.member and res.residual == want != 0


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "nonunital"])
def test_q_membership_against_a_report_reads_the_lifted_rows(monkeypatch, unital):
    # the verdict reads the report's integer rows: no Fraction colspace is
    # built, and it agrees with in_range on that colspace by repr
    rng = random.Random(31 + unital)
    gs = rand_int_generator_set(rng, 3, 1, unital)
    words = wordspan.word_span(gs).mats
    members = [ag.Mat.wrap(sum(w.data * Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in words), ag.RATIONAL)
               for _ in range(3)]
    zs = members + [rand_mat(rng, 3, ag.RATIONAL, max_den=3) for _ in range(3)]
    rep = ag.span_matrix(gs)
    calls = []
    built = matrix._fractions
    for module in (matrix, resolvent):
        monkeypatch.setattr(module, "_fractions", lambda *args: calls.append(args) or built(*args))
    results = [ag.membership(gs, z, report=rep) for z in zs]
    assert calls == []
    monkeypatch.undo()
    q, pivots = rep.colspace.data, list(rep.pivots)
    for z, res in zip(zs, results):
        v = ag.vec(z).data[:, 0]
        assert repr((res.member, res.residual)) == repr(ag.in_range(rep.colspace, ag.vec(z)))
        diff = (v - q.dot(v[pivots])).tolist()
        if res.member:
            assert res.witness_index is None and not any(diff)
        else:
            # the residual is the first nonzero entry of vec(z) - q vec(z)[P]
            c = res.witness_index
            assert not any(diff[:c]) and diff[c] == res.residual != 0
    assert [res.member for res in results[:3]] == [True] * 3 and not any(res.member for res in results[3:])


def test_zero_algebra_membership_and_intersect(tri_gens):
    zero = ag.GeneratorSet(n=3, gens=(ag.Mat.zeros(3, 3, ag.RATIONAL),), kind=ag.RATIONAL, unital=False)
    rep = ag.span_matrix(zero)
    assert rep.rank == 0 and rep.colspace.data.shape == (9, 0)
    res = ag.membership(zero, ag.Mat.zeros(3, 3, ag.RATIONAL), report=rep)
    assert res.member and res.residual == 0
    z = ag.Mat.from_rows([[1, 0, 0], [0, 0, Fraction(1, 2)], [0, 0, 0]], ag.RATIONAL)
    res = ag.membership(zero, z, report=rep)
    # the witness of a non-member of {0} is its first nonzero entry in vec order
    assert not res.member and res.residual == 1
    for other in (zero, dataclasses.replace(tri_gens, unital=False)):
        ab = ag.intersect(zero, other)
        assert ab.dim == 0 and ab.mats == ()
