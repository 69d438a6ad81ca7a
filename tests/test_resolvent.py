import math
import random
from fractions import Fraction

import numpy as np
import pytest

import algebragen as ag
from algebragen import wordspan
from algebragen.matrix import in_range, rank, vec
from algebragen.resolvent import _fold, _swap_pairs, clear_denominators, default_power_exponent, kron_square

from conftest import gaussian, hidden_block_upper, rand_int_generator_set, rand_mat, random_orthogonal
from linalg_helpers import (b_minus_s, echelon_reference, frobenius_sq, is_psd, plain_power, realigned_resolvent,
                            square_bound, summed_kron_square)

GF_PRIME = 2_147_483_647  # 2^31 - 1


def test_sum_kron_golden(tri_gens):
    # over Q the builder clears the denominators 3 of the pair first
    s, b = kron_square(tri_gens)
    hot = {(0, 0), (0, 4), (1, 5), (3, 7), (4, 8)}
    for i in range(9):
        for j in range(9):
            assert s[i, j] == (1 if (i, j) in hot else 0) and type(s[i, j]) is int
    assert b == 4
    s, b = kron_square(tri_gens.convert(ag.F64))
    assert s.dtype == np.float64 and b == 2
    assert np.allclose(s, [[1 / 9 if (i, j) in hot else 0 for j in range(9)] for i in range(9)])


def test_sum_kron_edges():
    for kind in (ag.RATIONAL, ag.F64, ag.C64):
        s, b = kron_square(ag.GeneratorSet(n=3, gens=(), kind=kind))
        assert b == 1 and s.shape == (9, 9) and not s.any()
        s, b = kron_square(ag.GeneratorSet.of(ag.Mat.identity(3, kind)))
        assert b == 4 and ag.Mat.wrap(s, kind) == ag.Mat.identity(9, kind)


def test_sum_kron_conjugate():
    x = ag.Mat.wrap(np.array([[0, 1j], [0, 0]]), ag.C64)
    s, _ = kron_square(ag.GeneratorSet.of(x))
    plain = np.kron(x.data, x.data)
    # realigning turns the sums into vec outer products
    assert np.allclose(ag.realign(ag.Mat(s, ag.C64)).data, (ag.vec(x) @ ag.vec(ag.Mat(x.data.conj(), ag.C64)).T).data)
    assert np.allclose(ag.realign(ag.Mat(plain, ag.C64)).data, (ag.vec(x) @ ag.vec(x).T).data)
    assert not np.allclose(s, plain)


def test_scale_bound_examples(tri_gens):
    assert kron_square(tri_gens)[1] == 4  # 1 + 2 + 1 on the pair cleared to x1 = E11, x2 = E12 + E23
    assert kron_square(tri_gens.convert(ag.F64))[1] == 2  # ceil(3 / 9) + 1
    assert kron_square(ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL))[1] == 1
    assert kron_square(ag.GeneratorSet.of(ag.Mat.identity(3, ag.RATIONAL) * 3))[1] == 28


def _builder_cases():
    """Q sets with per-generator denominators 3, 5 and 7, and f64 and c64
    sets, each with the reference S and B of the generators it is built
    from (cleared over Q)."""
    rng = random.Random(17)
    cases = []
    for _ in range(10):
        gs = _mixed_set(rng, rng.randint(2, 4), 3, True)
        cleared = ag.GeneratorSet.of(*(ag.Mat.from_rows(ints.tolist(), ag.RATIONAL)
                                       for _, ints in clear_denominators(gs.gens)))
        cases.append((gs, cleared))
        for kind in (ag.F64, ag.C64):
            fgs = ag.GeneratorSet(gs.n, tuple(rand_mat(rng, gs.n, kind) for _ in range(rng.randint(1, 3))), kind)
            cases.append((fgs, fgs))
    return cases


def test_scale_bound_guarantees_contraction():
    for gs, ref in _builder_cases():
        s, b = kron_square(gs)
        want = summed_kron_square(ref)
        if gs.kind.exact:
            assert ag.Mat.wrap(s, ag.RATIONAL) == want
            assert all(type(v) is int for v in s.ravel())
        else:
            assert s.dtype == gs.kind.dtype and np.allclose(s, want.data, rtol=1e-13, atol=1e-13)
        assert b == square_bound(ref.gens)
        assert frobenius_sq(ag.Mat.wrap(s, gs.kind)) < b * b  # |S / B| < 1


def test_default_power_exponent():
    assert default_power_exponent(3) == 9
    assert default_power_exponent(1) == 1
    assert default_power_exponent(64) == 1024
    with pytest.raises(ValueError):
        default_power_exponent(0)


def _assert_same_colspace(u, v):
    assert rank(u) == rank(v)
    for a, b in ((u, v), (v, u)):
        for j in range(a.cols):
            assert ag.in_range(b, a.col(j))[0]


# realign((I - S/4)^-1) for the triangular pair cleared to x1 = E11 and
# x2 = E12 + E23, B = 1 + 2 + 1
GOLDEN_CLEARED_SPAN_ROWS = [
    ["4/3", "0", "0", "0", "1", "0", "0", "0", "1"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1/3", "0", "0", "0", "1/4", "0"],
    ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1/12", "0", "0"],
    ["0", "0", "0", "1/4", "0", "0", "0", "1/4", "0"],
    ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
]


def test_golden_span_matrix(tri_gens, golden_span):
    assert realigned_resolvent(tri_gens, 1) == golden_span
    assert is_psd(golden_span)
    rep = ag.span_matrix(tri_gens)
    assert rep.matrix == ag.Mat.from_rows(GOLDEN_CLEARED_SPAN_ROWS, ag.RATIONAL)
    assert rep.rank == 5
    assert rep.scale == 4
    assert rep.singular_values is None
    assert is_psd(rep.matrix)
    # the cleared pair's realigned resolvent itself, with the column space
    # of the golden resolvent of the pair as given
    cleared = ag.GeneratorSet.of(*(g * 3 for g in tri_gens.gens))
    assert rep.matrix == realigned_resolvent(cleared, 4)
    _assert_same_colspace(rep.colspace, golden_span)
    nonunital = ag.span_matrix(tri_gens.with_unital(False))
    assert nonunital.matrix == realigned_resolvent(cleared.with_unital(False), 4)
    assert nonunital.rank == 4 and is_psd(nonunital.matrix)


def test_empty_generators_unital():
    gs0 = ag.GeneratorSet(n=2, gens=(), kind=ag.RATIONAL)
    rep = ag.span_matrix(gs0)
    i2 = ag.Mat.identity(2, ag.RATIONAL)
    assert rep.matrix == ag.vec(i2) @ ag.vec(i2).T
    assert rep.rank == 1


def test_empty_generators_nonunital():
    gs0 = ag.GeneratorSet(n=2, gens=(), kind=ag.RATIONAL, unital=False)
    assert ag.span_matrix(gs0).rank == 0


def test_nilpotent_nonunital_rank(tri_gens):
    x2 = tri_gens.gens[1]
    gs = ag.GeneratorSet.of(x2, unital=False)
    rep = ag.span_matrix(gs)
    assert rep.variant == "resolvent_nonunital"
    assert rep.rank == 2  # x2 and x2^2 span; x2^3 = 0


def test_variant_validation(tri_gens):
    # B is that of the builder: of the cleared set over Q, of the set
    # itself on floats; GF(p) sets are refused (test_gfp_rejected)
    assert ag.span_matrix(tri_gens).scale == kron_square(tri_gens)[1] == 4
    for kind in (ag.F64, ag.C64):
        gs = tri_gens.convert(kind)
        assert ag.span_matrix(gs).scale == kron_square(gs)[1] == 2


def test_variant_names(tri_gens):
    assert ag.span_matrix(tri_gens).variant == "resolvent"
    assert ag.span_matrix(tri_gens.with_unital(False)).variant == "resolvent_nonunital"
    for kind in (ag.F64, ag.C64):
        gs = tri_gens.convert(kind)
        assert ag.span_matrix(gs).variant == "power:9"  # default_power_exponent(3)
        assert ag.span_matrix(gs.with_unital(False)).variant == "power_nonunital:9"


def test_gfp_rejected():
    gs = ag.GeneratorSet.of(ag.Mat.identity(2, ag.gf(7)))
    with pytest.raises(ValueError):
        ag.span_matrix(gs)


def test_explicit_scale_checked():
    # the B of the one integer builder, over Q and over GF(p)
    gs = ag.GeneratorSet.of(ag.Mat.identity(3, ag.RATIONAL) * 4)
    assert ag.span_matrix(gs).scale == 49  # 3 * 4^2 + 1
    x, b = b_minus_s(gs)
    assert b == 49
    assert ag.dimension_mod_p(x, GF_PRIME).rank == 1
    with pytest.raises(ValueError):
        ag.span_matrix(gs.convert(ag.gf(GF_PRIME)))


def test_scale_invariance_rank_and_range():
    # B and 4B span the same algebra: over Q the realigned resolvent at 4B
    # has the span matrix's column space, over GF(p) X + 3B I its rank
    rng = random.Random(23)
    for _ in range(10):
        gs = rand_int_generator_set(rng, rng.randint(2, 3), rng.randint(1, 2), rng.random() < 0.5)
        rep = ag.span_matrix(gs)
        wide_rank, _, wide_colspace = echelon_reference(realigned_resolvent(gs, 4 * rep.scale))
        assert wide_rank == rep.rank
        _assert_same_colspace(rep.colspace, wide_colspace)
        if gs.unital:
            x, b = b_minus_s(gs)
            x4 = x + 3 * b * np.identity(gs.n * gs.n, dtype=object)
            assert ag.dimension_mod_p(x, GF_PRIME).rank == ag.dimension_mod_p(x4, GF_PRIME).rank == rep.rank


def _mixed_set(rng, n, d, unital):
    """Generator i has entries over (3, 5, 7)[i % 3]: mixed per-generator
    denominators."""
    gens = tuple(
        ag.Mat.from_rows([[Fraction(rng.randint(-3, 3), rng.choice((1, (3, 5, 7)[i % 3]))) for _ in range(n)]
                          for _ in range(n)], ag.RATIONAL)
        for i in range(d)
    )
    return ag.GeneratorSet(n, gens, ag.RATIONAL, unital)


def _builder_sets():
    rng = random.Random(43)
    np_rng = np.random.default_rng(43)
    sets = []
    for unital in (True, False):
        for n, d in ((2, 1), (2, 3), (3, 1), (3, 2), (4, 2)):
            sets.append(_mixed_set(rng, n, d, unital))
        # block upper triangular for (1, 2): a proper subalgebra
        tri = [ag.Mat.from_rows(np.triu(np_rng.integers(-3, 4, (3, 3))).tolist(), ag.RATIONAL) * Fraction(1, den)
               for den in (3, 5, 7)]
        sets.append(ag.GeneratorSet(3, tuple(tri), ag.RATIONAL, unital))
        sets.append(ag.GeneratorSet(3, (), ag.RATIONAL, unital))  # the empty set
        sets.append(ag.GeneratorSet.of(ag.Mat.zeros(3, 3, ag.RATIONAL), unital=unital))  # the zero algebra
    return sets


@pytest.mark.parametrize("gs", _builder_sets(), ids=lambda gs: f"n{gs.n}-d{gs.d}-{'u' if gs.unital else 'nu'}")
def test_integer_builder_keeps_the_fraction_resolvent_colspace(gs):
    rep = ag.span_matrix(gs)
    ref = realigned_resolvent(gs, square_bound(gs.gens))
    assert rep.rank == rank(ref) == wordspan.dimension(gs)
    _assert_same_colspace(rep.colspace, ref)
    assert is_psd(rep.matrix)


def test_rational_outputs_hold_fractions():
    rng = random.Random(47)
    for unital in (True, False):
        gs = _mixed_set(rng, 3, 2, unital)
        rep = ag.span_matrix(gs)
        outs = [rep.matrix, rep.colspace, *ag.basis(gs).mats, *wordspan.word_span(gs).mats]
        assert all(type(x) is Fraction for m in outs for x in m.data.ravel())


def test_psd_across_variants():
    rng = random.Random(29)
    for unital in (True, False):
        for _ in range(8):
            gs = rand_int_generator_set(rng, rng.randint(2, 3), rng.randint(1, 3), unital)
            rep = ag.span_matrix(gs)
            assert is_psd(rep.matrix)
    # float and complex backends: spectrum bounded below by -tol
    for kind in (ag.F64, ag.C64):
        for _ in range(5):
            gens = tuple(rand_mat(rng, 3, kind, lo=-1, hi=1) for _ in range(2))
            gs = ag.GeneratorSet(n=3, gens=gens, kind=kind)
            rep = ag.span_matrix(gs)
            h = (rep.matrix.data + rep.matrix.data.conj().T) / 2
            assert float(np.linalg.eigvalsh(h).min()) >= -1e-9
            assert rep.singular_values is not None


def test_power_agrees_with_resolvent():
    # the float power form against the exact resolvent of the same set
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 4)
        gs = rand_int_generator_set(rng, n, rng.randint(1, 3), True)
        power = ag.span_matrix(gs.convert(ag.F64))
        assert power.variant.startswith("power:")
        assert power.rank == ag.span_matrix(gs).rank


def test_power_rank_monotone_saturating():
    rng = random.Random(37)
    gs = rand_int_generator_set(rng, 3, 2, True)
    step = ag.Mat.identity(9, ag.RATIONAL) + summed_kron_square(gs)
    ranks = [rank(ag.realign(ag.Mat(np.linalg.matrix_power(step.data, k), ag.RATIONAL))) for k in range(1, 12)]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    assert len(set(ranks[8:])) == 1  # constant at and beyond k = n^2


def test_power_capped_at_the_saturation_exponent():
    # one f64 generator whose (I + S/B)^k loses rank to the top eigenvalue
    # for k in the hundreds; the span matrix stops at
    # default_power_exponent(3) = 9, where the words already saturate
    x = ag.Mat.wrap(np.array([[0.5, 1.25, 0], [0, -2, 1e-3], [3, 0, 0.1]]), ag.F64)
    rep = ag.span_matrix(ag.GeneratorSet.of(x))
    assert rep.rank == 3 and rep.variant == "power:9"


def test_resolvent_matches_geometric_series_exactly():
    # with |S| <= 1/2 the tail after 50 terms is below 2^-50 in Frobenius
    # norm, hence elementwise below 2^-49
    rng = random.Random(41)
    for _ in range(5):
        gs = rand_int_generator_set(rng, 2, 2, True)
        s = summed_kron_square(gs) * Fraction(1, 4 * square_bound(gs.gens))
        assert frobenius_sq(s) <= Fraction(1, 4)  # squared <= 1/4 => norm <= 1/2
        inv = ag.inverse(ag.Mat.identity(4, ag.RATIONAL) - s)
        partial = ag.Mat.zeros(4, 4, ag.RATIONAL)
        term = ag.Mat.identity(4, ag.RATIONAL)
        for _k in range(51):
            partial = partial + term
            term = term @ s
        diff = inv - partial
        bound = Fraction(1, 2**49)
        assert all(abs(x) <= bound for x in diff.data.ravel())


FLOAT_CASES = [(ag.F64, True), (ag.F64, False), (ag.C64, True), (ag.C64, False)]
FLOAT_IDS = ["f64", "f64-nonunital", "c64", "c64-nonunital"]


@pytest.mark.parametrize("kind, unital", FLOAT_CASES, ids=FLOAT_IDS)
def test_report_fields_float_backend(kind, unital):
    # the span matrix is Hermitian: the absolute values of its eigenvalues
    # are its singular values, and the eigenvectors of the largest span the
    # space of the top left singular vectors.  Block upper triangular for
    # (2, 2), hidden: 4 + 4 + 4 of 16 dimensions
    rng = np.random.default_rng(5)
    q = random_orthogonal(rng, 4)
    gs = ag.GeneratorSet.of(*(hidden_block_upper(rng, q, 2, kind) for _ in range(2)), unital=unital)
    rep = ag.span_matrix(gs)
    assert rep.rank == 12 and rep.tol is not None and rep.tol > 0
    sv = np.array(rep.singular_values)
    assert len(sv) == 16 and np.all(np.diff(sv) <= 0)
    u, want, _ = np.linalg.svd(rep.matrix.data)
    assert np.abs(sv - want).max() <= 16 * np.finfo(np.float64).eps * want[0]
    cs = rep.colspace.data
    assert cs.shape == (16, 12) and np.abs(cs.conj().T @ cs - np.eye(12)).max() <= 1e-12
    top = u[:, :12]
    assert np.linalg.svd(cs - top @ (top.conj().T @ cs), compute_uv=False).max() <= 1e-8
    if not unital:
        empty = ag.span_matrix(ag.GeneratorSet(4, (), kind, unital=False))
        assert empty.rank == 0 and empty.colspace.data.shape == (16, 0)


@pytest.mark.parametrize("kind, unital", FLOAT_CASES, ids=FLOAT_IDS)
def test_folded_power_matches_the_plain_power(kind, unital):
    # the power is taken on S folded by the swap symmetry; unfolded, it is
    # the plain power at side n^2.  n = 1 has no antisymmetric block, d = 0
    # makes S zero, and the hidden block upper triangular pair has rank 12
    # of 16
    rng = np.random.default_rng(11)
    q = random_orthogonal(rng, 4)
    sets = [ag.GeneratorSet.of(gaussian(rng, 1, kind), gaussian(rng, 1, kind), unital=unital),
            ag.GeneratorSet.of(gaussian(rng, 2, kind), unital=unital),
            ag.GeneratorSet(3, (), kind, unital),
            ag.GeneratorSet.of(*(hidden_block_upper(rng, q, 2, kind) for _ in range(2)), unital=unital)]
    for gs in sets:
        want = plain_power(gs)
        rep = ag.span_matrix(gs)
        got = ag.realign(rep.matrix).data
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert rep.rank == 12


def test_fold_of_a_real_s_is_block_diagonal():
    # T S T = conj S, so a real S commutes with the swap T: folded as a
    # complex matrix, its blocks across the symmetric and antisymmetric
    # parts are exactly 0, and the others are the two blocks of the real fold
    rng = np.random.default_rng(13)
    for n in (1, 2, 5):
        s, _ = kron_square(ag.GeneratorSet.of(gaussian(rng, n), gaussian(rng, n)))
        pairs = _swap_pairs(n)
        sym, anti = _fold(s, pairs)
        (whole,) = _fold(s.astype(complex), pairs)
        side = n * (n + 1) // 2
        assert sym.shape == (side, side) and anti.shape == (n * n - side, n * n - side)
        assert whole.dtype == np.float64 and whole.shape == (n * n, n * n)
        assert not whole[:side, side:].any() and not whole[side:, :side].any()
        assert np.array_equal(whole[:side, :side], sym) and np.array_equal(whole[side:, side:], anti)


@pytest.mark.parametrize("kind", [ag.F64, ag.C64], ids=["f64", "c64"])
def test_full_rank_colspace_is_the_identity(kind):
    # the column space of a full-rank span matrix is the whole space: no
    # eigh, the standard basis, and the verdicts of the eigenvectors' basis
    rng = np.random.default_rng(17)
    gs = ag.GeneratorSet.of(gaussian(rng, 3, kind), gaussian(rng, 3, kind))
    rep = ag.span_matrix(gs)
    assert rep.rank == 9 and rep.colspace == ag.Mat.identity(9, kind)
    units = [np.identity(9)[:, j].reshape(3, 3, order="F") for j in range(9)]
    assert all(np.array_equal(m.data, e) for m, e in zip(ag.basis(gs).mats, units))
    eigenvectors = ag.Mat(np.linalg.eigh(rep.matrix.data)[1], kind)
    for z in (gaussian(rng, 3, kind), ag.Mat.identity(3, kind), gs.gens[0] @ gs.gens[1]):
        assert ag.membership(gs, z, report=rep).member == in_range(eigenvectors, vec(z))[0]


def _gaussian_set(n, kind, unital, seed=0):
    rng = np.random.default_rng(seed)

    def draw():
        g = rng.standard_normal((n, n))
        return g + 1j * rng.standard_normal((n, n)) if kind == ag.C64 else g

    return ag.GeneratorSet(n, tuple(ag.Mat.wrap(draw(), kind) for _ in range(2)), kind, unital)


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("kind, unital", [(ag.F64, True), (ag.F64, False), (ag.C64, True)],
                         ids=["f64", "f64-nonunital", "c64"])
def test_generic_float_sets_reach_full_rank(n, kind, unital):
    rep = ag.span_matrix(_gaussian_set(n, kind, unital))
    assert rep.rank == n * n and not rep.ill_conditioned


def test_hidden_block_triangular_rank_at_n20():
    # block upper triangular for (10, 10): 100 + 100 + 100 dimensions
    rng = np.random.default_rng(0)
    q = random_orthogonal(rng, 20)
    rep = ag.span_matrix(ag.GeneratorSet.of(*(hidden_block_upper(rng, q, 10) for _ in range(2))))
    assert rep.rank == 300 and not rep.ill_conditioned


def test_power_form_matches_wordspan_at_n16():
    gs = _gaussian_set(16, ag.F64, True, seed=1)
    assert ag.span_matrix(gs).rank == wordspan.dimension(gs) == 256
