import math
import random
from fractions import Fraction

import numpy as np
import pytest

import algebragen as ag
from algebragen.resolvent import _matrix_power

from conftest import rand_int_generator_set, rand_mat
from linalg_helpers import is_psd


def test_sum_kron_golden(tri_gens):
    s = ag.sum_kron(tri_gens)
    hot = {(0, 0), (0, 4), (1, 5), (3, 7), (4, 8)}
    for i in range(9):
        for j in range(9):
            expect = Fraction(1, 9) if (i, j) in hot else 0
            assert s.data[i, j] == expect
    assert ag.norm(s, "fro") == Fraction(5, 81)


def test_sum_kron_edges():
    gs0 = ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL)
    assert ag.sum_kron(gs0) == ag.Mat.zeros(9, 9, ag.RATIONAL)
    gsi = ag.GeneratorSet.of(ag.Mat.identity(3, ag.RATIONAL))
    assert ag.sum_kron(gsi) == ag.Mat.identity(9, ag.RATIONAL)


def test_sum_kron_conjugate():
    x = ag.Mat.wrap(np.array([[0, 1j], [0, 0]]), ag.C64)
    gs = ag.GeneratorSet.of(x)
    plain = ag.kron(x, x)
    conj = ag.sum_kron(gs)
    # realigning turns the sums into vec outer products
    assert np.allclose(
        ag.realign(conj).data, (ag.vec(x) @ ag.vec(x.conj()).T).data
    )
    assert np.allclose(
        ag.realign(plain).data, (ag.vec(x) @ ag.vec(x).T).data
    )
    assert not np.allclose(conj.data, plain.data)


def test_scale_bound_examples(tri_gens):
    assert ag.scale_bound(tri_gens) == 2
    gs0 = ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL)
    assert ag.scale_bound(gs0) == 1
    gs3 = ag.GeneratorSet.of(ag.Mat.identity(3, ag.RATIONAL) * 3)
    assert ag.scale_bound(gs3) == 28


def test_scale_bound_guarantees_contraction():
    rng = random.Random(17)
    for _ in range(20):
        gs = rand_int_generator_set(rng, rng.randint(2, 4), rng.randint(1, 3), True)
        b = ag.scale_bound(gs)
        s = ag.sum_kron(gs) / b
        assert ag.norm(s, "fro") < 1  # squared norm under 1 iff norm under 1


def test_default_power_exponent():
    assert ag.default_power_exponent(3) == 9
    assert ag.default_power_exponent(1) == 1
    assert ag.default_power_exponent(64) == 1024
    with pytest.raises(ValueError):
        ag.default_power_exponent(0)


def test_golden_span_matrix(tri_gens, golden_span):
    rep = ag.span_matrix(tri_gens, scale=None)
    assert rep.matrix == golden_span
    assert rep.rank == 5
    assert rep.scale == 1
    assert rep.singular_values is None
    assert is_psd(rep.matrix)


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


def test_variant_validation():
    with pytest.raises(ValueError):
        ag.span_matrix(ag.GeneratorSet.of(ag.Mat.identity(2, ag.RATIONAL)), power=0)  # needs k >= 1
    gs = ag.GeneratorSet.of(ag.Mat.identity(2, ag.RATIONAL), unital=False)
    with pytest.raises(ValueError):
        ag.span_matrix(gs, power=4)  # power is unital-only


def test_variant_names(tri_gens):
    assert ag.span_matrix(tri_gens).variant == "resolvent"
    assert ag.span_matrix(tri_gens, power=5).variant == "power:5"
    gs = tri_gens.convert(ag.C64)
    assert ag.span_matrix(gs).variant == "resolvent_conjugate"
    assert ag.span_matrix(gs.with_unital(False)).variant == "resolvent_nonunital"


def test_gfp_rejected():
    gs = ag.GeneratorSet.of(ag.Mat.identity(2, ag.gf(7)))
    with pytest.raises(ValueError):
        ag.span_matrix(gs)
    with pytest.raises(ValueError):
        ag.scale_bound(gs)


def test_norm_bound_failure_and_rescale():
    gs = ag.GeneratorSet.of(ag.Mat.identity(3, ag.RATIONAL))
    with pytest.raises(ag.NormBoundError):
        ag.span_matrix(gs, scale=None)
    rep = ag.span_matrix(gs)  # auto rescue
    assert rep.rank == 1


def test_norm_check_passes_on_any_norm():
    # row-spread generator: Frobenius and linf fail, l1 passes
    x = ag.Mat.from_rows([["7/10", "7/10", "7/10"], [0, 0, 0], [0, 0, 0]], ag.RATIONAL)
    gs = ag.GeneratorSet.of(x)
    s = ag.sum_kron(gs)
    assert ag.norm(s, "fro") >= 1  # squared norm 1.47^2... still >= 1
    assert ag.norm(s, "linf") >= 1
    assert ag.norm(s, "l1") < 1
    rep = ag.span_matrix(gs, scale=None)
    assert rep.rank == ag.span_matrix(gs).rank


def test_explicit_scale_checked():
    gs = ag.GeneratorSet.of(ag.Mat.identity(3, ag.RATIONAL) * 4)
    with pytest.raises(ag.NormBoundError):
        ag.span_matrix(gs, scale=2)  # 16/2 = 8 per entry block, all norms >= 1
    rep = ag.span_matrix(gs, scale=Fraction(100))
    assert rep.rank == 1
    with pytest.raises(ValueError):
        ag.span_matrix(gs, scale=-1)


def test_scale_invariance_rank_and_range():
    rng = random.Random(23)
    for _ in range(10):
        gs = rand_int_generator_set(rng, rng.randint(2, 3), rng.randint(1, 2), rng.random() < 0.5)
        auto = ag.span_matrix(gs)
        explicit = ag.span_matrix(gs, scale=4 * auto.scale)
        assert auto.rank == explicit.rank
        # identical column spaces: each basis column of one lies in the other
        ua, ue = auto.colspace, explicit.colspace
        for j in range(ua.cols):
            assert ag.in_range(ue, ua.col(j))[0]
        for j in range(ue.cols):
            assert ag.in_range(ua, ue.col(j))[0]


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
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 4)
        gs = rand_int_generator_set(rng, n, rng.randint(1, 3), True)
        r1 = ag.span_matrix(gs).rank
        r2 = ag.span_matrix(gs, power=n * n, scale=None).rank
        assert r1 == r2


def test_power_rank_monotone_saturating():
    rng = random.Random(37)
    gs = rand_int_generator_set(rng, 3, 2, True)
    ranks = [ag.span_matrix(gs, power=k, scale=None).rank for k in range(1, 12)]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    assert len(set(ranks[8:])) == 1  # constant at and beyond k = n^2


def test_power_capped_at_the_saturation_exponent():
    # one f64 generator whose (I + S/B)^k loses rank to the top eigenvalue
    # for k in the hundreds; every k >= default_power_exponent(3) = 9 spans
    # the same algebra, so the exponent is capped there
    x = ag.Mat.wrap(np.array([[0.5, 1.25, 0], [0, -2, 1e-3], [3, 0, 0.1]]), ag.F64)
    for k in (200, 2000):
        rep = ag.span_matrix(ag.GeneratorSet.of(x), power=k)
        assert rep.rank == 3 and rep.variant == "power:9"


def test_resolvent_matches_geometric_series_exactly():
    # with |S| <= 1/2 the tail after 50 terms is below 2^-50 in Frobenius
    # norm, hence elementwise below 2^-49
    rng = random.Random(41)
    for _ in range(5):
        gs = rand_int_generator_set(rng, 2, 2, True)
        divisor = 4 * ag.scale_bound(gs)
        s = ag.sum_kron(gs) / divisor
        assert ag.norm(s, "fro") <= Fraction(1, 4)  # squared <= 1/4 => norm <= 1/2
        inv = ag.inverse(ag.Mat.identity(4, ag.RATIONAL) - s)
        partial = ag.Mat.zeros(4, 4, ag.RATIONAL)
        term = ag.Mat.identity(4, ag.RATIONAL)
        for _k in range(51):
            partial = partial + term
            term = term @ s
        diff = inv - partial
        bound = Fraction(1, 2**49)
        assert all(abs(x) <= bound for x in diff.data.ravel())


def test_matrix_power_helper():
    m = ag.Mat.from_rows([[1, 1], [0, 1]], ag.RATIONAL)
    assert _matrix_power(m, 5).data[0, 1] == 5
    assert _matrix_power(m, 0) == ag.Mat.identity(2, ag.RATIONAL)


def test_report_fields_float_backend():
    rng = np.random.default_rng(5)
    gens = tuple(ag.Mat.wrap(rng.standard_normal((3, 3)), ag.F64) for _ in range(2))
    gs = ag.GeneratorSet(n=3, gens=gens, kind=ag.F64)
    rep = ag.span_matrix(gs)
    assert rep.tol is not None and rep.tol > 0
    assert len(rep.singular_values) == 9
    assert rep.rank <= 9
