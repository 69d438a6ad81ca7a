import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebragen as ag
from algebragen import wordspan
from algebragen.matrix import _cleared, rank

from conftest import gaussian, hidden_block_upper, rand_int_generator_set, rand_mat, random_orthogonal, word_value
from linalg_helpers import convert, generator_set


def test_golden_word_basis(tri_gens):
    wb = wordspan.word_span(tri_gens)
    assert wb.dim == 5
    assert wb.words == ((), (0,), (1,), (0, 1), (1, 1))


def test_identity_generator():
    gs = generator_set(ag.Mat.identity(3, ag.RATIONAL))
    assert wordspan.dimension(gs) == 1
    gs_nu = dataclasses.replace(gs, unital=False)
    assert wordspan.dimension(gs_nu) == 1


def test_nilpotent_powers():
    n = 4
    shift = ag.Mat.from_rows(
        [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)], ag.RATIONAL
    )
    wb = wordspan.word_span(generator_set(shift, unital=False))
    assert wb.dim == 3  # N, N^2, N^3 nonzero; N^4 = 0
    assert wb.words == ((0,), (0, 0), (0, 0, 0))


def test_empty_generator_set():
    unital = ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL)
    wb = wordspan.word_span(unital)
    assert wb.dim == 1 and wb.words == ((),)
    nonunital = ag.GeneratorSet(n=3, gens=(), kind=ag.RATIONAL, unital=False)
    wb2 = wordspan.word_span(nonunital)
    assert wb2.dim == 0


def test_determinism(tri_gens):
    a = wordspan.word_span(tri_gens)
    b = wordspan.word_span(tri_gens)
    assert a.words == b.words
    assert all(x == y for x, y in zip(a.mats, b.mats))


def test_express_golden(tri_gens, member_candidate, nonmember_candidate):
    wb = wordspan.word_span(tri_gens)
    cert = wordspan.express(wb, member_candidate)
    assert cert is not None
    combo = ag.Mat.zeros(3, 3, ag.RATIONAL).data
    for word, coeff in cert:
        combo = combo + word_value(tri_gens, word).data * coeff
    assert ag.Mat.wrap(combo, ag.RATIONAL) == member_candidate
    assert wordspan.express(wb, nonmember_candidate) is None


def test_express_single_generator(tri_gens):
    wb = wordspan.word_span(tri_gens)
    cert = wordspan.express(wb, tri_gens.gens[0])
    assert cert == [((0,), 1)]


def test_span_stability_after_saturation():
    rng = random.Random(19)
    for _ in range(10):
        gs = rand_int_generator_set(rng, rng.randint(2, 3), rng.randint(1, 3), rng.random() < 0.5)
        wb = wordspan.word_span(gs)
        for m in wb.mats:
            for g in gs.gens:
                assert wordspan.express(wb, ag.Mat.wrap(m.data @ g.data, gs.kind)) is not None
                assert wordspan.express(wb, ag.Mat.wrap(g.data @ m.data, gs.kind)) is not None


def test_float_backend(tri_gens):
    gs = convert(tri_gens, ag.F64)
    wb = wordspan.word_span(gs)
    assert wb.dim == 5
    y = convert(ag.Mat.from_rows([[1, 0, 1], [0, 1, -1], [0, 0, 1]], ag.RATIONAL), ag.F64)
    cert = wordspan.express(wb, y)
    assert cert is not None
    combo = ag.Mat.zeros(3, 3, ag.F64).data
    for word, coeff in cert:
        combo = combo + word_value(gs, word).data * coeff
    assert np.allclose(combo, y.data)


def test_express_refuses_a_candidate_past_the_norm_range():
    # |vec z| squares 1e200 to inf, and inf <= 1e-8 * inf read as a fit
    wb = wordspan.word_span(generator_set(ag.Mat.from_rows([[1, 1], [0, 1]], ag.F64)))
    assert wordspan.express(wb, ag.Mat.from_rows([[0, 0], [1e200, 0]], ag.F64)) is None


@pytest.mark.parametrize("scale", [2.0**200, 2.0**-200], ids=["huge", "tiny"])
def test_float_word_span_is_scale_free(scale):
    # words of degree 2 square entries of 2^±400, which overflow or underflow
    # a norm; a power of two scales the words without rounding
    rng = np.random.default_rng(0)
    pair = [rng.standard_normal((3, 3)) for _ in range(2)]
    want = wordspan.word_span(generator_set(*(ag.Mat.wrap(a, ag.F64) for a in pair))).words
    assert len(want) == 9
    assert wordspan.word_span(generator_set(*(ag.Mat.wrap(a * scale, ag.F64) for a in pair))).words == want


def test_gfp_backend(tri_gens):
    kind = ag.gf(101)
    cleared = tuple(ag.Mat.wrap(_cleared(g.data)[1], kind) for g in tri_gens.gens)
    gs = ag.GeneratorSet(n=3, gens=cleared, kind=kind)
    assert wordspan.dimension(gs) == 5


def test_express_validation(tri_gens):
    wb = wordspan.word_span(tri_gens)
    with pytest.raises(ValueError):
        wordspan.express(wb, ag.Mat.identity(2, ag.RATIONAL))
    with pytest.raises(ValueError):
        wordspan.express(wb, ag.Mat.identity(3, ag.F64))


@pytest.mark.parametrize("kind", [ag.RATIONAL, ag.gf(7)], ids=["rational", "gf7"])
def test_express_rejects_a_wrong_exact_solution(tri_gens, member_candidate, monkeypatch, kind):
    # the exact coefficients are multiplied out again before they are returned
    gs, z = convert(tri_gens, kind), convert(member_candidate, kind)
    wb = wordspan.word_span(gs)
    right = wordspan.express(wb, z)
    assert right
    wrong = ag.Mat.zeros(wb.dim, 1, kind).data
    wrong[0, 0] = kind.one()
    monkeypatch.setattr(wordspan, "_solve", lambda a, b, kind: wrong)
    with pytest.raises(ArithmeticError, match="re-verification"):
        wordspan.express(wb, z)


@pytest.mark.parametrize("kind", [ag.RATIONAL, ag.gf(7)], ids=["rational", "gf7"])
def test_express_refuses_dependent_words(tri_gens, member_candidate, kind):
    # word_span keeps independent words only; a repeated word leaves the
    # solve without a unique answer, and express does not pick one
    wb = wordspan.word_span(convert(tri_gens, kind))
    twice = wordspan.WordBasis(wb.n, kind, wb.unital, wb.words + wb.words[:1], wb.mats + wb.mats[:1])
    with pytest.raises(ag.SingularMatrixError):
        wordspan.express(twice, convert(member_candidate, kind))


@pytest.mark.parametrize("kind", [ag.F64, ag.RATIONAL])
@pytest.mark.parametrize("gens", [0, 1])
def test_express_on_the_zero_algebra(kind, gens):
    # a non-unital set with no generators, or only a zero one, spans {0}
    zero = ag.Mat.zeros(2, 2, kind)
    gs = ag.GeneratorSet(n=2, gens=(zero,) * gens, kind=kind, unital=False)
    wb = wordspan.word_span(gs)
    assert wb.dim == 0
    assert wordspan.express(wb, zero) == []
    assert wordspan.express(wb, ag.Mat.identity(2, kind)) is None
    result = ag.membership(gs, zero, want_certificate=True)
    assert result.member and result.certificate == []


def greedy_words(gs: ag.GeneratorSet):
    """Breadth-first words kept one at a time by a rank test, the order and
    the rule word_span must reproduce."""
    kept, words = None, []

    def keep(word, m):
        nonlocal kept
        v = ag.vec(m)
        grown = v if kept is None else ag.Mat.wrap(np.concatenate([kept.data, v.data], axis=1), gs.kind)
        if rank(grown) > len(words):
            kept = grown
            words.append((word, m))
            return True
        return False

    if gs.unital:
        keep((), ag.Mat.identity(gs.n, gs.kind))
        frontier = list(words)
    else:
        frontier = [(w, m) for w, m in (((i,), g) for i, g in enumerate(gs.gens)) if keep(w, m)]
    while frontier and len(words) < gs.n * gs.n:
        frontier = [
            (word + (i,), ag.Mat.wrap(m.data @ g.data, gs.kind))
            for word, m in frontier
            for i, g in enumerate(gs.gens)
            if keep(word + (i,), ag.Mat.wrap(m.data @ g.data, gs.kind))
        ]
    return tuple(w for w, _ in words)


@pytest.mark.parametrize("kind", [ag.RATIONAL, ag.gf(5), ag.gf(2147483647)], ids=str)
@given(st.integers(1, 3), st.integers(0, 3), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_word_span_keeps_the_greedy_words(kind, n, d, unital, seed):
    rng = random.Random(seed)
    gens = tuple(rand_mat(rng, n, kind, -2, 2, max_den=3) for _ in range(d))
    gs = ag.GeneratorSet(n=n, gens=gens, kind=kind, unital=unital)
    wb = wordspan.word_span(gs)
    assert wb.words == greedy_words(gs)


@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_rational_word_span_matches_fraction_products(n, d, unital, seed):
    # integer products of the cleared generators keep the words and the
    # Fraction matrices of products of the generators themselves
    rng = random.Random(seed)
    gens = tuple(
        ag.Mat.from_rows([[Fraction(rng.randint(-2, 2), rng.choice((1, (3, 5, 7)[i]))) for _ in range(n)]
                          for _ in range(n)], ag.RATIONAL)
        for i in range(d)
    )
    gs = ag.GeneratorSet(n=n, gens=gens, kind=ag.RATIONAL, unital=unital)
    wb = wordspan.word_span(gs)
    assert wb.words == greedy_words(gs)
    assert wb.mats == tuple(word_value(gs, w) for w in wb.words)
    assert all(type(x) is Fraction for m in wb.mats for x in m.data.ravel())


@pytest.mark.parametrize("kind", [ag.F64, ag.C64], ids=str)
@pytest.mark.parametrize("unital", [True, False], ids=["unital", "nonunital"])
@pytest.mark.parametrize("hidden", [False, True], ids=["gaussian", "hidden"])
def test_float_word_span_keeps_the_greedy_words(kind, unital, hidden):
    rng = np.random.default_rng([7, kind.tag == "c64", unital, hidden])
    for n in range(2, 9):
        q = random_orthogonal(rng, n)
        for d in (1, 2, 3):
            if hidden:
                gens = tuple(hidden_block_upper(rng, q, n // 2, kind) for _ in range(d))
            else:
                gens = tuple(gaussian(rng, n, kind) for _ in range(d))
            gs = ag.GeneratorSet(n=n, gens=gens, kind=kind, unital=unital)
            assert wordspan.word_span(gs).words == greedy_words(gs), (n, d)


def test_generic_f64_word_span_at_n32():
    rng = np.random.default_rng(32)
    gs = generator_set(gaussian(rng, 32), gaussian(rng, 32))
    assert wordspan.dimension(gs) == 1024


def test_hidden_block_upper_word_span_at_n24():
    rng = np.random.default_rng(24)
    q = random_orthogonal(rng, 24)
    gs = generator_set(*(hidden_block_upper(rng, q, 12) for _ in range(2)))
    assert wordspan.dimension(gs) == 3 * 12 * 12


def test_nonunital_c64_word_span_at_n16():
    rng = np.random.default_rng(16)
    gens = (gaussian(rng, 16, ag.C64), gaussian(rng, 16, ag.C64))
    assert wordspan.dimension(ag.GeneratorSet(n=16, gens=gens, kind=ag.C64, unital=False)) == 256
