import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebragen as ag
from algebragen.matrix import INT64_MODULUS_LIMIT, PANEL, _in_span, _mul_mod, _rref, _slack, _spectral_rank, rank
from algebragen.primes import is_prime

from conftest import rand_mat
from linalg_helpers import convert, det, frobenius_sq, is_psd, reference_rref

ALL_KINDS = (ag.RATIONAL, ag.gf(1048583), ag.F64, ag.C64)
EXACT_KINDS = ALL_KINDS[:2]


def close(a: ag.Mat, b: ag.Mat, tol=1e-12) -> bool:
    if a.kind.exact:
        return a == b
    return bool(np.max(np.abs(a.data - b.data)) <= tol) if a.data.size else True


# -- vec ------------------------------------------------------------------


def test_vec_column_stacking():
    m = ag.Mat.from_rows([[1, 3], [2, 4]], ag.RATIONAL)
    assert list(ag.vec(m).data.ravel()) == [1, 2, 3, 4]


def test_vec_1x1():
    m = ag.Mat.from_rows([[5]], ag.RATIONAL)
    assert ag.vec(m) == m


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_vec_unvec_roundtrip(rows, cols, seed):
    rng = random.Random(seed)
    m = ag.Mat.from_rows(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)],
        ag.RATIONAL,
    )
    assert ag.Mat.wrap(ag.vec(m).data.reshape(rows, cols, order="F"), ag.RATIONAL) == m


# -- realignment ----------------------------------------------------------


def test_realign_worked_4x4():
    m = ag.Mat.from_rows([[1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15], [4, 8, 12, 16]], ag.RATIONAL)
    expect = ag.Mat.from_rows([[1, 3, 9, 11], [2, 4, 10, 12], [5, 7, 13, 15], [6, 8, 14, 16]], ag.RATIONAL)
    assert ag.realign(m) == expect


def test_realign_involution_all_kinds():
    rng = random.Random(7)
    for kind in ALL_KINDS:
        for _ in range(25):
            n = rng.randint(2, 4)
            m = rand_mat(rng, n * n, kind, max_den=3)
            assert close(ag.realign(ag.realign(m)), m)


def test_realign_shape_mismatch():
    with pytest.raises(ValueError):
        ag.realign(ag.Mat.zeros(5, 5, ag.RATIONAL))
    with pytest.raises(ValueError):
        ag.realign(ag.Mat.zeros(2, 3, ag.RATIONAL))


# -- Kronecker product ----------------------------------------------------


def kron(b: ag.Mat, a: ag.Mat) -> ag.Mat:
    """np.kron on Mats: block (k, l) is b[k, l] * a."""
    return ag.Mat.wrap(np.kron(b.data, a.data), a.kind)


def test_kron_identity():
    i2 = ag.Mat.identity(2, ag.RATIONAL)
    assert kron(i2, i2) == ag.Mat.identity(4, ag.RATIONAL)
    assert ag.realign(kron(i2, i2)) == ag.Mat.wrap(ag.vec(i2).data @ ag.vec(i2).data.T, ag.RATIONAL)


def test_kron_block_layout():
    # block (k, l) of np.kron(b, a) is b[k, l] * a
    a = ag.Mat.from_rows([[1, 2], [3, 4]], ag.RATIONAL)
    b = ag.Mat.from_rows([[0, 5], [0, 0]], ag.RATIONAL)
    k = kron(b, a)
    assert k.rows == 4 and k.cols == 4
    assert [list(r) for r in k.data[0:2, 2:4]] == [[5, 10], [15, 20]]
    assert np.count_nonzero(k.data) == 4


def test_mixed_product_rule_all_kinds():
    rng = random.Random(11)
    for kind in ALL_KINDS:
        for _ in range(15):
            n = rng.randint(2, 4)
            a, b, c, d = (rand_mat(rng, n, kind, max_den=2) for _ in range(4))
            lhs = ag.Mat.wrap(kron(b, a).data @ kron(d, c).data, kind)
            rhs = kron(ag.Mat.wrap(b.data @ d.data, kind), ag.Mat.wrap(a.data @ c.data, kind))
            assert close(lhs, rhs, tol=1e-9)


def test_realigned_kron_is_outer_product_all_kinds():
    # the convention of the matrix module: realign(np.kron(B, A)) = vec(A) vec(B)^T
    rng = random.Random(13)
    for kind in ALL_KINDS:
        for _ in range(15):
            n = rng.randint(2, 5)
            a, b = rand_mat(rng, n, kind, max_den=3), rand_mat(rng, n, kind, max_den=3)
            lhs = ag.realign(kron(b, a))
            rhs = ag.Mat.wrap(ag.vec(a).data @ ag.vec(b).data.T, kind)
            assert close(lhs, rhs)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_frobenius_multiplicative_over_kron(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    a, b = rand_mat(rng, n, ag.RATIONAL, max_den=3), rand_mat(rng, n, ag.RATIONAL, max_den=3)
    assert frobenius_sq(kron(b, a)) == frobenius_sq(a) * frobenius_sq(b)


# -- inverse / det ---------------------------------------------------------


def test_inverse_identity_and_gfp():
    i3 = ag.Mat.identity(3, ag.RATIONAL)
    assert ag.inverse(i3) == i3
    two = ag.Mat.wrap(ag.Mat.identity(3, ag.gf(5)).data * 2, ag.gf(5))
    assert ag.inverse(two) == ag.Mat.wrap(ag.Mat.identity(3, ag.gf(5)).data * 3, ag.gf(5))


def test_inverse_random_exact_roundtrip():
    rng = random.Random(5)
    for kind in (ag.RATIONAL, ag.gf(101)):
        for _ in range(10):
            n = rng.randint(2, 5)
            m = rand_mat(rng, n, kind, max_den=3)
            try:
                inv = ag.inverse(m)
            except ag.SingularMatrixError:
                assert rank(m) < n
                continue
            assert ag.Mat.wrap(m.data @ inv.data, kind) == ag.Mat.identity(n, kind)


@pytest.mark.parametrize("p", (3037000493, 4294967311))
def test_inverse_gfp_across_panels(p):
    # side 72: [A | I] spans five panels, the last one without columns after it
    kind = ag.gf(p)
    rng = np.random.default_rng(72)
    a = ag.Mat.wrap(rng.integers(0, 2**62, (72, 72)).astype(object), kind)
    assert ag.Mat.wrap(a.data @ ag.inverse(a).data, kind) == ag.Mat.identity(72, kind)


def test_inverse_errors():
    # singular over Q, and mod 7 only: det 7, also on int64 residues
    for a in (ag.Mat.zeros(2, 2, ag.RATIONAL), ag.Mat.from_rows([[1, 2], [2, 4]], ag.RATIONAL),
              ag.Mat.from_rows([[1, 2], [3, 13]], ag.gf(7)),
              ag.Mat(np.array([[1, 2], [3, 13]]) % 7, ag.gf(7))):
        with pytest.raises(ag.SingularMatrixError):
            ag.inverse(a)
    with pytest.raises(ValueError):
        ag.inverse(ag.Mat.identity(2, ag.F64))
    with pytest.raises(ValueError):
        ag.inverse(ag.Mat.zeros(2, 3, ag.RATIONAL))


def test_det():
    assert det(ag.Mat.from_rows([[2, 1], [1, 1]], ag.RATIONAL)) == 1
    assert det(ag.Mat.from_rows([[0, 1], [1, 0]], ag.RATIONAL)) == -1
    assert det(ag.Mat.from_rows([[0, 1], [1, 0]], ag.gf(7))) == 6
    assert det(ag.Mat.zeros(3, 3, ag.RATIONAL)) == 0
    rng = random.Random(2)
    for _ in range(10):
        m = rand_mat(rng, 4, ag.RATIONAL, max_den=2)
        i, j = rng.sample(range(4), 2)
        swapped = ag.Mat.wrap(m.data[[j if r == i else (i if r == j else r) for r in range(4)], :], ag.RATIONAL)
        assert det(swapped) == -det(m)


# -- rank ------------------------------------------------------------------


def test_rank_basics():
    assert rank(ag.Mat.zeros(4, 4, ag.RATIONAL)) == 0
    assert rank(ag.Mat.zeros(4, 4, ag.F64)) == 0
    rng = random.Random(9)
    for kind in ALL_KINDS:
        a, b = rand_mat(rng, 3, kind, max_den=2), rand_mat(rng, 3, kind, max_den=2)
        outer = ag.Mat.wrap(ag.vec(a).data @ ag.vec(b).data.T, kind)
        assert rank(outer) == 1


def test_rank_rational_vs_gfp_agreement():
    # same integer matrix over the rationals and over a random large prime
    rng = random.Random(42)
    agree = 0
    total = 200
    for _ in range(total):
        n = rng.randint(2, 5)
        cols = n + rng.randint(0, 2)
        rows = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(n)]
        q = ag.Mat.from_rows(rows, ag.RATIONAL)
        while True:
            p = rng.randrange(1 << 16, 1 << 20) | 1
            if is_prime(p):
                break
        f = ag.Mat.from_rows(rows, ag.gf(p))
        agree += rank(q) == rank(f)
    assert agree >= 190


def test_spectral_rank_ill_conditioned_flag():
    eps = np.finfo(np.float64).eps
    # clean cut: retained 1e-2 vs discarded 1e-16 is a huge gap
    assert _spectral_rank(np.array([1.0, 1e-2, 1e-16]), 3) == (2, 3 * eps, False)
    # murky cut: 1e-15 kept, 1e-16 dropped at the cut 3 * eps, ratio 10
    assert _spectral_rank(np.array([1.0, 1e-15, 1e-16]), 3) == (2, 3 * eps, True)
    # full rank leaves nothing discarded, so no flag
    assert _spectral_rank(np.array([1.0, 0.5]), 2) == (2, 2 * eps, False)
    # rank feeds the cut the singular values of its matrix
    assert rank(ag.Mat.wrap(np.diag([1.0, 1e-15, 1e-16]), ag.F64)) == 2
    assert _spectral_rank(np.array([]), 5) == (0, 0.0, False)
    assert rank(ag.Mat.zeros(5, 0, ag.F64)) == 0 and rank(ag.Mat.zeros(0, 5, ag.F64)) == 0


# -- range / membership ----------------------------------------------------


def test_in_range_consistent_systems():
    rng = random.Random(8)
    for kind in ALL_KINDS:
        for _ in range(10):
            n = rng.randint(2, 4)
            a = rand_mat(rng, n, kind, max_den=2)
            x = ag.Mat.wrap(rand_mat(rng, n, kind, max_den=2).data[:, :1], kind)
            # float in_range reads orthonormal columns spanning col(a), exact
            # kinds any columns or the exact form, as an intersection has it
            if kind.exact:
                spans = (a, ag.subspace_intersect(a, a))
            else:
                spans = (ag.Mat(np.linalg.svd(a.data)[0][:, : rank(a)], kind),)
            for q in spans:
                ok, residual = ag.in_range(q, ag.Mat.wrap(a.data @ x.data, kind))
                assert ok
                if kind.exact:
                    assert residual == 0


def test_in_range_zero_vector():
    a = ag.Mat.from_rows([[1, 2], [2, 4]], ag.RATIONAL)
    ok, residual = ag.in_range(a, ag.Mat.zeros(2, 1, ag.RATIONAL))
    assert ok and residual == 0


def test_in_range_exact_defect():
    # col space of [[1],[0]] misses e2; defect of (1,1) is 1
    a = ag.Mat.from_rows([[1], [0]], ag.RATIONAL)
    v = ag.Mat.from_rows([[1], [1]], ag.RATIONAL)
    ok, residual = ag.in_range(a, v)
    assert not ok and residual == 1


def test_in_range_float_tolerance():
    a = ag.Mat.wrap(np.array([[1.0], [0.0]]), ag.F64)
    v = ag.Mat.wrap(np.array([[1.0], [1e-12]]), ag.F64)
    ok, residual = ag.in_range(a, v)
    assert ok and residual <= 1e-8
    ok2, _ = ag.in_range(a, ag.Mat.wrap(np.array([[0.0], [1.0]]), ag.F64))
    assert not ok2


# -- intersection -------------------------------------------------------------


def assert_exact_form(q: ag.Mat):
    """q is the transpose of a reduced row echelon matrix: its leading
    nonzero rows P hold the identity, and they increase."""
    pivots = [int(np.flatnonzero(q.data[:, j] != 0)[0]) for j in range(q.cols)]
    assert pivots == sorted(set(pivots))
    assert np.array_equal(q.data[pivots], np.identity(q.cols, dtype=int))


def test_subspace_intersect_same_space():
    for kind in EXACT_KINDS:
        u = ag.Mat.from_rows([[2, 0], [1, 3], [0, 0]], kind)
        w = ag.subspace_intersect(u, u)
        assert w.cols == 2
        assert_exact_form(w)
        assert w == ag.Mat.from_rows([[1, 0], [0, 1], [0, 0]], kind)


def test_subspace_intersect_partial_overlap():
    for kind in EXACT_KINDS:
        u = ag.Mat.from_rows([[1, 0], [0, 1], [0, 0]], kind)  # span{e1, e2}
        v = ag.Mat.from_rows([[0, 0], [5, 0], [0, 1]], kind)  # span{e2, e3}
        w = ag.subspace_intersect(u, v)
        assert w.cols == 1
        assert_exact_form(w)
        assert w == ag.Mat.from_rows([[0], [1], [0]], kind)


@pytest.mark.parametrize("kind", EXACT_KINDS, ids=str)
def test_subspace_intersect_random_spanning_columns(kind):
    # dependent spanning columns on both sides: the result is the exact
    # form of the intersection, dim U + dim V - dim(U + V)
    rng = random.Random(6)
    for _ in range(10):
        u = ag.Mat.from_rows(low_rank_rows(rng, kind, 5, 4, rng.randint(1, 4), 0), kind)
        x = ag.Mat.from_rows(low_rank_rows(rng, kind, 4, 2, 2, 0), kind)
        extra = ag.Mat.from_rows(low_rank_rows(rng, kind, 5, 2, 1, 0), kind)
        v = ag.Mat.wrap(np.concatenate([u.data @ x.data, extra.data], axis=1), kind)
        w = ag.subspace_intersect(u, v)
        assert_exact_form(w)
        both = ag.Mat.wrap(np.concatenate([u.data, v.data], axis=1), kind)
        assert w.cols == rank(u) + rank(v) - rank(both)
        for j in range(w.cols):
            col = ag.Mat.wrap(w.data[:, j : j + 1], kind)
            assert ag.in_range(u, col)[0] and ag.in_range(v, col)[0]


def test_subspace_intersect_float():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    u = ag.Mat.wrap(q[:, :2], ag.F64)
    v = ag.Mat.wrap(q[:, 1:3], ag.F64)
    w = ag.subspace_intersect(u, v)
    assert w.cols == 1
    # the intersection is spanned by q[:,1]
    overlap = abs(np.vdot(w.data[:, 0], q[:, 1]))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_subspace_intersect_disjoint():
    for kind in EXACT_KINDS:
        u = ag.Mat.from_rows([[1], [0], [0]], kind)
        v = ag.Mat.from_rows([[0], [1], [0]], kind)
        w = ag.subspace_intersect(u, v)
        assert w.cols == 0 and w.rows == 3
        assert_exact_form(w)


# -- PSD ---------------------------------------------------------------------


def test_is_psd_exact_cases():
    assert is_psd(ag.Mat.from_rows([[2, 1], [1, 1]], ag.RATIONAL))
    assert is_psd(ag.Mat.zeros(3, 3, ag.RATIONAL))
    assert not is_psd(ag.Mat.from_rows([[1, 2], [2, 1]], ag.RATIONAL))
    assert not is_psd(ag.Mat.from_rows([[0, 1], [1, 0]], ag.RATIONAL))
    assert not is_psd(ag.Mat.from_rows([[-1]], ag.RATIONAL))
    assert not is_psd(ag.Mat.from_rows([[1, 2], [0, 1]], ag.RATIONAL))  # not symmetric


def test_is_psd_gram_matrices():
    rng = random.Random(6)
    for _ in range(10):
        m = rand_mat(rng, 3, ag.RATIONAL, max_den=3)
        assert is_psd(ag.Mat.wrap(m.data.T @ m.data, ag.RATIONAL))
        f = convert(m, ag.F64)
        assert is_psd(ag.Mat.wrap(f.data.T @ f.data, ag.F64))


def test_is_psd_gfp_rejected():
    with pytest.raises(ValueError):
        is_psd(ag.Mat.identity(2, ag.gf(5)))


# -- rref internals -----------------------------------------------------------


def test_rref_pivots_gfp_and_rational():
    m = [[2, 4, 1], [1, 2, 0], [0, 0, 1]]
    r_q, piv_q = _rref(np.array(m, dtype=object), ag.RATIONAL)
    r_p, piv_p = _rref(np.array(m, dtype=object), ag.gf(7))
    assert piv_q == piv_p == [0, 2]


# -- vectorized elimination against a textbook Gauss-Jordan ------------------

# GF(p) moduli on both sides of the int64 limit: 3037000493 is the largest
# prime with (p - 1)^2 + p < 2^63, 4294967311 runs on Python-int rows.  The
# int64 rows of a panel are reduced after _slack(p) steps: 1073741789 (8)
# and 2^31 - 1 (2) reduce within a panel, 134217689 (512) and the small
# primes only at its end, 3037000493 (1) at every step.
GF_PRIMES = (2, 7, 134217689, 1073741789, 2**31 - 1, 3037000493, 4294967311)


def low_rank_rows(rng, kind, rows, cols, rank, zero_rows, zero_cols=()):
    """rows x cols entries of rank at most ``rank``, with some rows and the
    columns ``zero_cols`` zeroed."""
    if kind.tag == "rational":
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    else:
        draw = lambda: rng.randrange(kind.modulus)
    left = [[draw() for _ in range(rank)] for _ in range(rows)]
    right = [[draw() for _ in range(cols)] for _ in range(rank)]
    out = [[sum((l[k] * right[k][j] for k in range(rank)), kind.zero()) for j in range(cols)] for l in left]
    for i in rng.sample(range(rows), min(zero_rows, rows)):
        out[i] = [kind.zero()] * cols
    for row in out:
        for j in zero_cols:
            if j < cols:
                row[j] = kind.zero()
    return [[kind.coerce(x) for x in row] for row in out]


def check_rref(rows, kind, ncols):
    data = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        data[i, :] = row
    ref, ref_pivots = reference_rref(rows, kind)
    r, pivots = _rref(data, kind)
    assert pivots == ref_pivots
    assert [list(row) for row in r] == ref
    assert _rref(data, kind, reduced=False)[1] == ref_pivots
    scalar = Fraction if kind.tag == "rational" else int
    assert all(type(x) is scalar for x in r.ravel())  # never np.int64


elimination_shapes = dict(
    rows=st.integers(0, 7), cols=st.integers(1, 7), rank=st.integers(0, 7),
    zero_rows=st.integers(0, 2), seed=st.integers(0, 10**6),
)


@pytest.mark.parametrize("p", GF_PRIMES)
@given(
    rows=st.integers(0, 40), cols=st.integers(1, 3 * PANEL), rank=st.integers(0, 40),
    zero_rows=st.integers(0, 2), lead=st.integers(0, 2 * PANEL), zero_cols=st.lists(st.integers(0, 3 * PANEL - 1), max_size=8),
    panel_edges=st.booleans(), seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_rref_gfp_matches_reference(p, rows, cols, rank, zero_rows, lead, zero_cols, panel_edges, seed):
    # up to three panels: ``lead`` zero columns move the pivots into the
    # later ones, and ``panel_edges`` puts zero columns on both sides of
    # each panel edge
    kind = ag.gf(p)
    rng = random.Random(seed)
    zero_cols = list(range(lead)) + zero_cols
    if panel_edges:
        zero_cols += [PANEL - 1, PANEL, 2 * PANEL - 1, 2 * PANEL]
    check_rref(low_rank_rows(rng, kind, rows, cols, min(rank, rows, cols), zero_rows, zero_cols), kind, cols)


@given(**elimination_shapes)
@settings(max_examples=80, deadline=None)
def test_rref_rational_matches_reference(rows, cols, rank, zero_rows, seed):
    rng = random.Random(seed)
    check_rref(low_rank_rows(rng, ag.RATIONAL, rows, cols, min(rank, rows, cols), zero_rows), ag.RATIONAL, cols)


def test_rref_rational_far_apart_denominators():
    # one lcm clears the whole array, so a row of 2^70-sized integers is
    # scaled by the 10^40 of another row's denominators; the first row
    # needs a swap and the last is dependent
    tiny = Fraction(1, 10**40)
    rows = [
        [0, Fraction(3, 7), 2**70, -1],
        [tiny, Fraction(-5, 3), 1, Fraction(1, 10**40 + 1)],
        [2**70, 0, Fraction(1, 3), -(2**65)],
    ]
    rows.append([10**40 * x - 3 * y + Fraction(2, 11) * z for x, y, z in zip(*rows[::-1])])
    check_rref(rows, ag.RATIONAL, 4)
    check_rref(rows[::-1], ag.RATIONAL, 4)
    check_rref([[x * tiny for x in rows[2]], rows[0], [Fraction(0)] * 4, rows[1]], ag.RATIONAL, 4)
    # the rows as columns: rank 3 of 4 columns
    check_rref([list(col) for col in zip(*rows)], ag.RATIONAL, 4)


def test_rref_gfp_int64_edge_entries():
    # every entry p - 1: each product in the update is the largest int64
    # sees, 8 of them unreduced at 1073741789; 3037000493 is also the worst
    # case of the split float64 products
    rng = np.random.default_rng(17)
    for p in (1073741789, 3037000493, 4294967311):
        kind = ag.gf(p)
        rows = [[p - 1, p - 1, 1], [p - 1, 1, p - 1], [1, p - 1, p - 1]]
        check_rref(rows, kind, 3)
        # two and a half panels, all p - 1 (rank 1), and p - 1 or 0 (rank 40)
        check_rref([[p - 1] * (2 * PANEL + 8)] * 40, kind, 2 * PANEL + 8)
        check_rref((rng.integers(0, 2, (40, 2 * PANEL + 8)) * (p - 1)).tolist(), kind, 2 * PANEL + 8)
        # entries beyond int64 are reduced through Python ints
        check_rref([[2**64 + 3, -(2**70), 1], [5, 2**63, -4], [-1, 0, 2**62]], kind, 3)


def test_slack_keeps_unreduced_updates_in_int64():
    # _slack(p) updates of at most (p - 1)^2 each, from a residue, stay in
    # int64 and one more could leave it, for p spread over every bit length
    # below INT64_MODULUS_LIMIT and at both of its ends
    rng = random.Random(23)
    sampled = [min(int(2 ** rng.uniform(1, 31.5)), INT64_MODULUS_LIMIT - 1) for _ in range(2000)]
    for p in [2, 3, INT64_MODULUS_LIMIT - 1] + sampled:
        t = _slack(p)
        assert t >= 1
        assert t * (p - 1) ** 2 + (p - 1) < 2**63 <= (t + 1) * (p - 1) ** 2 + p
    assert _slack(3037000493) == 1 and _slack(4294967311) == 1
    assert _slack(1073741789) == 8 and _slack(134217689) == 512
    # up to 2^29 a panel's PANEL steps fit, and it is reduced at its end only
    assert _slack(2**29) >= PANEL > _slack(2**29 + 1)


def test_panel_products_are_exact_in_float64():
    # K (p - 1) 2^16 < 2^53 for the largest int64 modulus, for the low
    # halves (< 2^16) and for the high ones (<= (p - 1) >> 16)
    p = INT64_MODULUS_LIMIT - 1
    assert PANEL * (p - 1) * 2**16 < 2**53
    assert PANEL * (p - 1) * ((p - 1) >> 16) < 2**53
    p = 3037000493
    f = np.full((5, PANEL), p - 1, dtype=np.int64)
    t = np.full((PANEL, 7), p - 1, dtype=np.int64)
    assert _mul_mod(f, t, p).tolist() == (f.astype(object).dot(t.astype(object)) % p).tolist()


def test_exact_outputs_are_python_scalars():
    rng = random.Random(21)
    for kind in (ag.gf(1048583), ag.gf(4294967311), ag.RATIONAL):
        m = rand_mat(rng, 4, kind, max_den=3)
        for out in (ag.inverse(m) if rank(m) == 4 else m, ag.subspace_intersect(m, m)):
            scalar = Fraction if kind.tag == "rational" else int
            assert all(type(x) is scalar for x in out.data.ravel())


def test_rank_agrees_on_q_gf5_and_f64():
    m = ag.Mat.from_rows([[0, 1, 2], [0, 2, 4], [1, 0, 0]], ag.RATIONAL)
    assert [rank(convert(m, kind)) for kind in (ag.RATIONAL, ag.gf(5), ag.F64)] == [2, 2, 2]


@pytest.mark.parametrize("kind", [ag.RATIONAL, ag.gf(1048583), ag.gf(4294967311)], ids=str)
def test_in_range_nonmember_residual_is_a_functional_vanishing_on_the_span(kind):
    # q from _rref of a^T, P its pivots: a non-member's residual is the
    # first nonzero entry c of v - q v[P], the value at v of
    # f(x) = x_c - q[c, :] x[P], and f vanishes on every column of a
    rng = random.Random(23)
    checked = 0
    while checked < 6:
        n = rng.randint(3, 5)
        a = ag.Mat.from_rows(low_rank_rows(rng, kind, n, n, rng.randint(1, n - 1), 0), kind)
        v = ag.Mat.wrap(rand_mat(rng, n, kind, max_den=4).data[:, :1], kind)
        ok, residual = ag.in_range(a, v)
        if ok:
            continue
        r, pivots = _rref(a.data.T, kind)
        q = ag.Mat(r[: len(pivots)].T.copy(), kind)
        diff = ag.Mat.wrap(v.data - q.data @ v.data[pivots], kind).data[:, 0].tolist()
        c = next(i for i, x in enumerate(diff) if x != 0)
        assert residual == diff[c] != 0
        f = ag.Mat.zeros(1, n, kind).data
        f[0, pivots] = [-x for x in q.data[c]]
        f[0, c] = kind.one()
        f = ag.Mat.wrap(f, kind)
        assert ag.Mat.wrap(f.data @ a.data, kind) == ag.Mat.zeros(1, n, kind)
        assert ag.Mat.wrap(f.data @ v.data, kind).data[0, 0] == residual
        # a in the exact form q gives the same witness with no elimination
        assert ag.in_range(q, v) == (False, residual)
        checked += 1


# -- the membership rule on float64 under its bound -----------------------------


def _rule_on_ints(v, rows, d, pivots, p=None):
    """d w - w[P] rows on Python ints, the reference of ``_in_span``."""
    v, rows = v.astype(object), rows.astype(object)
    diff = d * v - v[:, pivots].dot(rows)
    return (diff if p is None else diff % p).tolist()


@pytest.mark.parametrize("p", [None, 1048583], ids=["Q", "gf"])
def test_in_span_on_either_side_of_the_float64_bound(p):
    # max|w| (|d| + r max|rows|) on both sides of 2^53, for rows in the
    # exact form (d I on the pivots, as every lift has) and for arbitrary
    # integer rows; tests/test_lift.py runs the rule on unital and
    # non-unital lifts across the bound of their products
    rng = np.random.default_rng(5)
    for trial in range(40):
        r, nn, k = rng.integers(1, 6), 9, rng.integers(1, 4)
        pivots = sorted(rng.choice(nn, r, replace=False).tolist())
        bits = int(rng.integers(20, 34))
        rows = rng.integers(-(2**bits), 2**bits, (r, nn), dtype=np.int64)
        d = int(rng.integers(1, 2**12))
        if trial % 2:
            rows[:, pivots] = d * np.identity(r, dtype=np.int64)
        top = 2**53 // (d + r * int(np.abs(rows).max()))
        for bound in (top, 4 * top):
            v = rng.integers(-bound, bound + 1, (k, nn), dtype=np.int64)
            got = _in_span(v, rows, d, pivots, p)
            assert got.tolist() == _rule_on_ints(v, rows, d, pivots, p)
            # Python-int input takes the same path by its bound
            assert _in_span(v.astype(object), rows.astype(object), d, pivots, p).tolist() == got.tolist()


def test_in_span_keeps_python_ints_just_past_the_bound():
    # max|w| (|d| + r max|rows|) = (2^26 + 1) 2^27 = 2^53 + 2^27 is past the
    # bound, and float64 would round w[0] rows[0, 1] = 2^53 + 2^26 - 1 to
    # an even number; just below it the product is exact
    rows = np.array([[1, 2**27 - 1]], dtype=object)
    for w0 in (2**26 + 1, 2**26 - 1):
        v = np.array([[w0, 0]], dtype=object)
        assert _in_span(v, rows, 1, [0]).tolist() == [[0, -w0 * (2**27 - 1)]]
