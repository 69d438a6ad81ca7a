import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebragen as ag
from algebragen.matrix import _rref, _solve_exact
from algebragen.primes import is_prime

from conftest import rand_mat
from linalg_helpers import det, is_psd

ALL_KINDS = (ag.RATIONAL, ag.gf(1048583), ag.F64, ag.C64)


def close(a: ag.Mat, b: ag.Mat, tol=1e-12) -> bool:
    if a.kind.exact:
        return a == b
    return bool(np.max(np.abs(a.data - b.data)) <= tol) if a.data.size else True


# -- vec / unvec ----------------------------------------------------------


def test_vec_column_stacking():
    m = ag.Mat.from_rows([[1, 3], [2, 4]], ag.RATIONAL)
    assert list(ag.vec(m).data.ravel()) == [1, 2, 3, 4]


def test_vec_1x1():
    m = ag.Mat.from_rows([[5]], ag.RATIONAL)
    assert ag.vec(m) == m


def test_unvec_examples():
    v = ag.Mat.from_rows([[1], [2], [3], [4]], ag.RATIONAL)
    assert ag.unvec(v, 2, 2) == ag.Mat.from_rows([[1, 3], [2, 4]], ag.RATIONAL)
    z = ag.Mat.zeros(6, 1, ag.RATIONAL)
    assert ag.unvec(z, 2, 3) == ag.Mat.zeros(2, 3, ag.RATIONAL)
    with pytest.raises(ValueError):
        ag.unvec(v, 3, 3)


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_vec_unvec_roundtrip(rows, cols, seed):
    rng = random.Random(seed)
    m = ag.Mat.from_rows(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)],
        ag.RATIONAL,
    )
    assert ag.unvec(ag.vec(m), rows, cols) == m


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


def test_kron_identity():
    i2 = ag.Mat.identity(2, ag.RATIONAL)
    assert ag.kron(i2, i2) == ag.Mat.identity(4, ag.RATIONAL)


def test_kron_block_layout():
    # block (k, l) of kron(a, b) is b[k, l] * a
    a = ag.Mat.from_rows([[1, 2], [3, 4]], ag.RATIONAL)
    b = ag.Mat.from_rows([[0, 5], [0, 0]], ag.RATIONAL)
    k = ag.kron(a, b)
    assert k.rows == 4 and k.cols == 4
    assert [list(r) for r in k.data[0:2, 2:4]] == [[5, 10], [15, 20]]
    assert np.count_nonzero(k.data) == 4


def test_kron_kind_mismatch():
    with pytest.raises(ValueError):
        ag.kron(ag.Mat.identity(2, ag.RATIONAL), ag.Mat.identity(2, ag.F64))


def test_mixed_product_rule_all_kinds():
    rng = random.Random(11)
    for kind in ALL_KINDS:
        for _ in range(15):
            n = rng.randint(2, 4)
            a, b, c, d = (rand_mat(rng, n, kind, max_den=2) for _ in range(4))
            lhs = ag.kron(a, b) @ ag.kron(c, d)
            rhs = ag.kron(a @ c, b @ d)
            assert close(lhs, rhs, tol=1e-9)


def test_realigned_kron_is_outer_product_all_kinds():
    rng = random.Random(13)
    for kind in ALL_KINDS:
        for _ in range(15):
            n = rng.randint(2, 5)
            a, b = rand_mat(rng, n, kind, max_den=3), rand_mat(rng, n, kind, max_den=3)
            lhs = ag.realign(ag.kron(a, b))
            rhs = ag.vec(a) @ ag.vec(b).T
            assert close(lhs, rhs)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_frobenius_multiplicative_over_kron(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    a, b = rand_mat(rng, n, ag.RATIONAL, max_den=3), rand_mat(rng, n, ag.RATIONAL, max_den=3)
    assert ag.norm(ag.kron(a, b), "fro") == ag.norm(a, "fro") * ag.norm(b, "fro")


# -- norms -----------------------------------------------------------------


def test_norms_basics():
    i3 = ag.Mat.identity(3, ag.RATIONAL)
    assert ag.norm(i3, "l1") == 1
    assert ag.norm(i3, "linf") == 1
    assert ag.norm(ag.Mat.zeros(3, 3, ag.RATIONAL), "fro") == 0
    assert ag.norm(ag.Mat.zeros(2, 2, ag.F64), "fro") == 0.0
    with pytest.raises(ValueError):
        ag.norm(ag.Mat.identity(2, ag.gf(5)), "fro")
    with pytest.raises(ValueError):
        ag.norm(i3, "l2")


def test_norm_l1_linf_are_column_row_sums():
    m = ag.Mat.from_rows([[1, -2], [3, 4]], ag.RATIONAL)
    assert ag.norm(m, "l1") == 6   # max column |1|+|3| vs |2|+|4|
    assert ag.norm(m, "linf") == 7  # max row |3|+|4|


# -- inverse / det ---------------------------------------------------------


def test_inverse_identity_and_gfp():
    i3 = ag.Mat.identity(3, ag.RATIONAL)
    assert ag.inverse(i3) == i3
    two = ag.Mat.identity(3, ag.gf(5)) * 2
    assert ag.inverse(two) == ag.Mat.identity(3, ag.gf(5)) * 3


def test_inverse_random_exact_roundtrip():
    rng = random.Random(5)
    for kind in (ag.RATIONAL, ag.gf(101)):
        for _ in range(10):
            n = rng.randint(2, 5)
            m = rand_mat(rng, n, kind, max_den=3)
            try:
                inv = ag.inverse(m)
            except ag.SingularMatrixError:
                assert ag.rank(m) < n
                continue
            assert m @ inv == ag.Mat.identity(n, kind)


def test_inverse_errors():
    with pytest.raises(ag.SingularMatrixError):
        ag.inverse(ag.Mat.zeros(2, 2, ag.RATIONAL))
    with pytest.raises(ag.SingularMatrixError):
        ag.inverse(ag.Mat.zeros(2, 2, ag.F64))
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
    assert ag.rank(ag.Mat.zeros(4, 4, ag.RATIONAL)) == 0
    assert ag.rank(ag.Mat.zeros(4, 4, ag.F64)) == 0
    rng = random.Random(9)
    for kind in ALL_KINDS:
        a, b = rand_mat(rng, 3, kind, max_den=2), rand_mat(rng, 3, kind, max_den=2)
        outer = ag.vec(a) @ ag.vec(b).T
        assert ag.rank(outer) == 1


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
        agree += ag.rank(q) == ag.rank(f)
    assert agree >= 190


def test_rank_info_ill_conditioned_flag():
    # clean cut: retained 1e-2 vs discarded 1e-16 is a huge gap
    clean = ag.rank_info(ag.Mat.wrap(np.diag([1.0, 1e-2, 1e-16]), ag.F64))
    assert clean.rank == 2 and not clean.ill_conditioned
    # murky cut: 2e-4 kept, 9e-5 dropped, ratio ~2
    murky = ag.rank_info(ag.Mat.wrap(np.diag([1.0, 2e-4, 9e-5]), ag.F64), tol=1e-4)
    assert murky.rank == 2 and murky.ill_conditioned
    # full rank leaves nothing discarded, so no flag
    full = ag.rank_info(ag.Mat.wrap(np.diag([1.0, 0.5]), ag.F64))
    assert full.rank == 2 and not full.ill_conditioned


# -- range / membership ----------------------------------------------------


def test_range_basis_identity():
    rb = ag.rank_info(ag.Mat.identity(3, ag.RATIONAL)).colspace
    assert rb.cols == 3 and ag.rank(rb) == 3


def test_range_basis_outer_product():
    rng = random.Random(1)
    a = rand_mat(rng, 3, ag.RATIONAL, max_den=2)
    outer = ag.vec(a) @ ag.vec(a).T
    rb = ag.rank_info(outer).colspace
    assert rb.cols == 1
    # single column parallel to vec(a)
    stacked = ag.Mat.wrap(np.concatenate([rb.data, ag.vec(a).data], axis=1), ag.RATIONAL)
    assert ag.rank(stacked) == 1


def test_in_range_consistent_systems():
    rng = random.Random(8)
    for kind in ALL_KINDS:
        for _ in range(10):
            n = rng.randint(2, 4)
            a = rand_mat(rng, n, kind, max_den=2)
            x = rand_mat(rng, n, kind, max_den=2).col(0)
            ok, residual = ag.in_range(a, a @ x)
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
    ok, residual = ag.in_range(a, v, tol=1e-8)
    assert ok and residual <= 1e-8
    ok2, _ = ag.in_range(a, ag.Mat.wrap(np.array([[0.0], [1.0]]), ag.F64))
    assert not ok2


# -- null space / intersection ----------------------------------------------


def test_null_space_annihilates():
    rng = random.Random(4)
    for kind in ALL_KINDS:
        for _ in range(8):
            m = rand_mat(rng, 3, kind, max_den=2)
            wide = ag.Mat.wrap(np.concatenate([m.data, m.data], axis=1), kind)
            ns = ag.null_space(wide)
            assert ns.cols >= 3
            prod = wide @ ns
            assert close(prod, ag.Mat.zeros(3, ns.cols, kind), tol=1e-9)


def test_subspace_intersect_same_space():
    u = ag.Mat.from_rows([[1, 0], [0, 1], [0, 0]], ag.RATIONAL)
    w = ag.subspace_intersect(u, u)
    assert w.cols == 2


def test_subspace_intersect_partial_overlap():
    u = ag.Mat.from_rows([[1, 0], [0, 1], [0, 0]], ag.RATIONAL)  # span{e1, e2}
    v = ag.Mat.from_rows([[0, 0], [1, 0], [0, 1]], ag.RATIONAL)  # span{e2, e3}
    w = ag.subspace_intersect(u, v)
    assert w.cols == 1
    assert w.data[0, 0] == 0 and w.data[2, 0] == 0 and w.data[1, 0] != 0


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
    u = ag.Mat.from_rows([[1], [0], [0]], ag.RATIONAL)
    v = ag.Mat.from_rows([[0], [1], [0]], ag.RATIONAL)
    assert ag.subspace_intersect(u, v).cols == 0


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
        assert is_psd(m.T @ m)
        f = m.convert(ag.F64)
        assert is_psd(f.T @ f)


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
# prime with (p - 1)^2 + p < 2^63, 4294967311 runs on Python-int rows.
GF_PRIMES = (2, 7, 2**31 - 1, 3037000493, 4294967311)


def reference_rref(rows, kind):
    """Gauss-Jordan on lists of Python scalars, one row at a time."""
    p = kind.modulus
    a = [[kind.coerce(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p) if p else 1 / a[r][c]
        a[r] = [x * inv % p if p else x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def low_rank_rows(rng, kind, rows, cols, rank, zero_rows):
    """rows x cols entries of rank at most ``rank``, with some rows zeroed."""
    if kind.tag == "rational":
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    else:
        draw = lambda: rng.randrange(kind.modulus)
    left = [[draw() for _ in range(rank)] for _ in range(rows)]
    right = [[draw() for _ in range(cols)] for _ in range(rank)]
    out = [[sum((l[k] * right[k][j] for k in range(rank)), kind.zero()) for j in range(cols)] for l in left]
    for i in rng.sample(range(rows), min(zero_rows, rows)):
        out[i] = [kind.zero()] * cols
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
@given(**elimination_shapes)
@settings(max_examples=40, deadline=None)
def test_rref_gfp_matches_reference(p, rows, cols, rank, zero_rows, seed):
    kind = ag.gf(p)
    rng = random.Random(seed)
    check_rref(low_rank_rows(rng, kind, rows, cols, min(rank, rows, cols), zero_rows), kind, cols)


@given(**elimination_shapes)
@settings(max_examples=80, deadline=None)
def test_rref_rational_matches_reference(rows, cols, rank, zero_rows, seed):
    rng = random.Random(seed)
    check_rref(low_rank_rows(rng, ag.RATIONAL, rows, cols, min(rank, rows, cols), zero_rows), ag.RATIONAL, cols)


def test_rref_gfp_int64_edge_entries():
    # every entry p - 1: each product in the update is the largest int64 sees
    for p in (3037000493, 4294967311):
        kind = ag.gf(p)
        rows = [[p - 1, p - 1, 1], [p - 1, 1, p - 1], [1, p - 1, p - 1]]
        check_rref(rows, kind, 3)


def test_exact_outputs_are_python_scalars():
    rng = random.Random(21)
    for kind in (ag.gf(1048583), ag.gf(4294967311), ag.RATIONAL):
        m = rand_mat(rng, 4, kind, max_den=3)
        for out in (ag.inverse(m) if ag.rank(m) == 4 else m, ag.null_space(m), ag.rank_info(m).colspace):
            scalar = Fraction if kind.tag == "rational" else int
            assert all(type(x) is scalar for x in out.data.ravel())


def test_rank_info_pivots_exact_only():
    m = ag.Mat.from_rows([[0, 1, 2], [0, 2, 4], [1, 0, 0]], ag.RATIONAL)
    assert ag.rank_info(m).pivots == (0, 1)
    assert ag.rank_info(m.convert(ag.gf(5))).pivots == (0, 1)
    assert ag.rank_info(m.convert(ag.F64)).pivots is None


def test_in_range_defect_matches_all_column_normal_equations():
    # the pivot-column projection gives the same defect as the normal
    # equations on every column of a
    rng = random.Random(23)
    checked = 0
    while checked < 6:
        n = rng.randint(3, 5)
        rank = rng.randint(1, n - 1)
        a = ag.Mat.from_rows(low_rank_rows(rng, ag.RATIONAL, n, n, rank, 0), ag.RATIONAL)
        v = rand_mat(rng, n, ag.RATIONAL, max_den=4).col(0)
        ok, residual = ag.in_range(a, v)
        if ok:
            continue
        xo = _solve_exact(a.T @ a, a.T @ v)
        resid = a @ xo - v
        assert residual == sum((e * e for e in resid.data.ravel()), Fraction(0))
        assert residual > 0
        checked += 1
