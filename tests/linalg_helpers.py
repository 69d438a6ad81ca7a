"""Reference linear algebra used by the tests.

The library itself never needs these: it decides rank, range and
invertibility through ``matrix._rref``, forms S and B once, in
``resolvent.kron_square``, and lifts the exact column space of a span
matrix from GF(p).  They stay here as independent checks on the span
matrix (it is PSD, and over Q it is the Fraction resolvent of the
generators as given, with the exact form that ``echelon_reference`` reads
off it by elimination), on the mod-p certificate (a singular skip means p
divides det(B*I - S)) and on the builder (entry by entry, on the Fraction
or complex entries of the generators as given), and on the float power,
which the span matrix takes on S folded by the swap symmetry
(``plain_power`` takes it at side n^2).
"""

import math
from fractions import Fraction

import numpy as np

from algebragen.generators import GeneratorSet
from algebragen.matrix import Mat, _rref, inverse, realign
from algebragen.resolvent import default_power_exponent, kron_square

_EPS = float(np.finfo(np.float64).eps)


def frobenius_sq(a: Mat):
    """Squared Frobenius norm: exact on Q, a float on float kinds."""
    return sum((x * x.conjugate()).real for x in a.data.ravel())


def summed_kron_square(gs: GeneratorSet) -> Mat:
    """S = sum of kron(conj g, g) over the generators as given, block by
    block in their own kind: block (k, l) of kron(conj g, g) is
    conj g[k, l] * g."""
    n = gs.n
    s = np.zeros((n * n, n * n), dtype=object)
    for g in gs.gens:
        for k in range(n):
            for l in range(n):
                s[k * n : (k + 1) * n, l * n : (l + 1) * n] += g.data[k, l].conjugate() * g.data
    return Mat.wrap(s, gs.kind)


def square_bound(gens) -> int:
    """B = ceil(sum of the squared Frobenius norms of ``gens``) + 1."""
    return math.ceil(sum(frobenius_sq(g) for g in gens)) + 1


def realigned_resolvent(gs: GeneratorSet, b) -> Mat:
    """Realigned Fraction resolvent (I - S/B)^-1 of ``gs`` as given, or
    S/B (I - S/B)^-1 for a non-unital set."""
    s = summed_kron_square(gs) * Fraction(1, b)
    core = inverse(Mat.identity(gs.n * gs.n, gs.kind) - s)
    return realign(core if gs.unital else s @ core)


def plain_power(gs: GeneratorSet) -> np.ndarray:
    """The float power before realignment, taken at side n^2: (I + S/B)^k,
    or S/B (I + S/B)^(k-1) for a non-unital set, with S and B from the
    builder and k = default_power_exponent(n)."""
    s, b = kron_square(gs)
    s = s / b
    k = default_power_exponent(gs.n)
    step = np.identity(len(s)) + s
    return np.linalg.matrix_power(step, k) if gs.unital else s @ np.linalg.matrix_power(step, k - 1)


def echelon_reference(m: Mat):
    """(rank, pivots, form) of an exact matrix by elimination: its pivot
    columns, and the exact form q of its column space (q[P, :] = I), from
    the reduced echelon form of its pivot columns transposed."""
    _, pivots = _rref(m.data, m.kind, reduced=False)
    r, rows = _rref(m.data[:, pivots].T, m.kind)
    return len(pivots), tuple(pivots), Mat(r[: len(rows)].T, m.kind)


def b_minus_s(gs: GeneratorSet):
    """(X, B) with X = B*I - S on Python ints, from the builder, as the Q
    and GF(p) paths form it."""
    s, b = kron_square(gs)
    return b * np.identity(s.shape[0], dtype=object) - s, b


def det(a: Mat):
    """Determinant (exact on exact kinds, numpy on approximate kinds)."""
    if a.rows != a.cols:
        raise ValueError("determinant needs a square matrix")
    if not a.kind.exact:
        return np.linalg.det(a.data)
    m = np.array(a.data, dtype=object, copy=True)
    modulus = a.kind.modulus
    n = a.rows
    sign = 1
    result = a.kind.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i, c] != 0), None)
        if pr is None:
            return a.kind.zero()
        if pr != c:
            m[[c, pr]] = m[[pr, c]]
            sign = -sign
        pivot = m[c, c]
        result = result * pivot
        if modulus is not None:
            result %= modulus
            inv = pow(int(pivot), -1, modulus)
            for i in range(c + 1, n):
                if m[i, c] != 0:
                    m[i] = (m[i] - m[i, c] * inv % modulus * m[c]) % modulus
        else:
            for i in range(c + 1, n):
                if m[i, c] != 0:
                    m[i] = m[i] - m[i, c] / pivot * m[c]
    if sign < 0:
        result = -result % modulus if modulus is not None else -result
    return result


def is_psd(a: Mat, tol: float | None = None) -> bool:
    """Positive semi-definiteness check.

    Exact kinds use symmetric pivoting (diagonal pivots must stay
    nonnegative, and a vanished diagonal forces its whole row to vanish);
    approximate kinds check the spectrum of the Hermitian part.
    """
    if a.rows != a.cols:
        return False
    if a.kind.tag == "gfp":
        raise ValueError("positive semi-definiteness is not defined over GF(p)")
    if not a.kind.exact:
        h = (a.data + a.data.conj().T) / 2
        atol = tol if tol is not None else 1e-9
        if not np.allclose(a.data, h, rtol=1e-9, atol=atol):
            return False
        w = np.linalg.eigvalsh(h)
        bound = tol if tol is not None else a.rows * _EPS * max(1.0, float(abs(w).max()))
        return bool(w.min() >= -bound)
    if not np.array_equal(a.data, a.data.T):
        return False
    w = np.array(a.data, dtype=object, copy=True)
    active = list(range(a.rows))
    while active:
        if any(w[i, i] < 0 for i in active):
            return False
        piv = next((i for i in active if w[i, i] > 0), None)
        if piv is None:
            # zero diagonal throughout: PSD iff the remaining block vanishes
            return all(w[i, j] == 0 for i in active for j in active)
        active.remove(piv)
        d = w[piv, piv]
        for i in active:
            if w[i, piv] != 0:
                f = Fraction(w[i, piv], d)
                for j in active:
                    w[i, j] = w[i, j] - f * w[piv, j]
    return True
