from fractions import Fraction

import numpy as np
import pytest

from algebragen.matrix import Mat
from algebragen.scalars import C64, F64, RATIONAL, ScalarKind, gf

from linalg_helpers import convert


def test_tags():
    assert F64.tag == "f64" and not F64.exact
    assert C64.tag == "c64" and not C64.exact
    assert RATIONAL.exact and gf(7).exact


def test_gfp_modulus_must_be_prime():
    gf(2)
    gf(1048583)
    with pytest.raises(ValueError):
        gf(4)
    with pytest.raises(ValueError):
        gf(1)
    with pytest.raises(ValueError):
        ScalarKind("gfp")


def test_gf_makes_one_kind_per_prime():
    assert gf(3037000493) is gf(3037000493)
    assert gf(7) == ScalarKind("gfp", 7)


def test_no_modulus_elsewhere():
    with pytest.raises(ValueError):
        ScalarKind("f64", 5)
    with pytest.raises(ValueError):
        ScalarKind("nope")


def test_coerce():
    assert RATIONAL.coerce("1/3") == Fraction(1, 3)
    assert RATIONAL.coerce(0.5) == Fraction(1, 2)  # exact binary value
    assert F64.coerce("2.5") == 2.5
    assert C64.coerce(1) == 1 + 0j
    k = gf(7)
    assert k.coerce(-1) == 6
    assert k.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        k.coerce(Fraction(1, 7))
    # a float enters GF(p) as its exact rational
    assert k.coerce(0.5) == 4 and k.coerce(np.float64(-1.5)) == 2 and k.coerce(np.float32(3.0)) == 3
    assert convert(Mat.from_rows([[0.5]], F64), k).data.tolist() == [[4]]
    with pytest.raises(ZeroDivisionError):
        gf(2).coerce(0.5)
    with pytest.raises(ValueError):
        k.coerce(float("nan"))
    with pytest.raises(OverflowError):
        k.coerce(float("inf"))


def test_str():
    assert str(RATIONAL) == "rational"
    assert str(gf(11)) == "gfp:11"
