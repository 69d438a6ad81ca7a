"""Scalar backends: float64, complex128, exact rationals, and GF(p)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .primes import is_prime

_TAGS = ("f64", "c64", "rational", "gfp")


@dataclass(frozen=True)
class ScalarKind:
    """Identifies the field matrix entries live in.

    ``tag`` is one of "f64", "c64", "rational", "gfp"; ``modulus`` is the
    prime p for "gfp" and None otherwise.
    """

    tag: str
    modulus: int | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown scalar kind {self.tag!r}")
        if self.tag == "gfp":
            if self.modulus is None or not is_prime(self.modulus):
                raise ValueError(f"gfp modulus must be prime, got {self.modulus!r}")
        elif self.modulus is not None:
            raise ValueError(f"scalar kind {self.tag!r} takes no modulus")

    @property
    def exact(self) -> bool:
        return self.tag in ("rational", "gfp")

    @property
    def dtype(self):
        if self.tag == "f64":
            return np.float64
        if self.tag == "c64":
            return np.complex128
        return object

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        """Coerce one entry to this kind's canonical scalar type.

        Floats convert to rationals exactly (binary value, not a decimal
        guess); rationals, and so floats, convert to GF(p) via a modular
        inverse of the denominator.
        """
        if self.tag == "f64":
            return float(x)
        if self.tag == "c64":
            return complex(x)
        if self.tag == "rational":
            return Fraction(x)
        # gfp
        p = self.modulus
        if isinstance(x, (float, np.floating)):
            x = Fraction(float(x))
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(den, -1, p) % p
        return int(x) % p

    def __str__(self):
        return f"gfp:{self.modulus}" if self.tag == "gfp" else self.tag


F64 = ScalarKind("f64")
C64 = ScalarKind("c64")
RATIONAL = ScalarKind("rational")


# Bounded, since ``modp`` makes a kind for every prime it samples.  One
# 24 s algebench process names at most 25 distinct primes (modp-certify,
# seeds 1 and 11; 2 on exact-rational) and hits the cache about 2000
# times, so 256 keeps every prime of such a run with room to spare.
@lru_cache(maxsize=256)
def gf(p: int) -> ScalarKind:
    """The prime field of p elements.  The kinds of recent primes are kept,
    so that p is not proved prime again each time its field is named."""
    return ScalarKind("gfp", int(p))
