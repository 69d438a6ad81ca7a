"""Matrix algebras from generators: membership, dimension, bases.

The central object is the span matrix: the block realignment of a series
in the summed Kronecker square of the generators, a power of it on float
kinds and its resolvent on exact kinds.  Its column space is the vectorized
algebra and its rank is the algebra's dimension.
An independent word-span baseline (products plus elimination) provides
cross-validation and explicit certificates, and a mod-p path certifies
dimensions of integer instances via random primes.
"""

from .algebra import AlgebraBasis, MembershipResult, basis, dimension, intersect, membership
from .generators import GeneratorSet
from .matrix import (
    Mat,
    RankInfo,
    SingularMatrixError,
    in_range,
    inverse,
    kron,
    norm,
    null_space,
    rank,
    rank_info,
    realign,
    subspace_intersect,
    unvec,
    vec,
)
from .modp import (
    PrimeOutcome,
    PrimePlan,
    PrimeRangeError,
    bad_prime_bound,
    certified_dimension,
    dimension_mod_p,
    sample_prime,
)
from .resolvent import (
    SpanMatrixReport,
    clear_denominators,
    default_power_exponent,
    integer_b_minus_s,
    scale_bound,
    span_matrix,
    sum_kron,
)
from .scalars import C64, F64, RATIONAL, ScalarKind, gf
from .wordspan import WordBasis, express, word_span

__all__ = [name for name in dir() if not name.startswith("_")]
