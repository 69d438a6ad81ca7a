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
from .matrix import Mat, SingularMatrixError, in_range, inverse, realign, subspace_intersect, vec
from .modp import PrimeOutcome, PrimePlan, PrimeRangeError, certified_dimension, dimension_mod_p
from .resolvent import SpanMatrixReport, span_matrix
from .scalars import C64, F64, RATIONAL, ScalarKind, gf
from .wordspan import WordBasis, express, word_span

__all__ = [name for name in dir() if not name.startswith("_")]
