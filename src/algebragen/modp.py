"""Exact randomized dimension computation for rational generators.

The span-matrix builder ``resolvent.kron_square`` clears denominators per
generator, which leaves the generated algebra unchanged, and forms S, the
summed Kronecker square of the cleared generators, and B above their total
squared Frobenius norm, both on Python ints.  With X = B*I - S the unital
algebra dimension equals the GF(p) rank of realign(X^-1), X reduced mod p,
for all but a bounded number of bad primes.  A random prime below a
ceiling far above that bound gives the right answer with high probability,
and a bad prime can only under-count, so the maximum over several
independent primes is taken.

Each rank is that of ``resolvent._echelon_mod_p``, the one GF(p) image of
the span matrix: the exact span matrix over Q lifts the echelon form of the
same image from fixed primes and proves the lift by an exact check, where
this module reads the rank alone and bounds its failure probability.  A
prime the caller forces is tried besides the random ones: its rank joins
the maximum, but only the random primes enter the failure bound.

For odd p the image inverts X folded by the swap vec(Y) -> vec(Y^T), as
two blocks of sides n(n+1)/2 and n(n-1)/2, so ``dimension_mod_p`` refuses
an X that does not commute with the swap mod p.  Every X built from
rational generators commutes with it, since they are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .generators import GeneratorSet
from .matrix import Mat, _as_int64
from .primes import DETERMINISTIC_LIMIT, is_prime
from .resolvent import _echelon_mod_p, kron_square
from .scalars import RATIONAL

MIN_CEILING = 1 << 20
DEFAULT_TRIALS = 2


class PrimeRangeError(ValueError):
    """The required prime ceiling exceeds the deterministic primality range."""


@dataclass(frozen=True)
class PrimeOutcome:
    """One tried prime: its computed rank, or None when (B - S) was
    singular mod p (a detectably bad prime, skipped and resampled)."""

    p: int
    rank: int | None

    @property
    def singular(self) -> bool:
        return self.rank is None


@dataclass(frozen=True)
class PrimePlan:
    """Audit trail of a certified dimension computation."""

    B: int
    bad_prime_bound: float
    ceiling: int
    outcomes: tuple[PrimeOutcome, ...]
    failure_probability_bound: float


def bad_prime_bound(n: int, b: int) -> float:
    """Upper bound on how many primes can mis-report the rank:
    n^2 (n^2 + 1) ln B + n (n^2 + 1) + n^2 ln n."""
    if n < 1 or b < 1:
        raise ValueError("need n >= 1 and B >= 1")
    n2 = n * n
    return n2 * (n2 + 1) * math.log(b) + n * (n2 + 1) + n2 * math.log(n)


def prime_ceiling(bound: float) -> int:
    """Sampling ceiling N: generous enough that a random prime below N is
    bad with probability well under 1%."""
    scaled = 100.0 * max(bound, 1.0)
    n = max(MIN_CEILING, math.ceil(scaled * math.log(scaled)))
    if n > DETERMINISTIC_LIMIT:
        raise PrimeRangeError(
            f"prime ceiling {n} exceeds the deterministic primality range; "
            "use the exact rational path for this instance"
        )
    return n


def per_prime_failure_bound(bound: float, ceiling: int) -> float:
    return min(1.0, bound * math.log(ceiling) / ceiling)


def sample_prime(bound: float, rng: np.random.Generator) -> int:
    """Draw a uniform-ish prime in [N/2, N] for N = prime_ceiling(bound).

    Candidates are odd numbers tested with the deterministic Miller-Rabin
    witnesses.
    """
    n = prime_ceiling(bound)
    while True:
        c = int(rng.integers(n // 2, n + 1)) | 1
        # an even draw of N itself maps past N
        if c <= n and is_prime(c):
            return c


def dimension_mod_p(x: np.ndarray, p: int) -> PrimeOutcome:
    """Rank over GF(p) of realign(X^-1), or a singular skip when p divides
    det X.  ``x`` is the integer X = B*I - S of ``certified_dimension``; its
    inverse mod p is that of the rational (I - S/B)^-1 / B, defined also
    when p divides B.  The image is ``resolvent._echelon_mod_p``, the one
    the exact Q span matrix lifts; it raises ValueError for an X that does
    not commute with the swap vec(Y) -> vec(Y^T) mod p.
    """
    image = _echelon_mod_p(x, p, reduced=False)
    return PrimeOutcome(p=p, rank=None if image is None else len(image[1]))


def certified_dimension(
    gens: Sequence[Mat],
    trials: int = DEFAULT_TRIALS,
    seed=None,
    n: int | None = None,
    forced_prime: int | None = None,
) -> tuple[int, PrimePlan]:
    """Dimension of the unital algebra of rational generators, certified by
    ``trials`` random primes.  X = B*I - S is formed from the S and B of
    ``kron_square``, which clears denominators per generator.

    Each trial draws primes from its own stream split off ``seed`` (so
    results do not depend on evaluation order) until one is non-singular;
    the reported dimension is the maximum rank observed, since a bad prime
    can only lower the rank.  ``forced_prime`` is tried first and its rank
    joins the maximum, but it is no trial: the ``trials`` random primes are
    drawn all the same, and the failure bound counts only them, since a
    chosen prime may be bad on purpose.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for g in gens:
        if g.kind.tag != "rational":
            raise ValueError(f"certified_dimension needs rational generators, not {g.kind}")
    if n is None:
        if not gens:
            raise ValueError("pass n explicitly for an empty generator list")
        n = gens[0].rows
    s, b = kron_square(GeneratorSet(n, tuple(gens), RATIONAL))
    # int64 when it fits: every prime's image reduces it without a pass
    # over Python ints
    x = _as_int64(b * np.identity(n * n, dtype=object) - s)
    bound = bad_prime_bound(n, b)
    ceiling = prime_ceiling(bound)
    per_prime = per_prime_failure_bound(bound, ceiling)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) % (1 << 63)

    outcomes: list[PrimeOutcome] = []
    if forced_prime is not None:
        outcomes.append(dimension_mod_p(x, forced_prime))

    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        while True:
            p = sample_prime(bound, rng)
            outcome = dimension_mod_p(x, p)
            outcomes.append(outcome)
            if not outcome.singular:
                break

    dim = max(o.rank for o in outcomes if not o.singular)
    plan = PrimePlan(
        B=b,
        bad_prime_bound=bound,
        ceiling=ceiling,
        outcomes=tuple(outcomes),
        failure_probability_bound=min(1.0, per_prime**trials),
    )
    return dim, plan
