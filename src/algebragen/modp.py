"""Exact randomized dimension computation for rational generators.

Denominators are cleared here, per generator, which leaves the generated
algebra unchanged.  The unital algebra dimension of the integer generators
that result equals the GF(p) rank of the span matrix built from B*I - S
(``resolvent.span_matrix`` over GF(p) with scale B), S the summed Kronecker
square and B above its total squared Frobenius norm, for all but a bounded
number of bad primes.  A random prime below a ceiling far above that bound
gives the right answer with high probability, and a bad prime can only
under-count, so the maximum over several independent primes is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .generators import GeneratorSet
from .matrix import Mat, SingularMatrixError
from .primes import DETERMINISTIC_LIMIT, is_prime
from .resolvent import scale_bound, span_matrix
from .scalars import RATIONAL, gf

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


def clear_denominators(gens: Sequence[Mat]) -> list[Mat]:
    """Scale each rational generator by its own denominator lcm.

    Per-generator scaling leaves the generated algebra (and so its
    dimension) unchanged, since every word just picks up a nonzero factor.
    """
    cleared = []
    for g in gens:
        if g.kind.tag != "rational":
            raise ValueError("clear_denominators expects rational-kind matrices")
        l = math.lcm(*(x.denominator for x in g.data.ravel()))
        cleared.append(g * l if l != 1 else g)
    return cleared


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
        if is_prime(c):
            return c


def dimension_mod_p(gs: GeneratorSet, p: int, b: int) -> PrimeOutcome:
    """Rank over GF(p) of the span matrix built from B*I - S, or a singular
    skip when p divides det(B*I - S).  ``gs`` is the integer set that
    ``certified_dimension`` builds from rational generators, ``b`` its B.
    """
    try:
        return PrimeOutcome(p=p, rank=span_matrix(gs.convert(gf(p)), scale=b).rank)
    except SingularMatrixError:
        return PrimeOutcome(p=p, rank=None)


def certified_dimension(
    gens: Sequence[Mat],
    trials: int = DEFAULT_TRIALS,
    seed=None,
    n: int | None = None,
    forced_prime: int | None = None,
) -> tuple[int, PrimePlan]:
    """Dimension of the unital algebra of rational generators, certified by
    ``trials`` random primes.  Denominators are cleared here, per generator,
    which leaves the algebra unchanged; B is ``scale_bound`` of that set.

    Each trial draws primes from its own stream split off ``seed`` (so
    results do not depend on evaluation order) until one is non-singular;
    the reported dimension is the maximum rank observed, since a bad prime
    can only lower the rank.  ``forced_prime`` is tried first and counts as
    a trial when it succeeds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n is None:
        if not gens:
            raise ValueError("pass n explicitly for an empty generator list")
        n = gens[0].rows
    gs = GeneratorSet(n, tuple(clear_denominators(gens)), RATIONAL)
    b = scale_bound(gs)
    bound = bad_prime_bound(n, b)
    ceiling = prime_ceiling(bound)
    per_prime = per_prime_failure_bound(bound, ceiling)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) % (1 << 63)

    outcomes: list[PrimeOutcome] = []
    successes = 0
    if forced_prime is not None:
        outcome = dimension_mod_p(gs, forced_prime, b)
        outcomes.append(outcome)
        if not outcome.singular:
            successes += 1

    for trial in range(trials - successes):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        while True:
            p = sample_prime(bound, rng)
            outcome = dimension_mod_p(gs, p, b)
            outcomes.append(outcome)
            if not outcome.singular:
                successes += 1
                break

    dim = max(o.rank for o in outcomes if not o.singular)
    plan = PrimePlan(
        B=b,
        bad_prime_bound=bound,
        ceiling=ceiling,
        outcomes=tuple(outcomes),
        failure_probability_bound=min(1.0, per_prime**successes),
    )
    return dim, plan
