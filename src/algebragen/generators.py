"""Problem instances: a tuple of square generator matrices over one field."""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Mat
from .scalars import ScalarKind


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of a matrix algebra: d matrices of side n over one kind.

    ``unital`` selects whether the generated algebra includes the identity
    (span of all words, empty word included) or not (words of degree >= 1
    only).  d = 0 is allowed; the unital algebra is then the scalars.
    """

    n: int
    gens: tuple[Mat, ...]
    kind: ScalarKind
    unital: bool = True

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        if self.n < 1:
            raise ValueError("matrix side must be positive")
        for g in self.gens:
            if g.rows != self.n or g.cols != self.n:
                raise ValueError(f"generator is {g.rows}x{g.cols}, expected {self.n}x{self.n}")
            if g.kind != self.kind:
                raise ValueError(f"generator kind {g.kind} != declared kind {self.kind}")

    @property
    def d(self) -> int:
        return len(self.gens)
