import dataclasses
import types

import algebragen as ag

# The package's top-level names other than its modules.  A name joins this
# set only when the CLI or the report API needs it; helpers stay public in
# their modules and are imported from there.
PUBLIC = {
    "AlgebraBasis", "C64", "F64", "GeneratorSet", "Mat", "MembershipResult", "PrimeOutcome", "PrimePlan",
    "PrimeRangeError", "RATIONAL", "ScalarKind", "SingularMatrixError", "SpanMatrixReport",
    "WordBasis", "basis", "certified_dimension", "dimension", "dimension_mod_p", "express", "gf", "in_range",
    "intersect", "inverse", "membership", "realign", "span_matrix", "subspace_intersect",
    "vec", "word_span",
}

# What the bodies of the two data carriers define, operators included:
# arithmetic is numpy on ``.data``.  ``__hash__`` is None beside a hand-written
# ``__eq__``, and ``unital`` is the default of that field.
MAT = {"__eq__", "__hash__", "__repr__", "_check_kind", "cols", "from_rows", "identity", "rows", "wrap", "zeros"}
GENERATOR_SET = {"__eq__", "__hash__", "__post_init__", "__repr__", "d", "unital"}


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class _Bare:
    """Holds only what every frozen dataclass defines."""

    x: int


def test_public_names_are_pinned():
    names = {name for name in ag.__all__ if not isinstance(getattr(ag, name), types.ModuleType)}
    assert names == PUBLIC


def test_data_carrier_attributes_are_pinned():
    def defined(cls):
        return set(vars(cls)) - set(vars(_Bare))

    assert defined(ag.Mat) == MAT
    assert defined(ag.GeneratorSet) == GENERATOR_SET
