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
    "unvec", "vec", "word_span",
}


def test_public_names_are_pinned():
    names = {name for name in ag.__all__ if not isinstance(getattr(ag, name), types.ModuleType)}
    assert names == PUBLIC
