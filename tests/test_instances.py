import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebragen as ag
from algebragen.instances import ParseError, grid_of, instance_from_dict, kind_from_field

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# negative imaginary parts, exponents on either side and signed zeros
C64_EDGES = [
    complex(-0.0, -0.0),
    complex(0.0, -0.0),
    complex(-0.0, 0.0),
    complex(1e-300, -2.5e20),
    complex(-1.5, 1e-7),
    complex(5e-324, -1.7976931348623157e308),
]
ENTRIES = {
    "f64": FINITE,
    "c64": st.builds(complex, FINITE, FINITE) | st.sampled_from(C64_EDGES),
    "rational": st.fractions(),
}


def round_trip(gens, field, unital):
    """Write generators in the instance entry format and read them back."""
    doc = {"n": gens[0].rows, "field": field, "unital": unital, "generators": [grid_of(g) for g in gens]}
    return instance_from_dict(json.loads(json.dumps(doc)))


def assert_same(a: ag.Mat, b: ag.Mat):
    assert a.kind == b.kind
    if a.kind.exact:
        assert a == b
    else:  # bit for bit, so signed zeros count
        assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("field", sorted(ENTRIES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_entry_format_round_trips(field, data):
    kind = kind_from_field(field)
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3))
    unital = data.draw(st.booleans())
    entries = st.lists(ENTRIES[field], min_size=n * n, max_size=n * n)
    gens = [ag.Mat.wrap(np.array(data.draw(entries), dtype=kind.dtype).reshape(n, n), kind) for _ in range(d)]
    inst = round_trip(gens, field, unital)
    assert (inst.field, inst.n, inst.d, inst.gs.unital) == (field, n, d, unital)
    for a, b in zip(gens, inst.gs.gens):
        assert_same(a, b)


def test_c64_edge_entries_round_trip():
    m = ag.Mat.wrap(np.array(C64_EDGES[:4]).reshape(2, 2), ag.C64)
    assert_same(m, round_trip([m], "c64", True).gs.gens[0])


@pytest.mark.parametrize("n", [2.7, 2.0, True, "2", None])
def test_n_must_be_a_json_integer(n):
    doc = {"n": n, "field": "rational", "generators": [[["1", "0"], ["0", "1"]]]}
    with pytest.raises(ParseError, match='"n"'):
        instance_from_dict(json.loads(json.dumps(doc)))
    doc["n"] = 2
    assert instance_from_dict(doc).n == 2
