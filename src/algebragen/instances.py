"""JSON instance files: parsing, validation, serialization.

An instance document looks like::

    {
      "n": 3,
      "field": "rational",          # "f64" | "c64" | "rational"
      "unital": true,               # optional, default true
      "generators": [ [["1/3","0","0"], ...], ... ]
    }

Entries are strings so exact values survive serialization: "a/b" or integer
literals under "rational", decimal literals under "f64", "re+im i" literals
under "c64".  Decimal entries are only legal under the approximate fields.
When "field" is absent it defaults to "rational" if every entry parses as a
rational, else "f64".
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .generators import GeneratorSet
from .matrix import Mat
from .scalars import C64, F64, RATIONAL, ScalarKind


class ParseError(ValueError):
    """Malformed instance document or entry string."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*\d+)?$")


def kind_from_field(field: str) -> ScalarKind:
    if field == "f64":
        return F64
    if field == "c64":
        return C64
    if field == "rational":
        return RATIONAL
    raise ParseError(f"unknown field {field!r}")


def parse_entry(text, kind: ScalarKind):
    """Parse one entry string under the given field."""
    if isinstance(text, bool):
        raise ParseError(f"entry {text!r} is not a scalar")
    if isinstance(text, (int,)):
        text = str(text)
    elif isinstance(text, float):
        text = repr(text)
    if not isinstance(text, str):
        raise ParseError(f"entry {text!r} is not a string")
    s = text.strip()
    if kind.tag == "rational":
        if not _RATIONAL_RE.match(s):
            raise ParseError(f"entry {text!r} is not an integer or a/b rational")
        try:
            return Fraction(s.replace(" ", ""))
        except ZeroDivisionError:
            raise ParseError(f"entry {text!r} has a zero denominator") from None
    if kind.tag == "f64":
        try:
            value = float(s)
        except ValueError:
            raise ParseError(f"entry {text!r} is not a decimal literal") from None
        if not math.isfinite(value):
            raise ParseError(f"entry {text!r} is not finite")
        return value
    # c64: "re+im i" with an optional imaginary part
    try:
        value = complex(s.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ParseError(f"entry {text!r} is not a complex literal") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"entry {text!r} is not finite")
    return value


def format_entry(x, kind: ScalarKind) -> str:
    if kind.tag == "rational":
        return str(x)
    if kind.tag == "f64":
        return repr(float(x))
    z = complex(x)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"  # keeps -0.0
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _looks_rational(doc: dict) -> bool:
    for grid in doc.get("generators", []):
        for row in grid:
            for entry in row:
                s = str(entry).strip() if not isinstance(entry, str) else entry.strip()
                if not _RATIONAL_RE.match(s):
                    return False
    return True


@dataclass(frozen=True)
class Instance:
    gs: GeneratorSet
    field: str
    path: str | None = None

    @property
    def n(self) -> int:
        return self.gs.n

    @property
    def d(self) -> int:
        return self.gs.d


def instance_from_dict(doc: dict, field: str | None = None, unital: bool | None = None, path=None) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f'instance needs an integer "n", got {n!r}')
    if n < 1:
        raise ParseError('"n" must be positive')
    grids = doc.get("generators", [])
    if not isinstance(grids, list):
        raise ParseError('"generators" must be a list of grids')
    if field is None:
        field = doc.get("field")
    if field is None:
        field = "rational" if _looks_rational(doc) else "f64"
    kind = kind_from_field(field)
    if unital is None:
        unital = doc.get("unital", True)
    if not isinstance(unital, bool):
        raise ParseError('"unital" must be a boolean')

    gens = []
    for gi, grid in enumerate(grids):
        if not isinstance(grid, list) or len(grid) != n or any(
            not isinstance(row, list) or len(row) != n for row in grid
        ):
            raise ParseError(f"generator {gi} is not an {n}x{n} grid")
        try:
            mat = Mat.wrap(
                np.array(
                    [[parse_entry(e, kind) for e in row] for row in grid],
                    dtype=kind.dtype,
                ).reshape(n, n),
                kind,
            )
        except ParseError as e:
            raise ParseError(f"generator {gi}: {e}") from None
        gens.append(mat)
    gs = GeneratorSet(n=n, gens=tuple(gens), kind=kind, unital=unital)
    return Instance(gs=gs, field=str(kind), path=path)


def load_instance(path: str, field: str | None = None, unital: bool | None = None) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None
    return instance_from_dict(doc, field=field, unital=unital, path=path)


def grid_of(mat: Mat) -> list[list[str]]:
    return [[format_entry(x, mat.kind) for x in row] for row in mat.data]


def random_generator_set(n: int, d: int, rng, unital: bool = True) -> GeneratorSet:
    """Gaussian float instance, for benchmarks and generic-dimension runs."""
    gens = tuple(Mat.wrap(rng.standard_normal((n, n)), F64) for _ in range(d))
    return GeneratorSet(n=n, gens=gens, kind=F64, unital=unital)
