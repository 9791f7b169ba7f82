"""Ground-truth compactification data with known answers, plus JSON I/O.

The on-disk format mirrors the in-memory datum one to one:

    {
      "dim": d,
      "components": n,
      "strata": [
        {
          "subset": [i, ...],                      # sorted, 1-indexed
          "cohomology": {"<b>": {"generators": g, "relations": [[column], ...]}},
          "restrictions": {"<i>": {"<b>": [[row], ...]}}
        },
        ...
      ]
    }

Absent strata are empty; absent cohomology degrees are zero groups;
restriction matrices into or out of a zero group may be omitted.
Relations are stored as columns, restriction matrices as rows (target
generators by source generators).
"""

import json
from math import comb
from pathlib import Path

from .intmat import IntMatrix
from .abgroup import FpAbPresentation
from .sncdata import SncDatum, StratumData

__all__ = [
    "DatumParseError",
    "point_snc",
    "projective_space_cohomology",
    "affine_space_snc",
    "torus_snc",
    "punctured_curve_snc",
    "from_json",
    "to_json",
    "datum_to_dict",
    "datum_from_dict",
    "parse_builder",
    "builder_betti",
    "example_names",
]


class DatumParseError(ValueError):
    """The JSON input does not follow the documented schema."""


def _is_int(x) -> bool:
    # JSON true/false parse as bools, which are int subclasses; reject them.
    return isinstance(x, int) and not isinstance(x, bool)


def point_snc() -> SncDatum:
    """A single point: no boundary at all."""
    return SncDatum(0, 0, {(): StratumData({0: FpAbPresentation.free(1)}, {})})


def projective_space_cohomology(m: int) -> dict[int, FpAbPresentation]:
    """Z in every even degree 0, 2, ..., 2m."""
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return {2 * j: FpAbPresentation.free(1) for j in range(m + 1)}


def affine_space_snc(d: int) -> SncDatum:
    """Affine d-space compactified in projective d-space.

    One boundary component, a projective hyperplane; the restriction is
    the identity on every shared even degree.
    """
    if d < 1:
        raise ValueError("affine space builder needs dimension >= 1")
    one = IntMatrix.identity(1)
    strata = {
        (): StratumData(projective_space_cohomology(d), {}),
        (1,): StratumData(
            projective_space_cohomology(d - 1),
            {1: {2 * j: one for j in range(d)}},
        ),
    }
    return SncDatum(d, 1, strata)


def _torus_factor() -> SncDatum:
    """The punctured line C* in the projective line: two boundary points."""
    one = IntMatrix.identity(1)
    line = {0: FpAbPresentation.free(1), 2: FpAbPresentation.free(1)}
    point = {0: FpAbPresentation.free(1)}
    strata = {
        (): StratumData(line, {}),
        (1,): StratumData(dict(point), {1: {0: one}}),
        (2,): StratumData(dict(point), {2: {0: one}}),
    }
    return SncDatum(1, 2, strata)


def torus_snc(n: int) -> SncDatum:
    """The n-torus (C*)^n compactified in a product of projective lines.

    Built as the n-fold product of the one-dimensional case, so it also
    exercises the product construction.
    """
    if n < 0:
        raise ValueError("torus builder needs n >= 0")
    if n == 0:
        return point_snc()
    from .weight import product_snc

    out = _torus_factor()
    for _ in range(n - 1):
        out = product_snc(out, _torus_factor())
    return out


def punctured_curve_snc(g: int, n: int) -> SncDatum:
    """A genus-g curve with n punctures, compactified by filling the points.

    The curve carries an abstract Z^2g in degree one; its restriction to
    any boundary point vanishes for degree reasons.
    """
    if g < 0 or n < 1:
        raise ValueError("curve builder needs genus >= 0 and at least one puncture")
    one = IntMatrix.identity(1)
    curve = {0: FpAbPresentation.free(1), 2: FpAbPresentation.free(1)}
    if g > 0:
        curve[1] = FpAbPresentation.free(2 * g)
    strata: dict[tuple[int, ...], StratumData] = {(): StratumData(curve, {})}
    for i in range(1, n + 1):
        strata[(i,)] = StratumData({0: FpAbPresentation.free(1)}, {i: {0: one}})
    return SncDatum(1, n, strata)


# ---------------------------------------------------------------------------
# JSON serialization


def _presentation_to_obj(p: FpAbPresentation) -> dict:
    return {
        "generators": p.generators,
        "relations": [list(p.relations.col(j)) for j in range(p.relations.cols)],
    }


def datum_to_dict(s: SncDatum) -> dict:
    strata = []
    for I in s.nonempty_subsets():
        stratum = s.strata[I]
        entry: dict = {"subset": list(I)}
        entry["cohomology"] = {
            str(b): _presentation_to_obj(p) for b, p in sorted(stratum.cohomology.items())
        }
        restrictions = {}
        for i in sorted(stratum.restrictions):
            per_degree = {}
            for b in sorted(stratum.restrictions[i]):
                mat = stratum.restrictions[i][b]
                if mat.rows == 0 or mat.cols == 0:
                    continue
                per_degree[str(b)] = mat.to_rows()
            if per_degree:
                restrictions[str(i)] = per_degree
        entry["restrictions"] = restrictions
        strata.append(entry)
    return {"dim": s.dim, "components": s.n_components, "strata": strata}


def to_json(s: SncDatum) -> str:
    return json.dumps(datum_to_dict(s), indent=2, sort_keys=True) + "\n"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DatumParseError(message)


def _parse_int_key(key: str, what: str) -> int:
    try:
        return int(key)
    except (TypeError, ValueError):
        raise DatumParseError(f"{what} key {key!r} is not an integer") from None


def _parse_presentation(obj, where: str) -> FpAbPresentation:
    _expect(isinstance(obj, dict), f"{where}: presentation must be an object")
    _expect("generators" in obj, f"{where}: missing generator count")
    gens = obj["generators"]
    _expect(_is_int(gens) and gens >= 0, f"{where}: bad generator count")
    columns = obj.get("relations", [])
    _expect(isinstance(columns, list), f"{where}: relations must be a list of columns")
    for c in columns:
        _expect(
            isinstance(c, list) and len(c) == gens and all(_is_int(x) for x in c),
            f"{where}: each relation must be an integer column of length {gens}",
        )
    return FpAbPresentation.from_relation_columns(gens, columns)


def _parse_matrix(obj, where: str) -> IntMatrix:
    _expect(isinstance(obj, list), f"{where}: matrix must be a list of rows")
    message = f"{where}: matrix rows must be equal-length integer lists"
    # Check every row's type before taking any length: a flat list is malformed.
    _expect(all(isinstance(r, list) for r in obj), message)
    width = len(obj[0]) if obj else 0
    for r in obj:
        _expect(len(r) == width and all(_is_int(x) for x in r), message)
    return IntMatrix.from_rows(obj, width)


def datum_from_dict(obj) -> SncDatum:
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in ("dim", "components", "strata"):
        _expect(key in obj, f'missing top-level key "{key}"')
    dim, n, strata_list = obj["dim"], obj["components"], obj["strata"]
    _expect(_is_int(dim) and dim >= 0, '"dim" must be a nonnegative integer')
    _expect(_is_int(n) and n >= 0, '"components" must be a nonnegative integer')
    _expect(isinstance(strata_list, list), '"strata" must be a list')

    strata: dict[tuple[int, ...], StratumData] = {}
    for entry in strata_list:
        _expect(isinstance(entry, dict), "each stratum must be an object")
        _expect("subset" in entry, "stratum without a subset")
        subset = entry["subset"]
        _expect(
            isinstance(subset, list) and all(_is_int(x) for x in subset),
            f"malformed subset {subset!r}",
        )
        _expect(
            subset == sorted(set(subset)) and all(1 <= x <= n for x in subset),
            f"malformed subset {subset!r}: need sorted distinct indices in 1..{n}",
        )
        key = tuple(subset)
        _expect(key not in strata, f"duplicate stratum {subset!r}")
        where = f"stratum {subset!r}"

        cohomology = {}
        coh_obj = entry.get("cohomology", {})
        _expect(isinstance(coh_obj, dict), f"{where}: cohomology must be an object")
        for bkey, pres in coh_obj.items():
            b = _parse_int_key(bkey, f"{where} cohomology degree")
            _expect(b >= 0, f"{where}: negative cohomology degree {b}")
            cohomology[b] = _parse_presentation(pres, f"{where} degree {b}")

        restrictions: dict[int, dict[int, IntMatrix]] = {}
        res_obj = entry.get("restrictions", {})
        _expect(isinstance(res_obj, dict), f"{where}: restrictions must be an object")
        for ikey, per_degree_obj in res_obj.items():
            i = _parse_int_key(ikey, f"{where} restriction component")
            _expect(
                isinstance(per_degree_obj, dict),
                f"{where}: restriction {i} must map degrees to matrices",
            )
            per_degree = {}
            for bkey, mat in per_degree_obj.items():
                b = _parse_int_key(bkey, f"{where} restriction degree")
                per_degree[b] = _parse_matrix(mat, f"{where} restriction {i} degree {b}")
            restrictions[i] = per_degree

        strata[key] = StratumData(cohomology, restrictions)

    return SncDatum(dim, n, strata)


def from_json(path) -> SncDatum:
    """Parse a datum file; raises DatumParseError on malformed input."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise DatumParseError(f"cannot read {path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatumParseError(f"{path} is not valid JSON: {e}") from e
    return datum_from_dict(obj)


# ---------------------------------------------------------------------------
# Builder registry for the command line and the example corpus


def parse_builder(spec: str) -> SncDatum:
    """Build a datum from a spec string: point, affine:D, torus:N or curve:G,N."""
    name, _, args = spec.partition(":")
    try:
        if name == "point":
            if args:
                raise ValueError("point takes no arguments")
            return point_snc()
        if name == "affine":
            return affine_space_snc(int(args))
        if name == "torus":
            return torus_snc(int(args))
        if name == "curve":
            g, n = (int(x) for x in args.split(","))
            return punctured_curve_snc(g, n)
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad builder spec {spec!r}: {e}") from None
    raise ValueError(
        f"unknown builder {name!r}; expected point, affine:D, torus:N or curve:G,N"
    )


def builder_betti(spec: str) -> dict[int, int]:
    """Known compactly supported Betti numbers for a builder spec."""
    name, _, args = spec.partition(":")
    if name == "point":
        return {0: 1}
    if name == "affine":
        return {2 * int(args): 1}
    if name == "torus":
        n = int(args)
        return {n + j: comb(n, j) for j in range(n + 1)}
    if name == "curve":
        g, n = (int(x) for x in args.split(","))
        out = {2: 1}
        if n - 1 + 2 * g:
            out[1] = n - 1 + 2 * g
        return out
    raise ValueError(f"no known Betti numbers for {spec!r}")


def example_names() -> list[str]:
    return [
        "point",
        "affine:1", "affine:2", "affine:3", "affine:4",
        "torus:1", "torus:2", "torus:3",
        "curve:0,1", "curve:1,1", "curve:1,2", "curve:2,3",
    ]
