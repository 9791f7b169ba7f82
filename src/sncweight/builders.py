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
Integer keys are written in plain decimal ("2", "-1"; not "02" or "+2").
Relations are stored as columns, restriction matrices as rows (target
generators by source generators).
"""

import json
from itertools import combinations, product
from math import comb

from .intmat import DenseWorkTooLargeError, IntMatrix
from .abgroup import FpAbPresentation
from .sncdata import MAX_COUNT, DatumParseError, SncDatum, StratumData, parse_int, read_json

__all__ = [
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


def torus_snc(n: int) -> SncDatum:
    """The n-torus (C*)^n compactified in a product of n projective lines.

    Factor f (1-based) owns the components 2f - 1 and 2f, its two points
    at 0 and infinity, so a stratum I picks a point or the whole line in
    each factor, and its free factors F(I) are those whose line it keeps.
    H^(2k) is free on the k-subsets of F(I) in descending colex order (the
    subsets that hold the largest free factor first), the generator order
    of the nested product of n copies of torus:1.  The restriction into I
    along a component of factor f sends a subset S of F(I) + {f} to S when
    f is not in S, and to zero when it is.  That 0/1 matrix depends only
    on |F(I)|, the rank of f in F(I) + {f} and k, so each is built once
    per call and shared by every stratum that uses it, as is the
    cohomology of each |F(I)|.  Like every builder's datum it is valid by
    construction and is not validated when it is built.
    """
    if n < 0:
        raise ValueError("torus builder needs n >= 0")
    # subsets[m][k]: the k-subsets of range(m), in generator order.
    subsets = [[sorted(combinations(range(m), k), key=lambda S: S[::-1], reverse=True)
                for k in range(m + 1)] for m in range(n + 1)]
    cohomology = [{2 * k: FpAbPresentation.free(len(subsets[m][k])) for k in range(m + 1)}
                  for m in range(n + 1)]

    def selection(m: int, r: int, k: int) -> IntMatrix:
        # From the m + 1 free factors of the source, f at rank r, to the
        # m of the target: target subset T is source subset T shifted past r.
        column = {S: j for j, S in enumerate(subsets[m + 1][k])}
        rows = [[0] * len(column) for _ in subsets[m][k]]
        for row, T in zip(rows, subsets[m][k]):
            row[column[tuple(x + (x >= r) for x in T)]] = 1
        return IntMatrix.from_rows(rows, len(column))

    maps = [[{2 * k: selection(m, r, k) for k in range(m + 1)} for r in range(m + 1)]
            for m in range(n)]
    strata: dict[tuple[int, ...], StratumData] = {}
    for states in product((0, 1, 2), repeat=n):
        # State 0 keeps a factor's line; state 1 or 2 takes its first or second point.
        I, ranks, free = [], [], 0
        for f, state in enumerate(states):
            if state:
                I.append(2 * f + state)
                ranks.append(free)
            else:
                free += 1
        strata[tuple(I)] = StratumData(
            cohomology[free], {c: maps[free][r] for c, r in zip(I, ranks)})
    return SncDatum(n, 2 * n, strata)


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
    columns = [[0] * p.generators for _ in range(p.relations.cols)]
    for i, j, e in p.relations.nonzeros():
        columns[j][i] = e
    return {"generators": p.generators, "relations": columns}


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


def _parse_presentation(obj, where: str) -> FpAbPresentation:
    _expect(isinstance(obj, dict), f"{where}: presentation must be an object")
    _expect("generators" in obj, f"{where}: missing generator count")
    gens = obj["generators"]
    _expect(type(gens) is int and gens >= 0, f"{where}: bad generator count")
    _expect(gens <= MAX_COUNT, f"{where}: generator count must be at most {MAX_COUNT}")
    columns = obj.get("relations", [])
    _expect(isinstance(columns, list), f"{where}: relations must be a list of columns")
    message = f"{where}: each relation must be an integer column of length {gens}"
    _expect(all(isinstance(c, list) for c in columns), message)
    # The entries and column lengths are checked once, by the constructor.
    try:
        return FpAbPresentation.from_relation_columns(gens, columns)
    except DenseWorkTooLargeError as e:
        raise DenseWorkTooLargeError(f"{where}: {e}") from None
    except (TypeError, ValueError):
        raise DatumParseError(message) from None


def _parse_matrix(obj, where: str) -> IntMatrix:
    _expect(isinstance(obj, list), f"{where}: matrix must be a list of rows")
    message = f"{where}: matrix rows must be equal-length integer lists"
    # A flat list is malformed; entries and row lengths are left to from_rows.
    _expect(all(isinstance(r, list) for r in obj), message)
    try:
        return IntMatrix.from_rows(obj)
    except (TypeError, ValueError):
        raise DatumParseError(message) from None


def datum_from_dict(obj) -> SncDatum:
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in ("dim", "components", "strata"):
        _expect(key in obj, f'missing top-level key "{key}"')
    dim, n, strata_list = obj["dim"], obj["components"], obj["strata"]
    # A value is an integer exactly when its type is int, so JSON true and
    # false (bools, an int subclass) are refused here and in IntMatrix.
    _expect(type(dim) is int and dim >= 0, '"dim" must be a nonnegative integer')
    _expect(type(n) is int and n >= 0, '"components" must be a nonnegative integer')
    _expect(dim <= MAX_COUNT, f'"dim" must be at most {MAX_COUNT}')
    _expect(n <= MAX_COUNT, f'"components" must be at most {MAX_COUNT}')
    _expect(isinstance(strata_list, list), '"strata" must be a list')

    strata: dict[tuple[int, ...], StratumData] = {}
    for entry in strata_list:
        _expect(isinstance(entry, dict), "each stratum must be an object")
        _expect("subset" in entry, "stratum without a subset")
        subset = entry["subset"]
        _expect(
            isinstance(subset, list) and all(type(x) is int for x in subset),
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
            b = parse_int(bkey, f"{where} cohomology degree key")
            _expect(b >= 0, f"{where}: negative cohomology degree {b}")
            cohomology[b] = _parse_presentation(pres, f"{where} degree {b}")

        restrictions: dict[int, dict[int, IntMatrix]] = {}
        res_obj = entry.get("restrictions", {})
        _expect(isinstance(res_obj, dict), f"{where}: restrictions must be an object")
        for ikey, per_degree_obj in res_obj.items():
            i = parse_int(ikey, f"{where} restriction component key")
            _expect(
                isinstance(per_degree_obj, dict),
                f"{where}: restriction {i} must map degrees to matrices",
            )
            per_degree = {}
            for bkey, mat in per_degree_obj.items():
                b = parse_int(bkey, f"{where} restriction degree key")
                per_degree[b] = _parse_matrix(mat, f"{where} restriction {i} degree {b}")
            restrictions[i] = per_degree

        strata[key] = StratumData(cohomology, restrictions)

    return SncDatum(dim, n, strata)


def from_json(path) -> SncDatum:
    """Parse a datum file; raises DatumParseError on malformed input."""
    return datum_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Builder registry for the command line and the example corpus


def parse_builder(spec: str) -> SncDatum:
    """Build a datum from a spec string: point, affine:D, torus:N or curve:G,N.

    A spec gives exactly its builder's arguments, each a plain-decimal
    integer.  Sizes are bounded by MAX_COUNT, as for datum files, and
    checked before anything is built: D <= MAX_COUNT; N <= MAX_COUNT and
    2G + N - 1 <= MAX_COUNT for a curve; 3^N <= MAX_COUNT strata for a
    torus (N <= 8).  A spec refused is a DatumParseError.
    """
    name, colon, args = spec.partition(":")
    try:
        if name == "point":
            if colon:
                raise ValueError("point takes no arguments")
            return point_snc()
        if name == "affine":
            d = parse_int(args, "argument")
            if d > MAX_COUNT:
                raise ValueError(f"affine:D needs D <= {MAX_COUNT}")
            return affine_space_snc(d)
        if name == "torus":
            n = parse_int(args, "argument")
            # 3^n > n, so a larger n never needs the power computed.
            if n > MAX_COUNT or 3 ** n > MAX_COUNT:
                raise ValueError(f"torus:N builds 3^N strata and needs 3^N <= {MAX_COUNT}")
            return torus_snc(n)
        if name == "curve":
            if args.count(",") != 1:
                raise ValueError("curve takes two arguments")
            g, n = (parse_int(x, "argument") for x in args.split(","))
            if n > MAX_COUNT or 2 * g + n - 1 > MAX_COUNT:
                raise ValueError(f"curve:G,N needs N <= {MAX_COUNT} and 2G + N - 1 <= {MAX_COUNT}")
            return punctured_curve_snc(g, n)
    except (TypeError, ValueError) as e:
        raise DatumParseError(f"bad builder spec {spec!r}: {e}") from None
    raise DatumParseError(
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
