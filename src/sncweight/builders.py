"""Ground-truth compactification data with known answers, and the builder registry.

Each builder returns a datum that is valid by construction.
parse_builder turns a command-line spec into one, builder_betti gives
the known compactly supported Betti numbers of a spec, and
example_names lists the specs of the example corpus.  The datum file
format is in datafile, which this module does not import.
"""

from itertools import combinations, product
from math import comb

from .intmat import IntMatrix
from .abgroup import FpAbPresentation
from .sncdata import MAX_COUNT, DatumParseError, SncDatum, StratumData, parse_int

__all__ = [
    "point_snc",
    "projective_space_cohomology",
    "affine_space_snc",
    "torus_snc",
    "punctured_curve_snc",
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
