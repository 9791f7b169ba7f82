"""The datum file format, and the full validation of a datum that enters the program.

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

A datum is validated once, in full, at the boundary where it enters from
outside: the command line validates a datum read from a file before it
computes anything on it, and check validates every datum it is given.
Every other function of the package takes a valid datum as a
precondition and does not check it.  Builders and products of valid
factors are valid by construction, and the tests validate them from
scratch.

validate decides whether a restriction is well defined with
abgroup.is_well_defined, and whether the two paths of a square agree
with abgroup.in_span: a moved relation, or the difference of the paths,
must lie in the target's relation span.

The command line loads this module only where a datum crosses the
program's boundary: a file read, check, and examples, which writes
files.  Functions of the other modules are called through their module,
so that a wrapper set on a module attribute sees the calls made here.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import combinations
from types import MappingProxyType

from . import abgroup, sncdata
from .abgroup import FgAbGroup, FpAbPresentation
from .intmat import DenseWorkTooLargeError, IntMatrix
from .reports import Report
from .sncdata import MAX_COUNT, DatumParseError, SncDatum, StratumData, SubsetKey

__all__ = [
    "from_json",
    "to_json",
    "datum_to_dict",
    "datum_from_dict",
    "validate",
]


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
            b = sncdata.parse_int(bkey, f"{where} cohomology degree key")
            _expect(b >= 0, f"{where}: negative cohomology degree {b}")
            cohomology[b] = _parse_presentation(pres, f"{where} degree {b}")

        restrictions: dict[int, dict[int, IntMatrix]] = {}
        res_obj = entry.get("restrictions", {})
        _expect(isinstance(res_obj, dict), f"{where}: restrictions must be an object")
        for ikey, per_degree_obj in res_obj.items():
            i = sncdata.parse_int(ikey, f"{where} restriction component key")
            _expect(
                isinstance(per_degree_obj, dict),
                f"{where}: restriction {i} must map degrees to matrices",
            )
            per_degree = {}
            for bkey, mat in per_degree_obj.items():
                b = sncdata.parse_int(bkey, f"{where} restriction degree key")
                per_degree[b] = _parse_matrix(mat, f"{where} restriction {i} degree {b}")
            restrictions[i] = per_degree

        strata[key] = StratumData(cohomology, restrictions)

    return SncDatum(dim, n, strata)


def from_json(path) -> SncDatum:
    """Parse a datum file; raises DatumParseError on malformed input."""
    return datum_from_dict(sncdata.read_json(path))


# ---------------------------------------------------------------------------
# Validation


def _fmt(I: SubsetKey) -> str:
    return "{" + ",".join(str(i) for i in I) + "}"


_ZERO = FpAbPresentation.zero()
_NO_MAPS: Mapping[int, IntMatrix] = MappingProxyType({})


def validate(s: SncDatum) -> Report:
    """Check every invariant; the report enumerates violations.

    The commuting squares are checked only when the shapes admit them.
    The command line validates a datum once, where it enters the program.
    """
    problems, shapes_ok = _check_structure(s)
    if shapes_ok:
        problems += _square_problems(s)
    return Report("validate", not problems, tuple(problems))


def _check_structure(s: SncDatum) -> tuple[list[str], bool]:
    """Every problem but the squares, and whether the shapes admit the square checks."""
    problems: list[str] = []
    n = s.n_components

    if () not in s.strata:
        problems.append("the empty subset (the total space) is missing")

    for I in s.nonempty_subsets():
        if any(i < 1 or i > n for i in I):
            problems.append(f"subset {_fmt(I)} uses component indices outside 1..{n}")
            continue
        if not I:
            continue
        for J in combinations(I, len(I) - 1):
            if not s.is_nonempty(J):
                problems.append(
                    f"downward closure: Y_{_fmt(I)} is nonempty but Y_{_fmt(J)} is empty"
                )

    for I in s.nonempty_subsets():
        stratum = s.strata[I]
        bound = 2 * (s.dim - len(I))
        h0 = stratum.cohomology.get(0)
        if h0 is None or abgroup.canonical_form(h0) != FgAbGroup.free(1):
            problems.append(f"stratum {_fmt(I)}: degree-0 cohomology is " + (
                "absent (an empty stratum is left out of the file)" if h0 is None else "not Z"))
        for b, p in stratum.cohomology.items():
            if b < 0:
                problems.append(f"stratum {_fmt(I)}: negative cohomology degree {b}")
            elif b > bound and not abgroup.canonical_form(p).is_zero:
                problems.append(
                    f"stratum {_fmt(I)}: nonzero cohomology in degree {b} above bound {bound}"
                )

        for i, per_degree in stratum.restrictions.items():
            if i not in I:
                problems.append(f"stratum {_fmt(I)}: restriction keyed by {i} not in the subset")
                continue
            J = tuple(x for x in I if x != i)
            for b, mat in per_degree.items():
                target = s.cohomology_of(I, b)
                source = s.cohomology_of(J, b)
                if mat.shape != (target.generators, source.generators):
                    problems.append(
                        f"stratum {_fmt(I)}: restriction from {_fmt(J)} in degree {b} "
                        f"has shape {mat.shape}, expected "
                        f"({target.generators}, {source.generators})"
                    )

    # The remaining checks need consistent shapes, so skip them if broken.
    if problems:
        return problems, False

    for I in s.nonempty_subsets():
        stratum = s.strata[I]
        for i in I:
            J = tuple(x for x in I if x != i)
            source_coh = s.strata[J].cohomology
            stored_maps = stratum.restrictions.get(i, _NO_MAPS)
            for b in sorted(set(source_coh) | set(stratum.cohomology)):
                source = source_coh.get(b, _ZERO)
                target = stratum.cohomology.get(b, _ZERO)
                stored = stored_maps.get(b)
                if stored is None:
                    # Only a map into or out of a zero group may be left out, and
                    # its implied zero is well defined.
                    if source.generators and target.generators:
                        problems.append(
                            f"stratum {_fmt(I)}: missing restriction matrix from {_fmt(J)} "
                            f"in degree {b}"
                        )
                    continue
                if not abgroup.is_well_defined(stored, source, target):
                    problems.append(
                        f"stratum {_fmt(I)}: restriction from {_fmt(J)} in degree {b} "
                        "is not well defined on the presentations"
                    )

    return problems, True


def _square_problems(s: SncDatum) -> list[str]:
    """Squares whose paths J -> I minus i -> I and J -> I minus j -> I differ.

    The paths are compared as plain matrix products; they agree when their
    difference lies in the target's relation span.
    """
    problems = []
    strata = s.strata
    for I in s.nonempty_subsets():
        if len(I) < 2:
            continue
        stratum = strata[I]
        target_coh = stratum.cohomology
        for i, j in combinations(I, 2):
            Ii = tuple(x for x in I if x != i)
            Ij = tuple(x for x in I if x != j)
            J = tuple(x for x in I if x != i and x != j)
            source_coh = strata[J].cohomology
            # The stored maps of both paths, by degree; a missing one is an
            # implied zero, and a path through it is zero.
            outer_i = stratum.restrictions.get(i, _NO_MAPS)
            inner_i = strata[Ii].restrictions.get(j, _NO_MAPS)
            outer_j = stratum.restrictions.get(j, _NO_MAPS)
            inner_j = strata[Ij].restrictions.get(i, _NO_MAPS)
            # A degree missing at either end gives empty paths, which agree.
            for b in sorted(source_coh.keys() & target_coh.keys()):
                target = target_coh[b]
                shape = (target.generators, source_coh[b].generators)
                via_i = _path(outer_i.get(b), inner_i.get(b), shape)
                via_j = _path(outer_j.get(b), inner_j.get(b), shape)
                if via_i != via_j and not abgroup.in_span(via_i - via_j, target):
                    problems.append(
                        f"commuting squares: paths {_fmt(J)} -> {_fmt(Ii)} -> {_fmt(I)} and "
                        f"{_fmt(J)} -> {_fmt(Ij)} -> {_fmt(I)} differ in degree {b}"
                    )
    return problems


def _path(outer: IntMatrix | None, inner: IntMatrix | None,
          shape: tuple[int, int]) -> IntMatrix:
    """outer * inner, or the zero matrix of shape when either map is an implied zero."""
    if outer is None or inner is None:
        return IntMatrix.zeros(*shape)
    return outer * inner
