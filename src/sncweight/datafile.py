"""The datum file format.

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

The module reads and writes this format and validates nothing: a datum
read here is validated by weight.validate, which the command line runs
where the datum enters.  The command line loads this module only where
a datum crosses the program's boundary as a file: a file read, and
examples, which writes files.  Functions of the other modules are
called through their module, so that a wrapper set on a module
attribute sees the calls made here.
"""

from __future__ import annotations

import json

from . import sncdata
from .abgroup import FpAbPresentation
from .intmat import DenseWorkTooLargeError, IntMatrix
from .sncdata import MAX_COUNT, DatumParseError, SncDatum, StratumData

__all__ = [
    "from_json",
    "to_json",
    "datum_to_dict",
    "datum_from_dict",
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
