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
where the datum enters.  A file repeats its matrices and groups many
times over (a product of data repeats each factor's maps in every pair
of strata), so datum_from_dict builds each distinct restriction matrix
and each distinct group once, and every repeat shares that value: a
group's relations are echelonized once, and validation, which takes the
shared values by identity, checks each once too.  A value is keyed by
its rows once they are known to be lists, and each entry's type is
tested once: a first appearance by its constructor, which checks it
as it always was, and a repeat of a stored key by an exact test, so a
true or 1.0 never reads as a stored 1.  A malformed repeat is refused
with its own stratum and degree, and the tables live for one call.

The command line loads this module only where a datum crosses the
program's boundary as a file: a file read, and examples, which writes
files.  Functions of the other modules are called through their module,
so that a wrapper set on a module attribute sees the calls made here.
"""

from __future__ import annotations

import json
from itertools import chain

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
    # For a message with no text of its own to make; one that names a
    # place is formatted in its raise statement, only when its check fails.
    if not cond:
        raise DatumParseError(message)


def _shared(rows: list, seen: dict, tag, build):
    """build(key) of a list of rows, built once per (tag, key) in seen; key is the rows as tuples.

    A key that seen lacks goes to build, which tests each entry's type
    and the row lengths.  A key that seen holds equals one that build
    passed, so it gets only an exact type test of its entries at C
    level.  Raises TypeError or ValueError for rows that build refuses.
    """
    if not all(isinstance(r, list) for r in rows):
        raise ValueError("a row that is not a list")
    key = tuple(map(tuple, rows))
    value = seen.get((tag, key))  # TypeError: an entry that is a list or an object
    if value is None:
        value = seen[tag, key] = build(key)
    elif not {int}.issuperset(map(type, chain.from_iterable(key))):
        raise TypeError("an entry that is not an int")
    return value


def _parse_presentation(obj, subset: list, b: int, seen: dict) -> FpAbPresentation:
    """The group of stratum subset in degree b; seen holds the groups read so far."""
    if not isinstance(obj, dict):
        raise DatumParseError(f"stratum {subset!r} degree {b}: presentation must be an object")
    if "generators" not in obj:
        raise DatumParseError(f"stratum {subset!r} degree {b}: missing generator count")
    gens = obj["generators"]
    if not (type(gens) is int and gens >= 0):
        raise DatumParseError(f"stratum {subset!r} degree {b}: bad generator count")
    if gens > MAX_COUNT:
        raise DatumParseError(
            f"stratum {subset!r} degree {b}: generator count must be at most {MAX_COUNT}")
    columns = obj.get("relations", [])
    if not isinstance(columns, list):
        raise DatumParseError(
            f"stratum {subset!r} degree {b}: relations must be a list of columns")
    try:
        return _shared(columns, seen, gens,
                       lambda key: FpAbPresentation.from_relation_columns(gens, key))
    except DenseWorkTooLargeError as e:
        raise DenseWorkTooLargeError(f"stratum {subset!r} degree {b}: {e}") from None
    except (TypeError, ValueError):
        raise DatumParseError(f"stratum {subset!r} degree {b}: each relation must be "
                              f"an integer column of length {gens}") from None


def _parse_matrix(obj, subset: list, i: int, b: int, seen: dict) -> IntMatrix:
    """The degree-b restriction i of stratum subset; seen holds the matrices read so far."""
    if not isinstance(obj, list):
        raise DatumParseError(
            f"stratum {subset!r} restriction {i} degree {b}: matrix must be a list of rows")
    try:
        return _shared(obj, seen, None, IntMatrix.from_rows)
    except (TypeError, ValueError):
        raise DatumParseError(f"stratum {subset!r} restriction {i} degree {b}: "
                              "matrix rows must be equal-length integer lists") from None


def _parse_key(text, ints: dict, subset: list, what: str) -> int:
    """The integer of a degree or component key; ints holds the key texts read so far.

    A file spells few distinct keys, so each is parsed, and its message
    made, once.
    """
    value = ints.get(text)
    if value is None:
        value = ints[text] = sncdata.parse_int(text, f"stratum {subset!r} {what} key")
    return value


def datum_from_dict(obj) -> SncDatum:
    """The datum obj describes; each distinct matrix and group in it is built once."""
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

    # The values read so far, by content: a file repeats its matrices and
    # groups many times over, and each is built, and checked, once.  The
    # tables live for this call only.
    matrices: dict = {}
    groups: dict = {}
    ints: dict = {}
    strata: dict[tuple[int, ...], StratumData] = {}
    for entry in strata_list:
        _expect(isinstance(entry, dict), "each stratum must be an object")
        _expect("subset" in entry, "stratum without a subset")
        subset = entry["subset"]
        if not (isinstance(subset, list) and {int}.issuperset(map(type, subset))):
            raise DatumParseError(f"malformed subset {subset!r}")
        if subset != sorted(set(subset)) or (subset and (subset[0] < 1 or subset[-1] > n)):
            raise DatumParseError(
                f"malformed subset {subset!r}: need sorted distinct indices in 1..{n}")
        key = tuple(subset)
        if key in strata:
            raise DatumParseError(f"duplicate stratum {subset!r}")

        cohomology = {}
        coh_obj = entry.get("cohomology", {})
        if not isinstance(coh_obj, dict):
            raise DatumParseError(f"stratum {subset!r}: cohomology must be an object")
        for bkey, pres in coh_obj.items():
            b = _parse_key(bkey, ints, subset, "cohomology degree")
            if b < 0:
                raise DatumParseError(f"stratum {subset!r}: negative cohomology degree {b}")
            cohomology[b] = _parse_presentation(pres, subset, b, groups)

        restrictions: dict[int, dict[int, IntMatrix]] = {}
        res_obj = entry.get("restrictions", {})
        if not isinstance(res_obj, dict):
            raise DatumParseError(f"stratum {subset!r}: restrictions must be an object")
        for ikey, per_degree_obj in res_obj.items():
            i = _parse_key(ikey, ints, subset, "restriction component")
            if not isinstance(per_degree_obj, dict):
                raise DatumParseError(
                    f"stratum {subset!r}: restriction {i} must map degrees to matrices")
            per_degree = {}
            for bkey, mat in per_degree_obj.items():
                b = _parse_key(bkey, ints, subset, "restriction degree")
                per_degree[b] = _parse_matrix(mat, subset, i, b, matrices)
            restrictions[i] = per_degree

        strata[key] = StratumData(cohomology, restrictions)

    return SncDatum(dim, n, strata)


def from_json(path) -> SncDatum:
    """Parse a datum file; raises DatumParseError on malformed input."""
    return datum_from_dict(sncdata.read_json(path))
