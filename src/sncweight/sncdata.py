"""Combinatorial data of a compactification with very simple normal crossing boundary.

A datum records, for a smooth variety X of dimension d compactified with
boundary components Y_1, ..., Y_n, which intersections Y_I are nonempty,
the integral cohomology of each nonempty closed stratum (including the
total space for I empty), and the pullback restriction maps from the
cohomology of Y_(I minus i) to the cohomology of Y_I.  Subsets are kept
as sorted 1-indexed tuples; absent subsets mean empty strata; absent
cohomology degrees mean zero groups; restriction matrices into or out of
a zero group may be omitted and are implied zero.

A datum is validated once, in full, at the boundary where it enters from
outside: the command line validates a datum read from a file before it
computes anything on it, and check validates every datum it is given.
Every other function of the package takes a valid datum as a
precondition and does not check it.  Builders and products of valid
factors are valid by construction, and the tests validate them from
scratch.  A datum is read-only once built: its mappings are copied into
read-only views.

The module is also the input boundary that every command shares: the
file reader read_json, and the refusals DatumParseError and
ProductTooLargeError, live here, so that the command line can map them
without loading a layer its command does not run.

validate decides whether a restriction is well defined with
abgroup.is_well_defined, and whether the two paths of a square agree
with abgroup.in_span: a moved relation, or the difference of the paths,
must lie in the target's relation span.  The datum's weight complexes
are assembled from its levels by weight.weight_complex.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import combinations
from types import MappingProxyType

from .abgroup import FgAbGroup, FpAbPresentation, canonical_form, in_span, is_well_defined
from .intmat import IntMatrix
from .reports import Report, _Record

__all__ = [
    "DatumParseError",
    "MAX_COUNT",
    "ProductTooLargeError",
    "parse_int",
    "read_json",
    "SubsetKey",
    "StratumData",
    "SncDatum",
    "validate",
]

SubsetKey = tuple[int, ...]
# One level of strata: (subset, cohomology by degree) for each nonempty
# stratum with a fixed |I|, in lexicographic subset order.
Level = tuple[tuple[SubsetKey, Mapping[int, FpAbPresentation]], ...]

# The largest count an input file may give: "dim", "components" and each
# "generators" of a datum, and "vertices" of a raw simplicial complex.
# Parsers reject larger counts before they allocate anything by them.
# The downward closure of a raw complex's facets is held to as many faces,
# and a product of data to as many strata.
MAX_COUNT = 10_000


class DatumParseError(ValueError):
    """An input file, builder spec or command-line integer refused before anything is built."""


class ProductTooLargeError(ValueError):
    """A product would exceed weight.product_snc's budget: MAX_COUNT strata, 100 * MAX_COUNT generators."""


def parse_int(text: str, what: str) -> int:
    """The integer text spells in plain decimal, its one spelling ("2", "-1"; not "02", "+2")."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise DatumParseError(f"{what} {text!r} is not an integer") from None
    if str(value) != text:
        raise DatumParseError(f"{what} {text!r} is not written in plain decimal")
    return value


def read_json(path):
    """The JSON value in a file, for datum and complex files alike.

    Every failure is a DatumParseError that names the file.  Python refuses
    an integer literal over its int-string digit limit (4300 digits by
    default, which bounds the parse time) with the one ValueError left
    after the decode and syntax errors.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise DatumParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DatumParseError(f"{path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise DatumParseError(f"{path} is not valid JSON: {e}") from e
    except ValueError as e:
        raise DatumParseError(f"{path} holds an integer too long to read") from e
    except RecursionError as e:
        raise DatumParseError(f"{path} is nested too deeply to parse") from e


def _fmt(I: SubsetKey) -> str:
    return "{" + ",".join(str(i) for i in I) + "}"


_ZERO = FpAbPresentation.zero()
_NO_MAPS: Mapping[int, IntMatrix] = MappingProxyType({})


class StratumData(_Record):
    """Graded cohomology of one nonempty stratum plus its incoming restrictions.

    restrictions[i][b] is the matrix of the degree-b pullback from the
    stratum indexed by I minus {i} to this stratum (I the key under which
    this value is stored).
    """

    _fields = __slots__ = ("cohomology", "restrictions")

    def __init__(self, cohomology: Mapping[int, FpAbPresentation],
                 restrictions: Mapping[int, Mapping[int, IntMatrix]]):
        object.__setattr__(self, "cohomology", MappingProxyType(dict(cohomology)))
        object.__setattr__(self, "restrictions", MappingProxyType({
            i: MappingProxyType(dict(per_degree))
            for i, per_degree in restrictions.items()
        }))


class SncDatum(_Record):
    """A compactification datum; see the module docstring.

    Constructing one checks only its subset keys.  Whether it is valid is
    decided by validate, which the command line runs where a datum enters;
    the functions that compute on a datum require a valid one.
    """

    _fields = ("dim", "n_components", "strata")
    # levels[k] is the Level of the strata with |I| = k, for k up to the
    # largest |I| present.  _table is the weight cohomology table, None
    # until weight.weight_cohomology_table first computes it.  Both are
    # sound because the datum cannot change after construction, and
    # neither is a field: equality, hash and repr ignore them.
    __slots__ = _fields + ("levels", "_table")

    def __init__(self, dim: int, n_components: int, strata: Mapping[SubsetKey, StratumData]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n_components", n_components)
        object.__setattr__(self, "strata", MappingProxyType(dict(strata)))
        object.__setattr__(self, "_table", None)
        for I in self.strata:
            if list(I) != sorted(set(I)):
                raise ValueError(f"subset key {I} is not a sorted duplicate-free tuple")
        levels = [[] for _ in range(max(map(len, self.strata), default=-1) + 1)]
        for I in sorted(self.strata):
            levels[len(I)].append((I, self.strata[I].cohomology))
        object.__setattr__(self, "levels", tuple(map(tuple, levels)))

    def is_nonempty(self, I: SubsetKey) -> bool:
        return tuple(I) in self.strata

    def nonempty_subsets(self) -> list[SubsetKey]:
        return [I for level in self.levels for I, _ in level]

    def cohomology_of(self, I: SubsetKey, b: int) -> FpAbPresentation:
        stratum = self.strata.get(tuple(I))
        if stratum is None:
            return _ZERO
        return stratum.cohomology.get(b, _ZERO)

    def graded_degrees(self) -> list[int]:
        """Sorted degrees in which some nonempty stratum has generators."""
        degrees = set()
        for stratum in self.strata.values():
            for b, p in stratum.cohomology.items():
                if p.generators:
                    degrees.add(b)
        return sorted(degrees)


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
        if h0 is None or canonical_form(h0) != FgAbGroup.free(1):
            problems.append(f"stratum {_fmt(I)}: degree-0 cohomology is " + (
                "absent (an empty stratum is left out of the file)" if h0 is None else "not Z"))
        for b, p in stratum.cohomology.items():
            if b < 0:
                problems.append(f"stratum {_fmt(I)}: negative cohomology degree {b}")
            elif b > bound and not canonical_form(p).is_zero:
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
                if not is_well_defined(stored, source, target):
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
                if via_i != via_j and not in_span(via_i - via_j, target):
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
