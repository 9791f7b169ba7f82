"""Combinatorial data of a compactification with very simple normal crossing boundary.

A datum records, for a smooth variety X of dimension d compactified with
boundary components Y_1, ..., Y_n, which intersections Y_I are nonempty,
the integral cohomology of each nonempty closed stratum (including the
total space for I empty), and the pullback restriction maps from the
cohomology of Y_(I minus i) to the cohomology of Y_I.  Subsets are kept
as sorted 1-indexed tuples; absent subsets mean empty strata; absent
cohomology degrees mean zero groups; restriction matrices into or out of
a zero group may be omitted and are implied zero.

A datum is validated once, in full, where it enters from outside, by
weight.validate; every other function of the package takes a valid
datum as a precondition and does not check it.  A datum is read-only
once built: its mappings are copied into read-only views.

The module is also the input boundary that every command shares: the
file reader read_json, and the refusals DatumParseError and
ProductTooLargeError, live here, so that the command line can map them
without loading a layer its command does not run.  The datum's weight
complexes are assembled from its levels by weight.weight_complex.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from types import MappingProxyType

from .abgroup import FpAbPresentation
from .intmat import IntMatrix
from .reports import _Record

__all__ = [
    "DatumParseError",
    "MAX_COUNT",
    "ProductTooLargeError",
    "parse_int",
    "read_json",
    "SubsetKey",
    "StratumData",
    "SncDatum",
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
    """A product would exceed checks.product_snc's budget: MAX_COUNT strata, 100 * MAX_COUNT generators."""


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


_ZERO = FpAbPresentation.zero()


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
    decided by weight.validate, which the command line runs where a
    datum enters; the functions that compute on a datum require a valid
    one.
    """

    _fields = ("dim", "n_components", "strata")
    # levels[k] is the Level of the strata with |I| = k, for k up to the
    # largest |I| present.  _table caches the weight cohomology table:
    # None, then the rows taken so far, by a validation that takes rows or
    # by weight.weight_cohomology_row, until weight.weight_cohomology_table
    # makes the whole table there.  Both are
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
