"""Weight cochain complexes and the bigraded weight cohomology table.

For each cohomological degree b, the boundary strata of a compactified
smooth variety assemble into the cochain complex

    H^b(total space) -> H^b(codim-1 strata) -> ... -> H^b(codim-d strata)

whose differential is the signed sum of pullback restrictions.
weight_complex builds it in one pass over the datum's levels: each
level's group, and the differential into it as one IntMatrix of
restriction blocks.  The degree-a cohomology of that complex is
the bigraded weight cohomology with compact support in bidegree (a, b);
the b = 0 row recovers the reduced cohomology of the dual boundary
complex shifted by one, which is the central cross-check of this
package (checks' nerve-identity suite compares it with the simplicial
path of dual, which this module does not import).

validate checks a datum in full where it enters the program; every
other function takes a valid datum and does not check it.  A datum's
commuting squares are what makes its weight complexes complexes, so
validate checks them on the blocks of d after d, here, where the
layout of a level's rows by stratum is known.  It builds each degree's
complex once, and takes in the same pass the cohomology of the degrees
b whose row of the table the command reads, so a valid datum leaves
with those rows: prop1 reads row b = 0 alone, and a row that no caller
reads is never taken.  Each fact of the structure checks is decided
once per distinct value, by identity, since a datum read from a file
shares its repeated groups and matrices.

This module holds only what compute and validation run: products of
data and the check suites are in checks, and no builder is imported.
Functions of other modules are called through their module, so that a
wrapper set on a module attribute sees the calls made here.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import combinations
from types import MappingProxyType

from . import abgroup
from .abgroup import FgAbGroup, FpAbPresentation
from .chain import CochainComplex, cohomology
from .intmat import DenseWorkTooLargeError, IntMatrix
from .reports import Report, _Record
from .sncdata import SncDatum, SubsetKey

__all__ = [
    "BigradedTable",
    "validate",
    "weight_complex",
    "weight_cohomology_row",
    "weight_cohomology_table",
]


class BigradedTable(_Record):
    """(a, b) -> group, nonzero entries only; zero outside 0 <= a <= dim.

    The entries are a read-only copy, so a table cached on its datum
    cannot be changed by a caller.
    """

    _fields = __slots__ = ("dim", "n_components", "entries")

    def __init__(self, dim: int, n_components: int, entries: Mapping[tuple[int, int], FgAbGroup]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n_components", n_components)
        object.__setattr__(self, "entries", MappingProxyType(dict(entries)))
        for (a, b), g in entries.items():
            if g.is_zero:
                raise ValueError(f"zero entry stored at ({a}, {b})")
            if a < 0 or a > dim or b < 0:
                raise ValueError(f"entry at ({a}, {b}) outside the allowed range")

    def entry(self, a: int, b: int) -> FgAbGroup:
        return self.entries.get((a, b), FgAbGroup.zero())

    def items_sorted(self) -> list[tuple[tuple[int, int], FgAbGroup]]:
        return sorted(self.entries.items())

    def entries_equal(self, other: "BigradedTable") -> bool:
        return dict(self.entries) == dict(other.entries)

    def rationalized(self) -> "BigradedTable":
        entries = {
            key: FgAbGroup.free(g.free_rank)
            for key, g in self.entries.items()
            if g.free_rank
        }
        return BigradedTable(self.dim, self.n_components, entries)

    def euler_sum(self) -> int:
        return sum(
            (g.free_rank if (a + b) % 2 == 0 else -g.free_rank)
            for (a, b), g in self.entries.items()
        )


def weight_complex(s: SncDatum, b: int) -> CochainComplex:
    """The strata cochain complex in cohomological degree b, one group per level.

    Group k is the direct sum of the degree-b cohomology of the strata
    with |I| = k, in level order.  Differential k-1 is the signed block
    matrix of pullbacks into level k: the block from Y_(I minus i_j) into
    Y_I is the stored degree-b map times (-1)^(j-1), where i_j is the
    j-th smallest element of I, and a missing map is an implied zero that
    writes no block.  One pass over s.levels builds each group and the
    differential into it, one IntMatrix.from_blocks call per level with
    one block per stored restriction; the blocks of a stratum share its
    rows.

    s must be valid, and then the result is a complex: each restriction
    is well defined, and the commuting squares make d after d vanish.
    validate builds these complexes to check the squares on their blocks:
    shapes that pass its structure checks are all that building needs.
    """
    groups, diffs = [], []
    offsets: dict = {}  # subset of the level before -> its first generator
    for level in s.levels:
        parts, at, blocks = [], {}, []
        row0 = 0
        for I, coh in level:
            at[I] = row0
            part = coh.get(b)
            if part is None or not part.generators:
                continue  # a zero group adds no generators and no rows
            parts.append(part)
            restrictions = s.strata[I].restrictions
            sign = 1
            for j, i in enumerate(I):
                maps = restrictions.get(i)
                stored = None if maps is None else maps.get(b)
                if stored is not None:
                    blocks.append((row0, offsets[I[:j] + I[j + 1:]], stored, 1, True, sign))
                sign = -sign
            row0 += part.generators
        group = FpAbPresentation.direct_sum(parts)
        if groups:
            diffs.append(IntMatrix.from_blocks(row0, groups[-1].generators, blocks))
        groups.append(group)
        offsets = at
    return CochainComplex(0, tuple(groups), tuple(diffs))


def weight_cohomology_row(s: SncDatum, b: int) -> Mapping[int, FgAbGroup]:
    """Row b of the table: a -> the degree-a cohomology of weight_complex(s, b), nonzero only.

    s must be valid.  Taken once per datum and degree, and cached in its
    _table slot, which holds the rows taken so far until the whole table
    is made there; validate(s, rows) may already have left rows in it.
    validate has read every square of a valid datum off its complexes'
    d after d, so they are complexes and their cohomology is taken
    without checking them again; the tests' verify_complex oracle does.
    """
    cache = s._table
    if isinstance(cache, BigradedTable):
        return MappingProxyType({a: g for (a, c), g in cache.entries.items() if c == b})
    if cache is None:
        cache = {}
        object.__setattr__(s, "_table", cache)
    row = cache.get(b)
    if row is None:
        row = cache[b] = MappingProxyType(cohomology(weight_complex(s, b)))
    return row


def weight_cohomology_table(s: SncDatum) -> BigradedTable:
    """Every row of the table, one per graded degree b, collected once per datum.

    s must be valid.  The table replaces the rows cached in s._table, and
    a row not taken yet is taken by weight_cohomology_row.
    """
    if not isinstance(s._table, BigradedTable):
        entries = {(a, b): g for b in s.graded_degrees()
                   for a, g in weight_cohomology_row(s, b).items()}
        object.__setattr__(s, "_table", BigradedTable(s.dim, s.n_components, entries))
    return s._table


# ---------------------------------------------------------------------------
# Validation


_ZERO = FpAbPresentation.zero()


def _fmt(I: SubsetKey) -> str:
    return "{" + ",".join(str(i) for i in I) + "}"


def validate(s: SncDatum, rows: Iterable[int] = ()) -> Report:
    """Check every invariant; the report enumerates violations.

    The commuting squares are checked only when the shapes admit them.
    The command line validates a datum once, where it enters the program.
    rows are the degrees b whose row of the table the caller reads: the
    pass that checks each degree's squares also takes the cohomology of
    those degrees' complexes while nothing has failed, and a datum that
    passes leaves with those rows in _table, so no complex is built
    twice.  A DenseWorkTooLargeError of that cohomology is raised once
    the datum is known valid: an invalid datum gets its report whatever
    the budget.
    """
    problems, shapes_ok = _check_structure(s)
    if shapes_ok:
        problems += _degree_pass(s, frozenset() if problems else frozenset(rows))
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

    # A datum read from a file shares each distinct group and matrix among
    # its strata, so each fact about a value is decided once, by identity.
    forms: dict[int, FgAbGroup] = {}

    def form(p: FpAbPresentation) -> FgAbGroup:
        g = forms.get(id(p))
        if g is None:
            g = forms[id(p)] = abgroup.canonical_form(p)
        return g

    for I in s.nonempty_subsets():
        stratum = s.strata[I]
        bound = 2 * (s.dim - len(I))
        h0 = stratum.cohomology.get(0)
        if h0 is None or form(h0) != FgAbGroup.free(1):
            problems.append(f"stratum {_fmt(I)}: degree-0 cohomology is " + (
                "absent (an empty stratum is left out of the file)" if h0 is None else "not Z"))
        for b, p in stratum.cohomology.items():
            if b < 0:
                problems.append(f"stratum {_fmt(I)}: negative cohomology degree {b}")
            elif b > bound and not form(p).is_zero:
                problems.append(
                    f"stratum {_fmt(I)}: nonzero cohomology in degree {b} above bound {bound}"
                )

        for i, per_degree in stratum.restrictions.items():
            if i not in I:
                problems.append(f"stratum {_fmt(I)}: restriction keyed by {i} not in the subset")
                continue
            J = _drop(I, i)
            for b, mat in per_degree.items():
                target = stratum.cohomology.get(b, _ZERO)
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

    defined: dict[tuple[int, int, int], bool] = {}  # ids of (map, source, target)
    for I in s.nonempty_subsets():
        stratum = s.strata[I]
        targets = stratum.cohomology
        for i in I:
            J = _drop(I, i)
            sources = s.strata[J].cohomology
            stored_maps = stratum.restrictions.get(i, {})
            for b in sorted(sources.keys() | targets.keys()):
                source, target = sources.get(b, _ZERO), targets.get(b, _ZERO)
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
                key = (id(stored), id(source), id(target))
                ok = defined.get(key)
                if ok is None:
                    ok = defined[key] = abgroup.is_well_defined(stored, source, target)
                if not ok:
                    problems.append(
                        f"stratum {_fmt(I)}: restriction from {_fmt(J)} in degree {b} "
                        "is not well defined on the presentations"
                    )

    return problems, True


def _degree_pass(s: SncDatum, rows: frozenset) -> list[str]:
    """The failing squares, from one weight complex per graded degree; the rows b in rows too.

    Each complex is built, read and dropped in turn, so one is held at a
    time, and a degree is skipped when it has no square to check and no
    row to take.  validate passes rows only for a datum that has passed
    every other check; a row's cohomology is taken while no square has
    failed and none was over the budget.  If every square commutes, the
    rows are left in _table, or the first DenseWorkTooLargeError is
    raised.  The failures are listed by subset, then pair, then degree.
    """
    squares = len(s.levels) >= 3
    found: list = []
    taken: dict[int, Mapping[int, FgAbGroup]] = {}
    over_budget = None
    for b in s.graded_degrees():
        if not (squares or b in rows):
            continue
        w = weight_complex(s, b)
        if squares:
            found += _block_problems(s, b, w.differentials)
        if b in rows and not found and over_budget is None:
            try:
                taken[b] = MappingProxyType(cohomology(w))
            except DenseWorkTooLargeError as e:
                over_budget = e
        del w  # before the next degree's complex is built
    if found:
        return [message for _, message in sorted(found)]
    if over_budget is not None:
        raise over_budget
    if taken and s._table is None:
        object.__setattr__(s, "_table", taken)
    return []


def _block_problems(s: SncDatum, b: int, diffs) -> list:
    """(sort key, message) of each degree-b square whose two paths differ, read off d after d.

    In degree b, the block of d_(k-1) * d_(k-2) from Y_J into Y_I is zero
    unless I = J + {i, j}, i < j, and then it is +-(via_i - via_j), where
    via_i is the path J -> I minus i -> I of stored maps: weight_complex
    gives the two paths opposite signs.  A nonzero block fails unless
    the target carries relations whose span holds it.
    """
    found = []
    owners = [_row_owners(level, b) for level in s.levels]
    for k in range(2, len(owners)):
        rows, cols = owners[k], owners[k - 2]
        blocks: dict = {}
        for r, c, e in (diffs[k - 1] * diffs[k - 2]).nonzeros():
            (I, r0), (J, c0) = rows[r], cols[c]
            blocks.setdefault((I, J), []).append((r - r0, c - c0, e))
        for (I, J), entries in blocks.items():
            target = s.strata[I].cohomology[b]
            if not target.is_relation_free:
                width = s.strata[J].cohomology[b].generators
                block = IntMatrix.from_entries(target.generators, width, entries)
                if abgroup.in_span(block, target):
                    continue
            i, j = (x for x in I if x not in J)
            found.append(((k, I, i, j, b), (
                f"commuting squares: paths {_fmt(J)} -> {_fmt(_drop(I, i))} -> {_fmt(I)} "
                f"and {_fmt(J)} -> {_fmt(_drop(I, j))} -> {_fmt(I)} differ in degree {b}")))
    return found


def _row_owners(level, b: int) -> list[tuple[SubsetKey, int]]:
    """(I, the first row of Y_I) for each row of a level's degree-b group, in weight_complex's order."""
    owners: list[tuple[SubsetKey, int]] = []
    for I, coh in level:
        part = coh.get(b)
        if part is not None:
            owners += [(I, len(owners))] * part.generators
    return owners


def _drop(I: SubsetKey, i: int) -> SubsetKey:
    return tuple(x for x in I if x != i)
