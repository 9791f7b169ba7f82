"""Weight cochain complexes and the bigraded weight cohomology table.

For each cohomological degree b, the boundary strata of a compactified
smooth variety assemble into the cochain complex

    H^b(total space) -> H^b(codim-1 strata) -> ... -> H^b(codim-d strata)

whose differential is the signed sum of pullback restrictions.
weight_complex builds it in one pass over the datum's levels: each
level's group, and the differential into it as one IntMatrix written
a stratum's rows at a time.  The degree-a cohomology of that complex is
the bigraded weight cohomology with compact support in bidegree (a, b);
the b = 0 row recovers the reduced cohomology of the dual boundary
complex shifted by one, which is the central cross-check of this
package (checks' nerve-identity suite compares it with the simplicial
path of dual, which this module does not import).

This module holds only what compute runs.  Products of data and the
check suites that build them are in checks, and the builders are not
imported here: compute on a file loads no builder family.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .abgroup import FgAbGroup, FpAbPresentation
from .chain import CochainComplex, cohomology
from .intmat import IntMatrix
from .reports import _Record
from .sncdata import SncDatum

__all__ = [
    "BigradedTable",
    "weight_complex",
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
    differential into it: each stratum's rows are one band of
    IntMatrix.from_bands, its stored restrictions the band's sources.

    s must be valid, and then the result is a complex: each restriction
    is well defined, and the commuting squares make d after d vanish.
    """
    groups, diffs = [], []
    offsets: dict = {}  # subset of the level before -> its first generator
    for level in s.levels:
        parts, at, bands = [], {}, []
        row0 = 0
        for I, coh in level:
            at[I] = row0
            part = coh.get(b)
            if part is None or not part.generators:
                continue  # a zero group adds no generators and no rows
            parts.append(part)
            restrictions = s.strata[I].restrictions
            sources, sign = [], 1
            for j, i in enumerate(I):
                maps = restrictions.get(i)
                stored = None if maps is None else maps.get(b)
                if stored is not None:
                    sources.append((offsets[I[:j] + I[j + 1:]], stored, sign))
                sign = -sign
            bands.append((part.generators, sources))
            row0 += part.generators
        group = FpAbPresentation.direct_sum(parts)
        if groups:
            diffs.append(IntMatrix.from_bands(groups[-1].generators, bands))
        groups.append(group)
        offsets = at
    return CochainComplex(0, tuple(groups), tuple(diffs))


def weight_cohomology_table(s: SncDatum) -> BigradedTable:
    """Cohomology of every degree-b strata complex, collected as a table.

    s must be valid.  Computed once per datum and cached on it, in its
    _table slot.  The complexes of a valid datum are complexes by
    construction, so their cohomology is taken without verify_complex.
    """
    if s._table is None:
        entries: dict[tuple[int, int], FgAbGroup] = {}
        for b in s.graded_degrees():
            for a, g in cohomology(weight_complex(s, b)).items():
                entries[(a, b)] = g
        object.__setattr__(s, "_table", BigradedTable(s.dim, s.n_components, entries))
    return s._table
