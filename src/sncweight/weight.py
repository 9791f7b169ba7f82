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
package (cli's nerve-identity suite compares it with the simplicial
path of dual, which this module does not import).
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .abgroup import FgAbGroup, FpAbPresentation
from .builders import affine_space_snc
from .chain import CochainComplex, cohomology
from .intmat import IntMatrix
from .reports import Report, _Record
from .sncdata import MAX_COUNT, ProductTooLargeError, SncDatum, StratumData

__all__ = [
    "BigradedTable",
    "weight_complex",
    "weight_cohomology_table",
    "product_snc",
    "FreeTensorError",
    "a1_stability_check",
    "degeneration_check",
    "euler_check",
    "tensor_table",
]

_ZERO = FpAbPresentation.zero()


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
            part = coh.get(b, _ZERO)
            parts.append(part)
            at[I] = row0
            if part.generators:
                restrictions = s.strata[I].restrictions
                sources = []
                for j, i in enumerate(I):
                    stored = restrictions.get(i, {}).get(b)
                    if stored is not None:
                        sources.append((offsets[I[:j] + I[j + 1:]], stored, -1 if j % 2 else 1))
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


def _require_relation_free(s: SncDatum, who: str) -> None:
    for I in s.nonempty_subsets():
        for b, p in s.strata[I].cohomology.items():
            if not p.is_relation_free:
                raise FreeTensorError(
                    f"{who}: stratum {I} degree {b} carries relations; "
                    "products need free stratum cohomology"
                )


def _signature(cohomology: Mapping[int, FpAbPresentation]) -> tuple[tuple[int, int], ...]:
    """(degree, generator count) of every degree with generators, ascending."""
    return tuple((p, g.generators) for p, g in sorted(cohomology.items()) if g.generators)


def _tensor_layout(sig_x, sig_y) -> dict[int, tuple[int, dict]]:
    """Degree -> (size, {(p, q): (offset, m, n)}) of the graded tensor of two strata.

    sig_x and sig_y are the strata's signatures; the (p, q) block is
    Z^m (x) Z^n.  Degrees ascend, and so does p within a degree.
    """
    layout: dict[int, tuple[int, dict]] = {}
    for p, m in sig_x:
        for q, n in sig_y:
            size, blocks = layout.get(p + q, (0, {}))
            blocks[p, q] = (size, m, n)
            layout[p + q] = (size + m * n, blocks)
    return dict(sorted(layout.items()))


def _leg_restriction(layout, src_layout, maps, left: bool) -> dict[int, IntMatrix]:
    """Degree -> pullback between two tensor strata that differ on one leg.

    layout and src_layout are the tensor layouts of the target and the
    source; maps[d] is the factor's degree-d restriction on the leg that
    moves (the left one if left), and the other leg maps identically.
    Only the blocks with the same (p, q) at source and target are nonzero.
    """
    per_degree = {}
    for b, (height, blocks) in layout.items():
        src = src_layout.get(b)
        if src is None:
            continue
        width, src_blocks = src
        kron_blocks = []
        for (p, q), (row0, m, n) in blocks.items():
            at = src_blocks.get((p, q))
            if at is not None:
                kron_blocks.append((row0, at[0], maps[p], n, True, 1) if left
                                   else (row0, at[0], maps[q], m, False, 1))
        per_degree[b] = IntMatrix.from_blocks(height, width, kron_blocks)
    return per_degree


class FreeTensorError(ValueError):
    """Products of data are only implemented for free stratum cohomology."""


def _generator_total(s: SncDatum) -> int:
    return sum(p.generators for st in s.strata.values() for p in st.cohomology.values())


def product_snc(sx: SncDatum, sy: SncDatum) -> SncDatum:
    """The compactified product: strata are pairs, cohomology is the graded tensor.

    Components of the first factor keep their indices; components of the
    second are shifted up by the first factor's count.  Requires free
    stratum cohomology on both sides.  A product with more than MAX_COUNT
    strata, or more than 100 * MAX_COUNT generators over all strata and
    degrees, raises ProductTooLargeError before anything is built.

    The degree-b generators of a stratum pair are the blocks
    Z^m (x) Z^n of the (p, q) with p + q = b, p ascending, generator
    (i, k) of a block at i * n + k.  This layout depends only on the two
    strata's generator-count signatures, so it is computed once per pair
    of signatures and serves as the target layout of one pair and the
    source layout of the pairs above it.  A restriction keeps both leg
    degrees, so it is nonzero only on the blocks with the same (p, q) at
    source and target; those are the Kronecker blocks R (x) I_n or
    I_m (x) R of the factor's map R, which IntMatrix.from_blocks writes
    from R's rows, one call per restriction and degree.  The work is
    that of the rows and nonzeros written, and the generator order and
    the order of each stratum's restrictions are those of the definition.

    Both factors must be valid.  The product is then valid by construction
    and is not validated: restrictions on different legs commute with sign
    +1 (they are degree-0 maps, so the Koszul sign is trivial), and a
    square on one leg is a factor's square tensored with an identity.  The
    tests validate products from scratch and compare them with a dense
    reference product.
    """
    _require_relation_free(sx, "left factor")
    _require_relation_free(sy, "right factor")
    n_strata = len(sx.strata) * len(sy.strata)
    if n_strata > MAX_COUNT:
        raise ProductTooLargeError(
            f"the product would have {n_strata} strata, more than {MAX_COUNT}")
    n_generators = _generator_total(sx) * _generator_total(sy)
    if n_generators > 100 * MAX_COUNT:
        raise ProductTooLargeError(
            f"the product would have {n_generators} generators, more than {100 * MAX_COUNT}")
    nx = sx.n_components
    sig_x = {ix: _signature(st.cohomology) for ix, st in sx.strata.items()}
    sig_y = {iy: _signature(st.cohomology) for iy, st in sy.strata.items()}
    # Strata with the same signatures share a layout and its cohomology.
    layouts: dict = {}

    def layout_of(sx_sig, sy_sig):
        key = (sx_sig, sy_sig)
        if key not in layouts:
            layout = _tensor_layout(sx_sig, sy_sig)
            cohomology = {b: FpAbPresentation.free(size) for b, (size, _) in layout.items()}
            layouts[key] = (layout, cohomology)
        return layouts[key]

    strata: dict[tuple[int, ...], StratumData] = {}
    for ix in sx.nonempty_subsets():
        maps_x = sx.strata[ix].restrictions
        for iy in sy.nonempty_subsets():
            maps_y = sy.strata[iy].restrictions
            layout, cohomology = layout_of(sig_x[ix], sig_y[iy])
            restrictions: dict[int, dict[int, IntMatrix]] = {}
            # A factor may leave out a map into or out of a zero group, so a
            # map is looked up only for a block that is written.
            for e in ix:
                src, _ = layout_of(sig_x[tuple(x for x in ix if x != e)], sig_y[iy])
                per_degree = _leg_restriction(layout, src, maps_x.get(e, {}), True)
                if per_degree:
                    restrictions[e] = per_degree
            for j in iy:
                src, _ = layout_of(sig_x[ix], sig_y[tuple(y for y in iy if y != j)])
                per_degree = _leg_restriction(layout, src, maps_y.get(j, {}), False)
                if per_degree:
                    restrictions[j + nx] = per_degree
            strata[ix + tuple(j + nx for j in iy)] = StratumData(cohomology, restrictions)

    return SncDatum(sx.dim + sy.dim, nx + sy.n_components, strata)


def a1_stability_check(s: SncDatum) -> Report:
    """Crossing with the affine line must shift the whole table by (0, +2)."""
    base = weight_cohomology_table(s)
    shifted = {(a, b + 2): g for (a, b), g in base.entries.items()}
    prod = weight_cohomology_table(product_snc(s, affine_space_snc(1)))
    details = []
    passed = dict(prod.entries) == shifted
    keys = sorted(set(shifted) | set(prod.entries))
    for key in keys:
        lhs = prod.entries.get(key, FgAbGroup.zero())
        rhs = shifted.get(key, FgAbGroup.zero())
        details.append(
            f"{'ok' if lhs == rhs else 'MISMATCH'} {key}: product = {lhs}, shifted base = {rhs}"
        )
    return Report("affine-line-stability", passed, tuple(details))


def degeneration_check(s: SncDatum, expected_hc: Mapping[int, int]) -> Report:
    """Total ranks along a + b = k must match compactly supported Betti numbers."""
    table = weight_cohomology_table(s)
    expected = {k: v for k, v in expected_hc.items() if v}
    got = {}
    for (a, b), g in table.entries.items():
        if g.free_rank:
            got[a + b] = got.get(a + b, 0) + g.free_rank
    details = []
    passed = True
    for k in sorted(set(expected) | set(got)):
        ok = expected.get(k, 0) == got.get(k, 0)
        passed = passed and ok
        details.append(
            f"{'ok' if ok else 'MISMATCH'} degree {k}: table rank {got.get(k, 0)}, "
            f"expected {expected.get(k, 0)}"
        )
    return Report("degeneration", passed, tuple(details))


def euler_check(s: SncDatum) -> Report:
    """Alternating rank sum of the table vs the strata-level Euler characteristic.

    s must be valid.  The right-hand side is computed straight from the
    stratum cohomology ranks, generators less relation columns, without
    ever forming a differential.
    """
    table_side = weight_cohomology_table(s).euler_sum()
    strata_side = 0
    for k, level in enumerate(s.levels):
        chi = 0
        for _, coh in level:
            for b, p in coh.items():
                rank = p.generators - p.relations.cols
                chi += rank if b % 2 == 0 else -rank
        strata_side += chi if k % 2 == 0 else -chi
    passed = table_side == strata_side
    return Report(
        "euler",
        passed,
        (f"table side {table_side}, strata side {strata_side}",),
    )


def tensor_table(t1: BigradedTable, t2: BigradedTable) -> BigradedTable:
    """Graded tensor of tables with Tor correction terms one column to the left."""
    acc: dict[tuple[int, int], FgAbGroup] = {}

    def add(key, group):
        if group.is_zero:
            return
        acc[key] = acc.get(key, FgAbGroup.zero()).direct_sum(group)

    for (a1, b1), g1 in t1.entries.items():
        for (a2, b2), g2 in t2.entries.items():
            add((a1 + a2, b1 + b2), g1.tensor(g2))
            add((a1 + a2 - 1, b1 + b2), g1.tor(g2))
    return BigradedTable(t1.dim + t2.dim, t1.n_components + t2.n_components, acc)
