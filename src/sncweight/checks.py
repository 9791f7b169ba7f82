"""The consistency check suites of the check command, and the product of data they build.

Each suite returns a Report on a valid datum: d2 reports the verdict
that validation reached on the blocks of each d after d, that the
program's own weight complexes are complexes, so it builds none;
nerve-identity compares row b = 0 of the weight table with the reduced
cohomology of the dual boundary complex, euler compares the table's
alternating rank sum with the strata's, and degeneration compares its
total ranks with known compactly supported Betti numbers.
affine-line-stability and product-consistency build
products of data with product_snc, which needs free stratum cohomology;
on a datum with relations they pass as not applicable.

Only check loads this module.  It takes the nerve's cohomology, and the
factors that the product suites multiply by, as functions, so that a
suite other than prop1 and all loads no dual, and one that builds no
product loads no builders.
Functions of the other modules are called through their module, so that
a wrapper set on a module attribute sees the calls made here.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from . import weight
from .abgroup import FgAbGroup, FpAbPresentation
from .intmat import IntMatrix
from .reports import Report
from .sncdata import MAX_COUNT, ProductTooLargeError, SncDatum, StratumData
from .weight import BigradedTable

__all__ = [
    "product_snc",
    "FreeTensorError",
    "a1_stability_check",
    "degeneration_check",
    "euler_check",
    "tensor_table",
    "run_checks",
]


# ---------------------------------------------------------------------------
# Products of data


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


# ---------------------------------------------------------------------------
# The suites


def a1_stability_check(s: SncDatum, line: SncDatum) -> Report:
    """Crossing with the affine line, whose datum is line, must shift the whole table by (0, +2)."""
    base = weight.weight_cohomology_table(s)
    shifted = {(a, b + 2): g for (a, b), g in base.entries.items()}
    prod = weight.weight_cohomology_table(product_snc(s, line))
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
    table = weight.weight_cohomology_table(s)
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
    table_side = weight.weight_cohomology_table(s).euler_sum()
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


def _d2_report() -> Report:
    """The verdict of validate on the weight complexes of a valid datum: they are complexes.

    validate has checked that each restriction is well defined, so each
    differential is, and has read every square off the blocks of each
    degree's d after d; run_checks takes a datum that passed it.  So d2
    passes without building a complex.  The tests decide the same facts
    again, complex by complex, with their verify_complex oracle.
    """
    return Report("d2", True)


def _nerve_identity_report(datum: SncDatum, nerve_cohomology: Callable) -> Report:
    """Reduced nerve cohomology in degree a-1 must equal the table entry (a, 0).

    Both sides are computed along independent code paths: the left from
    the simplicial faces of the nerve, the right from the signed strata
    restriction matrices.  nerve_cohomology(datum) is the left side, the
    reduced cohomology of the nerve by degree; it is called after row
    b = 0 of the table is taken, which is all of the table this suite
    reads.
    """
    row = weight.weight_cohomology_row(datum, 0)
    nerve_h = nerve_cohomology(datum)
    top = max([datum.dim + 1] + list(row) + [deg + 1 for deg in nerve_h])
    details = []
    passed = True
    zero = FgAbGroup.zero()
    for a in range(0, top + 1):
        lhs = nerve_h.get(a - 1, zero)
        rhs = row.get(a, zero)
        ok = lhs == rhs
        passed = passed and ok
        details.append(
            f"{'ok' if ok else 'MISMATCH'} a={a}: nerve H~{a - 1} = {lhs}, table ({a},0) = {rhs}"
        )
    return Report("nerve-identity", passed, tuple(details))


def _needs_free(name: str, thunk) -> Report:
    """thunk's report; a suite whose products need free cohomology passes as not applicable."""
    try:
        return thunk()
    except FreeTensorError as e:
        return Report(name, True, (f"not applicable: {e}",))


def _product_consistency(datum: SncDatum, point: SncDatum) -> Report:
    table = weight.weight_cohomology_table(datum)
    point_table = weight.weight_cohomology_table(product_snc(datum, point))
    square = weight.weight_cohomology_table(product_snc(datum, datum))
    expected_square = tensor_table(table, table)
    problems = []
    if not point_table.entries_equal(table):
        problems.append("product with a point changed the table")
    if not square.entries_equal(expected_square):
        problems.append("table of the self-product differs from the table tensor square")
    return Report("product-consistency", not problems, tuple(problems))


def run_checks(datum: SncDatum, which: str, expected_hc: Mapping[int, int] | None,
               nerve_cohomology: Callable, product_factors: Callable) -> list[Report]:
    """The reports of suite which ("all" for every suite) on a valid datum, in a fixed order.

    expected_hc gives the compactly supported Betti numbers, or None when
    none are known; degeneration is then skipped.  nerve_cohomology is
    called only by the nerve-identity suite; see _nerve_identity_report.
    product_factors() gives the data of the affine line and the point,
    and is called only by the two suites that build products.
    """
    reports = []
    if which in ("all", "d2"):
        reports.append(_d2_report())
    if which in ("all", "prop1"):
        reports.append(_nerve_identity_report(datum, nerve_cohomology))
    if which in ("all", "euler"):
        reports.append(euler_check(datum))
    if which in ("all", "stability"):
        reports.append(_needs_free("affine-line-stability",
                                   lambda: a1_stability_check(datum, product_factors()[0])))
    if which in ("all", "degeneration"):
        if expected_hc is None:
            reports.append(Report("degeneration", True,
                                  ("skipped: no expected Betti numbers available",)))
        else:
            reports.append(degeneration_check(datum, expected_hc))
    if which in ("all", "product-consistency"):
        reports.append(_needs_free("product-consistency",
                                   lambda: _product_consistency(datum, product_factors()[1])))
    return reports
