import random
import re

import pytest

import sncweight.chain as chain

from sncweight.abgroup import FgAbGroup, FpAbPresentation
from sncweight.chain import CochainComplex, cohomology
from sncweight.intmat import IntMatrix, smith_diagonal

import _support
from _support import (
    check_record,
    curve_chain_datum,
    oracle_cochain_cohomology,
    oracle_kernel_basis,
    random_presented_complex,
    random_unimodular,
    rational_rank,
    verify_complex,
)

F = FpAbPresentation.free
Z = FgAbGroup.free(1)


M = IntMatrix.from_rows


def exact_three_term():
    return CochainComplex(0, (F(1), F(2), F(1)), (M([[1], [1]]), M([[1, -1]])))


def two_term(m, degree=0):
    return CochainComplex(degree, (F(1), F(1)), (M([[m]]),))


def random_free_complex(rng, values):
    """Block sums of Z --m--> Z pieces (m from values), twisted by unimodular basis changes."""
    min_degree = rng.randint(-2, 2)
    length = rng.randint(1, 4)
    ranks = [0] * (length + 1)
    maps = [[] for _ in range(length)]  # per step, list of (row, col, value)
    for a in range(length):
        for _ in range(rng.randint(0, 2)):
            m = rng.choice(values)
            r, c = ranks[a + 1], ranks[a]
            ranks[a] += 1
            ranks[a + 1] += 1
            maps[a].append((r, c, m))
    for a in range(length + 1):
        ranks[a] += rng.randint(0, 1)
    groups = tuple(F(r) for r in ranks)
    diffs = []
    for a in range(length):
        data = [0] * (ranks[a + 1] * ranks[a])
        for r, c, m in maps[a]:
            data[r * ranks[a] + c] = m
        diffs.append(IntMatrix(ranks[a + 1], ranks[a], data))
    c = CochainComplex(min_degree, groups, tuple(diffs))
    # Twist each degree by a unimodular change of basis; cohomology is unchanged
    # and d squared stays zero.
    twists = [random_unimodular(rng, r) for r in ranks]
    twisted = []
    for a in range(length):
        u_next, _ = twists[a + 1]
        _, u_inv = twists[a]
        twisted.append(u_next * diffs[a] * u_inv)
    return CochainComplex(min_degree, groups, tuple(twisted))


def test_verify_complex():
    assert verify_complex(CochainComplex(5, (F(3),), ())).passed
    assert verify_complex(exact_three_term()).passed
    one = M([[1]])
    rep = verify_complex(CochainComplex(0, (F(1), F(1), F(1)), (one, one)))
    assert not rep.passed
    assert rep.details == ("degree 0: d after d is nonzero",)


def test_cohomology_examples():
    single = CochainComplex(3, (F(1),), ())
    assert cohomology(single) == {3: Z}
    c = CochainComplex(0, (F(1), F(2)), (M([[1], [1]]),))
    assert cohomology(c) == {1: Z}
    assert cohomology(two_term(2)) == {1: FgAbGroup(0, (2,))}
    assert cohomology(exact_three_term()) == {}
    # With relations the presented path runs: Z/4 --2--> Z/4 has H^0 = H^1 = Z/2.
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    c = CochainComplex(0, (z4, z4), (M([[2]]),))
    assert cohomology(c) == {0: FgAbGroup(0, (2,)), 1: FgAbGroup(0, (2,))}


def with_extra_generators(c, rng):
    """c with each group Z^n presented as Z^(n+1) modulo one column (v, 1).

    The extra generator equals -v, so (x, t) -> x - t v is an isomorphism
    onto Z^n, and each differential is d on it, written into the first
    coordinates of the next group.  The new complex has the same
    cohomology, and every degree now carries a relation.
    """
    groups, maps = [], []
    for g in c.groups:
        n = g.generators
        v = [rng.randint(-2, 2) for _ in range(n)]
        groups.append(FpAbPresentation.from_relation_columns(n + 1, [v + [1]]))
        maps.append(IntMatrix.from_rows([[int(i == j) for j in range(n)] + [-v[i]]
                                         for i in range(n)], n + 1))
    diffs = tuple(IntMatrix.from_blocks(d.rows + 1, d.cols + 1, ((0, 0, d * maps[a], 1, True, 1),))
                  for a, d in enumerate(c.differentials))
    return CochainComplex(c.min_degree, tuple(groups), diffs)


def test_free_cohomology_agrees_with_oracle_and_presented_path():
    # Both sides of the nerve identity read a free complex as its own total
    # complex, so it is checked here against the oracle and against the
    # same complex presented with one relation in every degree.
    rng = random.Random(20240902)
    seen_torsion = set()
    for _ in range(120):
        c = random_free_complex(rng, (0, 1, -1, 2, -2, 4, 6))
        got = cohomology(c)
        dims = [g.generators for g in c.groups]
        deltas = [d.to_rows() for d in c.differentials]
        expected = oracle_cochain_cohomology(dims, deltas)
        assert {a - c.min_degree: (g.free_rank, g.torsion) for a, g in got.items()} == expected
        presented = with_extra_generators(c, rng)
        assert verify_complex(presented).passed
        assert cohomology(presented) == got
        for g in got.values():
            seen_torsion.update(g.torsion)
    assert {2, 4, 6} <= seen_torsion


def random_clearing_complex(rng):
    """A free complex Z^n0 --d0--> Z^n1 --d1--> Z^n2 with d1 * d0 = 0.

    d0 = A * B through an inner dimension at most min(n0, n1), so it is
    often rank-deficient.  A's entries are mostly 2, 3 and -2, so the unit
    phase on d0 often leaves a core whose Euclid steps make units again.
    The rows of d1 are random combinations of a basis of the left kernel
    of d0, which the oracle finds by Bezout column moves.
    """
    n0, n1 = rng.randint(1, 6), rng.randint(2, 8)
    inner = rng.randint(1, min(n0, n1))
    a = M([[rng.choice((0, 0, 2, 3, -2, 1)) for _ in range(inner)] for _ in range(n1)])
    b = M([[rng.choice((0, 1, -1, 2)) for _ in range(n0)] for _ in range(inner)])
    d0 = a * b
    basis = oracle_kernel_basis([list(col) for col in zip(*d0.to_rows())], n1)
    d1 = IntMatrix.from_rows([[sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(n1)]
                              for coeffs in ([rng.choice((0, 1, -1, 2, 3)) for _ in basis]
                                             for _ in range(rng.randint(1, 6)))], n1)
    return CochainComplex(0, (F(n0), F(n1), F(d1.rows)), (d0, d1))


def test_cleared_columns_agree_with_bezout_oracle():
    # Each total differential skips the columns at the rows that the one
    # before it cleared in its unit phase before its first Euclid step.
    # Here a deferred column of d0 often regains a unit in the core phase:
    # that unit pivot is not covered by the clearing rule and is not passed
    # on.  Each complex is also checked presented with a relation in every
    # degree, whose total differentials carry the relations.
    import sys

    from sncweight import intmat

    late_units = []

    def on_return(frame, event, arg):
        # units counts every unit pivot, cleared only those before the core.
        if event == "return" and frame.f_code is intmat.smith_diagonal.__code__:
            late_units.append(frame.f_locals["units"] - len(frame.f_locals["cleared"]))

    rng = random.Random(20261020)
    late = deficient = 0
    for _ in range(300):
        c = random_clearing_complex(rng)
        late_units.clear()
        sys.setprofile(on_return)
        try:
            got = cohomology(c)
        finally:
            sys.setprofile(None)
        late += any(late_units)
        dims = [g.generators for g in c.groups]
        deltas = [d.to_rows() for d in c.differentials]
        deficient += rational_rank(deltas[0]) < min(dims[:2])
        assert {a: (g.free_rank, g.torsion) for a, g in got.items()} == \
            oracle_cochain_cohomology(dims, deltas)
        presented = with_extra_generators(c, rng)
        assert cohomology(presented) == got
    assert late > 100 and deficient > 100, (late, deficient)


def test_presented_cohomology_agrees_with_closed_forms():
    # The total-complex rule against the per-piece closed forms.  The
    # corpus has dependent relation columns, and composites that vanish
    # only modulo relations, which the correction block g of each total
    # differential accounts for.
    rng = random.Random(20261018)
    seen_torsion = set()
    relations_next = dependent = nonzero_composite = 0
    for _ in range(400):
        c, expected, drawn = random_presented_complex(rng)
        assert cohomology(c) == expected
        relations_next += sum(not g.is_relation_free for g in c.groups[1:])
        # Each group stores an injective basis; the matrices it was drawn
        # from are the ones with dependent columns.
        assert all(len(smith_diagonal(g.relations)[0]) == g.relations.cols for g in c.groups)
        dependent += sum(len(smith_diagonal(r)[0]) < r.cols for r in drawn)
        nonzero_composite += sum(not (e * d).is_zero
                                 for d, e in zip(c.differentials, c.differentials[1:]))
        for g in expected.values():
            seen_torsion.update(g.torsion)
    assert {2, 3, 4, 6} <= seen_torsion
    assert relations_next > 100 and dependent > 100 and nonzero_composite > 50


def test_cohomology_checks_each_hom_once(monkeypatch):
    # verify_complex makes one span test per relation-carrying source, in
    # is_well_defined, and one per consecutive composite; cohomology makes
    # none.  Seed 3 gives 331 differentials, 194 of them out of a
    # relation-carrying group, 169 composites and 224 relation-carrying
    # groups past the first degree over 200 complexes.
    import sncweight.abgroup as abgroup

    calls = []
    real = abgroup.in_span

    def counted(m, group):
        calls.append(m.shape)
        return real(m, group)

    monkeypatch.setattr(_support, "in_span", counted)
    monkeypatch.setattr(abgroup, "in_span", counted)
    rng = random.Random(3)
    differentials = sources = composites = relations_next = 0
    for _ in range(200):
        c, expected, _ = random_presented_complex(rng)
        assert verify_complex(c).passed
        before = len(calls)
        assert cohomology(c) == expected
        assert len(calls) == before
        differentials += len(c.differentials)
        sources += sum(not g.is_relation_free for g in c.groups[:-1])
        composites += max(len(c.differentials) - 1, 0)
        relations_next += sum(not g.is_relation_free for g in c.groups[1:])
    assert (differentials, sources, composites, relations_next) == (331, 194, 169, 224)
    assert len(calls) == 194 + 169


def test_record_semantics():
    check_record(CochainComplex, ("min_degree", "groups", "differentials"),
                 (0, (F(1), F(1)), (M([[2]]),)),
                 (0, (F(1), F(1)), (M([[2]]),)),
                 (1, (F(1), F(1)), (M([[2]]),)))
    assert two_term(2) == two_term(2) != two_term(3)
    with pytest.raises(ValueError, match="differential 0 does not match adjacent groups"):
        CochainComplex(0, (F(1), F(2)), (M([[1]]),))
    with pytest.raises(ValueError, match="differential 1 does not match adjacent groups"):
        CochainComplex(0, (F(1), F(2), F(1)), (M([[1], [1]]), M([[1, -1], [0, 0]])))


def test_each_matrix_is_reduced_once(monkeypatch):
    # On a datum shaped like a chain of curves whose H^1 carry relations,
    # every total differential is reduced once, its diagonal serving both
    # its own degree and the next: a complex of k groups has the k + 1
    # total differentials D_(first-1) .. D_last.  D_(first-1) skips no
    # column, and each later D skips exactly the rows that the one before
    # it cleared.
    from sncweight import intmat, weight
    from sncweight.weight import weight_cohomology_table

    reduced, complexes = [], []
    real_diagonal, real_cohomology = chain.smith_diagonal, chain.cohomology

    def recording(a, skip=frozenset()):
        result = real_diagonal(a, skip)
        reduced.append((a, skip, result[1]))
        return result

    def counting(c):
        complexes.append((c, len(reduced)))
        return real_cohomology(c)

    monkeypatch.setattr(chain, "smith_diagonal", recording)
    monkeypatch.setattr(weight, "cohomology", counting)
    datum = curve_chain_datum(random.Random(5), 30, 6, 12)
    table = weight_cohomology_table(datum)
    assert complexes and len(reduced) == sum(len(c.groups) + 1 for c, _ in complexes)
    skipped = 0
    for c, first in complexes:
        runs = reduced[first:first + len(c.groups) + 1]
        assert runs[0][1] == frozenset()
        for (_, _, cleared), (_, skip, _) in zip(runs, runs[1:]):
            assert skip == cleared
            skipped += len(skip)
    assert skipped
    assert table.entry(1, 1) == FgAbGroup.free(108)
    # D_0 = [d_0 | relations] is 180 x 72, and leaves a far smaller
    # unit-free core: with no budget, the core's refusal gives its shape.
    largest, skip, _ = max(reduced, key=lambda r: r[0].rows * r[0].cols)
    assert largest.shape == (180, 72)
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 0)
    with pytest.raises(intmat.DenseWorkTooLargeError) as refused:
        real_diagonal(largest, skip)
    rows, cols = map(int, re.match(r"a (\d+)x(\d+) ", str(refused.value)).groups())
    assert 0 < rows * cols < 180 * 72 // 2
