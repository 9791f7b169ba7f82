import random

import pytest

from sncweight.abgroup import FgAbGroup, FpAbHom, FpAbPresentation, subquotient_cohomology
from sncweight.chain import CochainComplex, cohomology, verify_complex
from sncweight.intmat import IntMatrix

from _support import (
    check_record,
    curve_chain_datum,
    oracle_cochain_cohomology,
    random_presented_complex,
    random_unimodular,
)

F = FpAbPresentation.free
Z = FgAbGroup.free(1)


def hom(src, tgt, rows):
    return FpAbHom(src, tgt, IntMatrix.from_rows(rows, src.generators))


def exact_three_term():
    d0 = hom(F(1), F(2), [[1], [1]])
    d1 = hom(F(2), F(1), [[1, -1]])
    return CochainComplex(0, (F(1), F(2), F(1)), (d0, d1))


def two_term(m, degree=0):
    return CochainComplex(degree, (F(1), F(1)), (hom(F(1), F(1), [[m]]),))


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
        diffs.append(FpAbHom(groups[a], groups[a + 1], IntMatrix(ranks[a + 1], ranks[a], data)))
    c = CochainComplex(min_degree, groups, tuple(diffs))
    # Twist each degree by a unimodular change of basis; cohomology is unchanged
    # and d squared stays zero.
    twists = [random_unimodular(rng, r) for r in ranks]
    twisted = []
    for a in range(length):
        u_next, _ = twists[a + 1]
        _, u_inv = twists[a]
        twisted.append(FpAbHom(groups[a], groups[a + 1], u_next * diffs[a].matrix * u_inv))
    return CochainComplex(min_degree, groups, tuple(twisted))


def test_verify_complex():
    assert verify_complex(CochainComplex(5, (F(3),), ())).passed
    assert verify_complex(exact_three_term()).passed
    one = hom(F(1), F(1), [[1]])
    rep = verify_complex(CochainComplex(0, (F(1), F(1), F(1)), (one, one)))
    assert not rep.passed
    assert rep.details == ("degree 0: d after d is nonzero",)


def test_cohomology_examples():
    single = CochainComplex(3, (F(1),), ())
    assert cohomology(single) == {3: Z}
    c = CochainComplex(0, (F(1), F(2)), (hom(F(1), F(2), [[1], [1]]),))
    assert cohomology(c) == {1: Z}
    assert cohomology(two_term(2)) == {1: FgAbGroup(0, (2,))}
    assert cohomology(exact_three_term()) == {}
    # With relations the presented path runs: Z/4 --2--> Z/4 has H^0 = H^1 = Z/2.
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    c = CochainComplex(0, (z4, z4), (FpAbHom(z4, z4, IntMatrix.from_rows([[2]])),))
    assert cohomology(c) == {0: FgAbGroup(0, (2,)), 1: FgAbGroup(0, (2,))}


def test_free_cohomology_agrees_with_oracle_and_presented_path():
    # Both sides of the nerve identity use the Smith-diagonal path, so it is
    # checked here against the oracle and against subquotient_cohomology.
    rng = random.Random(20240902)
    seen_torsion = set()
    for _ in range(120):
        c = random_free_complex(rng, (0, 1, -1, 2, -2, 4, 6))
        got = cohomology(c)
        dims = [g.generators for g in c.groups]
        deltas = [d.matrix.to_rows() for d in c.differentials]
        expected = oracle_cochain_cohomology(dims, deltas)
        assert {a - c.min_degree: (g.free_rank, g.torsion) for a, g in got.items()} == expected
        presented = {a: subquotient_cohomology(c.differential_at(a - 1), c.differential_at(a))[0]
                     for a in c.degrees}
        assert got == {a: h for a, h in presented.items() if not h.is_zero}
        for g in got.values():
            seen_torsion.update(g.torsion)
    assert {2, 4, 6} <= seen_torsion


def test_presented_cohomology_agrees_with_closed_forms():
    # Both rules of cohomology against the per-piece closed forms, and per
    # degree against the kernel route of subquotient_cohomology alone.
    rng = random.Random(20261018)
    seen_torsion = set()
    diagonal_rule_with_relations = kernel_route = 0
    for _ in range(400):
        c, expected = random_presented_complex(rng)
        got = cohomology(c)
        assert got == expected
        presented = {a: subquotient_cohomology(c.differential_at(a - 1), c.differential_at(a))[0]
                     for a in c.degrees}
        assert got == {a: h for a, h in presented.items() if not h.is_zero}
        for g, after in zip(c.groups, c.groups[1:] + (F(0),)):
            if after.is_relation_free:
                diagonal_rule_with_relations += not g.is_relation_free
            else:
                kernel_route += 1
        for g in got.values():
            seen_torsion.update(g.torsion)
    assert {2, 3, 4, 6} <= seen_torsion
    assert diagonal_rule_with_relations > 100 and kernel_route > 100


def test_cohomology_checks_each_hom_once(monkeypatch):
    # verify_complex checks every differential and every consecutive
    # composite once; cohomology checks neither again, and neither does
    # the kernel route of subquotient_cohomology.  Seed 3 gives 304
    # differentials, 153 composites and 218 kernel-route degrees over 200
    # complexes.
    calls = {"is_well_defined": 0, "is_zero_hom": 0}
    for name in calls:
        method = getattr(FpAbHom, name)

        def counted(self, method=method, name=name):
            calls[name] += 1
            return method(self)

        monkeypatch.setattr(FpAbHom, name, counted)
    rng = random.Random(3)
    differentials = composites = kernel_route = 0
    for _ in range(200):
        c, expected = random_presented_complex(rng)
        assert verify_complex(c).passed
        before = dict(calls)
        assert cohomology(c) == expected
        assert calls == before
        differentials += len(c.differentials)
        composites += max(len(c.differentials) - 1, 0)
        kernel_route += sum(not g.is_relation_free for g in c.groups[1:])
    assert (differentials, composites, kernel_route) == (304, 153, 218)
    assert calls == {"is_well_defined": 304, "is_zero_hom": 153}


def test_record_semantics():
    check_record(CochainComplex, ("min_degree", "groups", "differentials"),
                 (0, (F(1), F(1)), (hom(F(1), F(1), [[2]]),)),
                 (0, (F(1), F(1)), (hom(F(1), F(1), [[2]]),)),
                 (1, (F(1), F(1)), (hom(F(1), F(1), [[2]]),)))
    assert two_term(2) == two_term(2) != two_term(3)
    with pytest.raises(ValueError, match="differential 0 does not match adjacent groups"):
        CochainComplex(0, (F(1), F(2)), (hom(F(1), F(1), [[1]]),))


def test_each_matrix_is_reduced_once(monkeypatch):
    # On a datum shaped like a chain of curves whose H^1 carry relations,
    # the kernel route's matrix [d_0 | relations] gives its Smith diagonal
    # with its kernel, and the next degree reads that diagonal as its B
    # instead of reducing the matrix again.  Only unit-free cores reach
    # the dense reduction, and the column transform is only ever taken on
    # a core.
    from sncweight import intmat
    from sncweight.weight import weight_cohomology_table

    reduced, with_v = [], 0
    real = intmat._snf_reduce

    def recording(a, want_v=False):
        nonlocal with_v
        assert not any(e in (1, -1) for _, _, e in a.nonzeros()), a.shape
        reduced.append(a)
        with_v += want_v
        return real(a, want_v)

    monkeypatch.setattr(intmat, "_snf_reduce", recording)
    datum = curve_chain_datum(random.Random(5), 30, 6, 12)
    table = weight_cohomology_table(datum)
    assert len(reduced) == len(set(reduced)) and with_v > 0
    # The 180 x 72 matrix of the kernel route leaves a far smaller core.
    assert max(a.rows * a.cols for a in reduced) < 180 * 72 // 2
    assert table.entry(1, 1) == FgAbGroup.free(108)
