import random

import pytest

from sncweight.abgroup import FgAbGroup, FpAbHom, FpAbPresentation, subquotient_cohomology
from sncweight.chain import (
    CochainComplex,
    ComplexMap,
    FreeTensorError,
    InvalidComplexError,
    cohomology,
    cone,
    shift,
    tensor_complex,
    verify_complex,
)
from sncweight.intmat import IntMatrix

from _support import oracle_cochain_cohomology, random_unimodular

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


def random_free_complex(rng, min_degree=None, values=(0, 1, 2, 3, -2)):
    """Block sums of Z --m--> Z pieces (m from values), twisted by unimodular basis changes."""
    if min_degree is None:
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
        u_next = twists[a + 1]
        u_inv = _unimodular_inverse(twists[a])
        twisted.append(FpAbHom(groups[a], groups[a + 1], u_next * diffs[a].matrix * u_inv))
    return CochainComplex(min_degree, groups, tuple(twisted))


def _unimodular_inverse(u):
    from sncweight.intmat import solve_matrix

    inv = solve_matrix(u, IntMatrix.identity(u.rows))
    assert inv is not None
    return inv


def test_verify_complex():
    assert verify_complex(CochainComplex.concentrated(F(3), 5)).passed
    assert verify_complex(exact_three_term()).passed
    bad = CochainComplex(
        0, (F(1), F(1), F(1)),
        (FpAbHom.identity(F(1)), FpAbHom.identity(F(1))),
    )
    rep = verify_complex(bad)
    assert not rep.passed
    assert "degree 0" in rep.details[0]


def test_cohomology_examples():
    single = CochainComplex.concentrated(F(1), 3)
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
        c = random_free_complex(rng, values=(0, 1, -1, 2, -2, 4, 6))
        got = cohomology(c)
        dims = [g.generators for g in c.groups]
        deltas = [d.matrix.to_rows() for d in c.differentials]
        expected = oracle_cochain_cohomology(dims, deltas)
        assert {a - c.min_degree: (g.free_rank, g.torsion) for a, g in got.items()} == expected
        presented = {a: subquotient_cohomology(c.differential_at(a - 1), c.differential_at(a))
                     for a in c.degrees}
        assert got == {a: h for a, h in presented.items() if not h.is_zero}
        for g in got.values():
            seen_torsion.update(g.torsion)
    assert {2, 4, 6} <= seen_torsion


def test_cohomology_rejects_bad_complex():
    bad = CochainComplex(
        0, (F(1), F(1), F(1)),
        (FpAbHom.identity(F(1)), FpAbHom.identity(F(1))),
    )
    with pytest.raises(InvalidComplexError):
        cohomology(bad)


def test_shift_examples():
    single = CochainComplex.concentrated(F(1), 0)
    assert list(shift(single, -1).degrees) == [1]
    assert shift(single, 0) == single
    c = exact_three_term()
    assert shift(shift(c, 2), 3) == shift(c, 5)
    assert shift(shift(c, 1), -1) == c


def test_shift_translates_cohomology():
    rng = random.Random(41)
    for _ in range(25):
        c = random_free_complex(rng)
        s = rng.randint(-3, 3)
        base = cohomology(c)
        assert cohomology(shift(c, s)) == {a - s: g for a, g in base.items()}


def test_tensor_unit_and_square():
    c = exact_three_term()
    unit = CochainComplex.concentrated(F(1), 0)
    assert cohomology(tensor_complex(unit, c)) == cohomology(c)
    assert cohomology(tensor_complex(c, unit)) == cohomology(c)
    sq = tensor_complex(two_term(0), two_term(0))
    assert cohomology(sq) == {0: Z, 1: FgAbGroup.free(2), 2: Z}
    assert verify_complex(sq).passed


def test_tensor_with_acyclic_and_shifted_unit():
    # The two-term identity complex is acyclic; tensoring kills cohomology.
    # A single Z in degree 0 is the unit; shifting it shifts the result.
    rng = random.Random(43)
    for _ in range(10):
        c = random_free_complex(rng)
        assert cohomology(tensor_complex(c, two_term(1))) == {}
        moved = tensor_complex(c, CochainComplex.concentrated(F(1), 2))
        assert cohomology(moved) == {a + 2: g for a, g in cohomology(c).items()}


def test_tensor_rejects_torsion():
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    with pytest.raises(FreeTensorError) as err:
        tensor_complex(CochainComplex.concentrated(z2, 4), two_term(0))
    assert "degree 4" in str(err.value)


def test_tensor_kunneth_randomized():
    rng = random.Random(47)
    for _ in range(20):
        c = random_free_complex(rng)
        d = random_free_complex(rng)
        hc, hd = cohomology(c), cohomology(d)
        expected: dict[int, FgAbGroup] = {}

        def add(deg, g):
            if not g.is_zero:
                expected[deg] = expected.get(deg, FgAbGroup.zero()).direct_sum(g)

        for p, gp in hc.items():
            for q, gq in hd.items():
                add(p + q, gp.tensor(gq))
                add(p + q - 1, gp.tor(gq))
        assert cohomology(tensor_complex(c, d)) == expected


def test_tensor_associative_ranks():
    rng = random.Random(53)
    for _ in range(10):
        a = random_free_complex(rng)
        b = random_free_complex(rng)
        c = random_free_complex(rng)
        left = tensor_complex(tensor_complex(a, b), c)
        right = tensor_complex(a, tensor_complex(b, c))
        assert [left.group_at(n).generators for n in left.degrees] == [
            right.group_at(n).generators for n in right.degrees
        ]
        assert cohomology(left) == cohomology(right)


def test_cone_examples():
    c = exact_three_term()
    identity = ComplexMap(c, c, {a: FpAbHom.identity(c.group_at(a)) for a in c.degrees})
    assert cohomology(cone(identity)) == {}
    to_zero = ComplexMap(c, CochainComplex.zero(), {})
    assert cone(to_zero) == shift(c, 1)
    single = CochainComplex.concentrated(F(1), 0)
    doubling = ComplexMap(single, single, {0: hom(F(1), F(1), [[2]])})
    assert cohomology(cone(doubling)) == {0: FgAbGroup(0, (2,))}


def test_cone_rejects_noncommuting():
    c = two_term(0)
    d = two_term(1)
    f = ComplexMap(c, d, {0: FpAbHom.identity(F(1)), 1: FpAbHom.zero(F(1), F(1))})
    from sncweight.chain import NonCommutingMapError

    with pytest.raises(NonCommutingMapError):
        cone(f)


def test_cone_euler_bookkeeping():
    # Over the rationals, ranks in the cone long exact sequence balance out:
    # euler(cone) = euler(target) - euler(source).
    rng = random.Random(59)

    def euler(h):
        return sum(g.free_rank if a % 2 == 0 else -g.free_rank for a, g in h.items())

    for _ in range(15):
        c = random_free_complex(rng)
        m = rng.choice([0, 1, 2, 3])
        f = ComplexMap(c, c, {a: hom(c.group_at(a), c.group_at(a),
                                     (IntMatrix.identity(c.group_at(a).generators).scale(m)).to_rows())
                              for a in c.degrees})
        assert euler(cohomology(cone(f))) == euler(cohomology(c)) - euler(cohomology(c))
