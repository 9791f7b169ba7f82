import random

import pytest

from sncweight.abgroup import (
    FgAbGroup,
    FpAbHom,
    FpAbPresentation,
    canonical_form,
    subquotient_cohomology,
)
from sncweight.chain import CochainComplex, verify_complex
from sncweight.intmat import IntMatrix

from _support import (
    check_record,
    oracle_canonical_form,
    oracle_kernel_basis,
    oracle_subquotient,
    random_presentation,
    random_unimodular,
    rational_rank,
)

F = FpAbPresentation.free
Z = FgAbGroup.free(1)


def hom(src, tgt, rows):
    return FpAbHom(src, tgt, IntMatrix.from_rows(rows, src.generators))


def kernel_of(f):
    """ker f, as the cohomology of 0 -> source -> target."""
    return subquotient_cohomology(FpAbHom.zero(F(0), f.source), f)[0]


def cokernel_of(f):
    """coker f, as the cohomology of source -> target -> 0."""
    return subquotient_cohomology(f, FpAbHom.zero(f.target, F(0)))[0]


def test_fgabgroup_validation():
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 6))
    with pytest.raises(ValueError):
        FgAbGroup(-1, ())
    assert FgAbGroup(0, (2, 4)).torsion == (2, 4)


def test_fgabgroup_from_cyclic_orders():
    assert FgAbGroup.from_cyclic_orders([2, 3]) == FgAbGroup(0, (6,))
    assert FgAbGroup.from_cyclic_orders([4, 6]) == FgAbGroup(0, (2, 12))
    assert FgAbGroup.from_cyclic_orders([1, 1]) == FgAbGroup.zero()
    assert FgAbGroup.from_cyclic_orders([12, 60]) == FgAbGroup(0, (12, 60))


def test_fgabgroup_str():
    assert str(FgAbGroup.zero()) == "0"
    assert str(Z) == "Z"
    assert str(FgAbGroup(0, (2,))) == "Z/2"
    assert str(FgAbGroup(3, (2, 2))) == "Z^3 x Z/2 x Z/2"


def test_canonical_form_examples():
    assert canonical_form(FpAbPresentation.from_relation_columns(1, [[2]])) == FgAbGroup(0, (2,))
    assert canonical_form(F(2)) == FgAbGroup.free(2)
    p = FpAbPresentation.from_relation_columns(2, [[2, 0], [0, 4]])
    assert canonical_form(p) == FgAbGroup(0, (2, 4))


def test_canonical_form_unimodular_invariance():
    rng = random.Random(5)
    for _ in range(60):
        p = random_presentation(rng)
        base = canonical_form(p)
        u, _ = random_unimodular(rng, p.generators)
        v, _ = random_unimodular(rng, p.relations.cols)
        # Changing the generator basis or recombining relations is harmless.
        assert canonical_form(FpAbPresentation(p.generators, u * p.relations)) == base
        assert canonical_form(FpAbPresentation(p.generators, p.relations * v)) == base


def test_canonical_form_matches_oracle():
    rng = random.Random(17)
    for _ in range(150):
        p = random_presentation(rng, max_gens=5, max_rels=5, bound=8)
        free, torsion = oracle_canonical_form(p.generators, p.relations.to_rows())
        assert canonical_form(p) == FgAbGroup(free, torsion)


def _block(rng, rows, cols):
    return IntMatrix(rows, cols, [rng.randint(-3, 3) for _ in range(rows * cols)])


def test_span_membership_matches_oracle():
    # The lattice S = u * diag(d) * w misses u * e_i whenever d_i is not 1, so
    # every case below has a known answer; the oracle compares the Bezout
    # invariant factors of S and of S with the candidate columns appended.
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        diag = [rng.choice((0, 1, 2, 3, 4, 6)) for _ in range(n)]
        u, _ = random_unimodular(rng, n)
        lattice = u * IntMatrix.from_entries(n, n, ((i, i, e) for i, e in enumerate(diag)))
        lattice = lattice * random_unimodular(rng, n)[0]
        lattice = lattice.hstack(lattice * _block(rng, n, rng.randint(0, 2)))
        inside = lattice * _block(rng, lattice.cols, rng.randint(1, 3))
        cases = [(inside, True)]
        missed = [i for i, e in enumerate(diag) if e != 1]
        if missed:
            e_i = IntMatrix.from_entries(n, 1, [(rng.choice(missed), 0, 1)])
            cases.append((inside.hstack(u * e_i - lattice * _block(rng, lattice.cols, 1)), False))
        cases.append((_block(rng, n, rng.randint(1, 2)), None))
        for m, member in cases:
            oracle = (oracle_canonical_form(n, lattice.to_rows())
                      == oracle_canonical_form(n, lattice.hstack(m).to_rows()))
            assert member in (None, oracle)
            target = FpAbPresentation(n, lattice)
            assert FpAbHom(F(m.cols), target, m).is_zero_hom() == oracle
            assert FpAbHom(FpAbPresentation(n, m), target, IntMatrix.identity(n)).is_well_defined() \
                == oracle
            seen.add(oracle)
    assert seen == {True, False}


def test_kernel_image_cokernel_examples():
    times2 = hom(F(1), F(1), [[2]])
    assert kernel_of(times2).is_zero
    assert cokernel_of(times2) == FgAbGroup(0, (2,))

    diagonal = hom(F(1), F(2), [[1], [1]])
    assert cokernel_of(diagonal) == Z
    assert kernel_of(diagonal).is_zero

    zero = FpAbHom.zero(F(1), F(1))
    assert kernel_of(zero) == Z
    assert cokernel_of(zero) == Z


def test_kernel_with_torsion_target():
    # Z -> Z/4 by 1: kernel is 4Z, and the map is onto.
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    f = hom(F(1), z4, [[1]])
    assert kernel_of(f) == Z
    assert cokernel_of(f).is_zero
    # Z -> Z/4 by 2: the image is 2Z/4Z = Z/2, so the cokernel is Z/2.
    g = hom(F(1), z4, [[2]])
    assert kernel_of(g) == Z
    assert cokernel_of(g) == FgAbGroup(0, (2,))


def test_ill_defined_hom_rejected():
    # subquotient_cohomology takes well-definedness as a precondition;
    # verify_complex rejects the complexes behind kernel_of and cokernel_of.
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    f = hom(z2, F(1), [[1]])  # Z/2 -> Z by 1 is not a homomorphism
    assert not f.is_well_defined()
    for degree, maps in ((1, (FpAbHom.zero(F(0), f.source), f)),
                         (0, (f, FpAbHom.zero(f.target, F(0))))):
        groups = (maps[0].source, maps[0].target, maps[1].target)
        rep = verify_complex(CochainComplex(0, groups, maps))
        assert not rep.passed
        assert rep.details == (f"degree {degree}: differential is not well defined",)


def test_rank_nullity_randomized():
    rng = random.Random(23)
    for _ in range(80):
        src = random_presentation(rng, max_gens=4, max_rels=3)
        tgt = random_presentation(rng, max_gens=4, max_rels=3)
        m = IntMatrix(
            tgt.generators, src.generators,
            [rng.randint(-3, 3) for _ in range(tgt.generators * src.generators)],
        )
        # Make the map well defined by absorbing the moved relations into the target.
        tgt_fixed = FpAbPresentation(tgt.generators, tgt.relations.hstack(m * src.relations))
        f = FpAbHom(src, tgt_fixed, m)
        assert f.is_well_defined()
        # The rank of the image is rank tgt - rank coker.
        r_src = canonical_form(src).free_rank
        r_tgt = canonical_form(tgt_fixed).free_rank
        assert r_src == kernel_of(f).free_rank + r_tgt - cokernel_of(f).free_rank


def test_subquotient_examples():
    d_in = hom(F(1), F(2), [[1], [1]])
    d_out = hom(F(2), F(1), [[1, -1]])
    # The second value is the Smith diagonal of [d_out | target relations].
    h, diagonal = subquotient_cohomology(d_in, d_out)
    assert h.is_zero and diagonal == (1,)
    assert subquotient_cohomology(
        hom(F(1), F(1), [[2]]), FpAbHom.zero(F(1), F(0))
    ) == (FgAbGroup(0, (2,)), ())
    assert subquotient_cohomology(
        FpAbHom.zero(F(0), F(2)), FpAbHom.zero(F(2), F(0))
    ) == (FgAbGroup.free(2), ())


def test_subquotient_rejects_nonzero_composition():
    # A zero composite is a precondition of subquotient_cohomology, which
    # verify_complex tests; the middle groups it still checks itself.
    one = hom(F(1), F(1), [[1]])
    rep = verify_complex(CochainComplex(0, (F(1), F(1), F(1)), (one, one)))
    assert rep.details == ("degree 0: d after d is nonzero",)
    with pytest.raises(ValueError):
        subquotient_cohomology(hom(F(1), F(2), [[1], [0]]), hom(F(1), F(1), [[0]]))


def test_tensor_tor_examples():
    z5 = FgAbGroup(0, (5,))
    assert FgAbGroup.free(2).tensor(z5) == FgAbGroup(0, (5, 5))
    assert FgAbGroup(0, (2,)).tensor(FgAbGroup(0, (3,))).is_zero
    assert FgAbGroup(0, (4,)).tor(FgAbGroup(0, (6,))) == FgAbGroup(0, (2,))
    assert Z.tor(z5).is_zero
    assert Z.tensor(Z) == Z


def test_tensor_tor_properties():
    rng = random.Random(31)

    def random_group():
        return FgAbGroup.from_cyclic_orders(
            [rng.randint(2, 9) for _ in range(rng.randint(0, 3))], rng.randint(0, 2)
        )

    for _ in range(60):
        g, h, k = random_group(), random_group(), random_group()
        assert g.tensor(h) == h.tensor(g)
        assert g.tor(h) == h.tor(g)
        assert g.tensor(h.direct_sum(k)) == g.tensor(h).direct_sum(g.tensor(k))
        assert g.tor(h.direct_sum(k)) == g.tor(h).direct_sum(g.tor(k))


def test_direct_sum_presentations_and_homs():
    p = FpAbPresentation.from_relation_columns(1, [[2]])
    q = F(1)
    s = FpAbPresentation.direct_sum([p, q])
    assert canonical_form(s) == FgAbGroup(1, (2,))
    # The identity on Z/2 plus zero on Z, as one block-diagonal map.
    f = hom(s, s, [[1, 0], [0, 0]])
    assert f.is_well_defined()
    assert kernel_of(f) == Z and cokernel_of(f) == Z


def test_homs_with_torsion_source():
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    f = hom(z4, z4, [[2]])
    assert f.is_well_defined()
    assert kernel_of(f) == FgAbGroup(0, (2,))
    assert cokernel_of(f) == FgAbGroup(0, (2,))


def test_subquotient_with_torsion_middle():
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    doubling = hom(z4, z4, [[2]])
    assert subquotient_cohomology(doubling, doubling) == (FgAbGroup.zero(), (2,))
    # Zero maps leave the whole middle group.
    z = FpAbHom.zero(z4, z4)
    assert subquotient_cohomology(z, z) == (FgAbGroup(0, (4,)), (4,))


def test_record_semantics():
    check_record(FgAbGroup, ("free_rank", "torsion"), (1, (2, 4)), (1, (2, 4)), (1, (4,)))
    assert FgAbGroup() == FgAbGroup.zero() == FgAbGroup(torsion=())
    assert repr(FgAbGroup(1, (2,))) == "FgAbGroup(free_rank=1, torsion=(2,))"
    three = IntMatrix.from_rows([[3]])
    check_record(FpAbPresentation, ("generators", "relations"),
                 (1, IntMatrix.from_rows([[2]])), (1, IntMatrix.from_rows([[2]])), (1, three))
    assert FpAbPresentation(generators=2, relations=IntMatrix.zeros(2, 0)) == F(2)
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    check_record(FpAbHom, ("source", "target", "matrix"),
                 (F(1), z2, IntMatrix.from_rows([[1]])),
                 (F(1), FpAbPresentation.from_relation_columns(1, [[2]]), IntMatrix.identity(1)),
                 (F(1), z2, three))
    assert FpAbHom(F(1), z2, three) != FpAbHom(F(1), F(1), three)


def test_records_validate_on_construction():
    with pytest.raises(ValueError, match="relation matrix has 1 rows for 2 generators"):
        FpAbPresentation(2, IntMatrix.zeros(1, 0))
    with pytest.raises(ValueError, match=r"hom matrix shape \(1, 1\) does not match 2x1"):
        FpAbHom(F(1), F(2), IntMatrix.identity(1))


def test_subquotient_agrees_with_bezout_oracle():
    # Unit-rich maps into relation-carrying targets.  d_in and the middle
    # relations are made of cocycles (columns in the kernel of d_out modulo
    # the target relations), so d_out is well defined and d_out after d_in
    # is zero.  The oracle finds its kernels by Bezout column moves.
    rng = random.Random(20261019)
    seen_torsion = set()
    for _ in range(150):
        m, n = rng.randint(1, 10), rng.randint(1, 8)
        d_out = [[rng.choice((0, 0, 0, 1, -1, 2, -2)) for _ in range(m)] for _ in range(n)]
        k = rng.randint(0, 3)
        target_rels = [[rng.choice((0, 0, 2, -2, 3)) for _ in range(k)] for _ in range(n)]
        cocycles = [c[:m] for c in oracle_kernel_basis(
            [r + t for r, t in zip(d_out, target_rels)], m + k)]

        def combinations(count):
            # count random integer combinations of the cocycles, as m rows.
            coeffs = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in cocycles] for _ in range(count)]
            return [[sum(c * z[i] for c, z in zip(cs, cocycles)) for cs in coeffs]
                    for i in range(m)]

        d_in, middle_rels = combinations(rng.randint(0, 3)), combinations(rng.randint(0, 3))
        middle = FpAbPresentation(m, IntMatrix.from_rows(middle_rels, len(middle_rels[0])))
        target = FpAbPresentation(n, IntMatrix.from_rows(target_rels, k))
        source = F(len(d_in[0]))
        h, diagonal = subquotient_cohomology(hom(source, middle, d_in), hom(middle, target, d_out))
        expected = oracle_subquotient(m, d_in, d_out, middle_rels, target_rels)
        assert (h.free_rank, h.torsion) == expected
        outer = [r + t for r, t in zip(d_out, target_rels)]
        assert tuple(x for x in diagonal if x > 1) == oracle_canonical_form(n, outer)[1]
        assert len(diagonal) == rational_rank(outer)
        seen_torsion.update(h.torsion)
    assert {2, 3, 4} <= seen_torsion, seen_torsion
