import random

import pytest

from sncweight.abgroup import FgAbGroup, FpAbPresentation, canonical_form, in_span, is_well_defined
from sncweight.chain import CochainComplex, cohomology
from sncweight.intmat import IntMatrix, smith_diagonal

from _support import (
    check_record,
    difference,
    oracle_canonical_form,
    oracle_in_span,
    oracle_kernel_basis,
    oracle_subquotient,
    random_presentation,
    random_unimodular,
    verify_complex,
)

F = FpAbPresentation.free
Z = FgAbGroup.free(1)


M = IntMatrix.from_rows


def middle(groups, d_in, d_out):
    """ker(d_out) / im(d_in), as H^1 of the three-term complex on groups."""
    c = CochainComplex(0, groups, (d_in, d_out))
    return cohomology(c).get(1, FgAbGroup.zero())


def kernel_of(source, target, f):
    """ker f, as the cohomology of 0 -> source -> target."""
    return middle((F(0), source, target), IntMatrix.zeros(source.generators, 0), f)


def cokernel_of(source, target, f):
    """coker f, as the cohomology of source -> target -> 0."""
    return middle((source, target, F(0)), f, IntMatrix.zeros(0, target.generators))


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
    # verify_complex makes the same decision twice: the identity of Z^n
    # from Z^n / m into Z^n / S is well defined, and Z^c --m--> Z^n
    # --identity--> Z^n / S composes to zero, exactly when m lies in S.
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
            outside = difference(u * e_i, lattice * _block(rng, lattice.cols, 1))
            cases.append((inside.hstack(outside), False))
        cases.append((_block(rng, n, rng.randint(1, 2)), None))
        for m, member in cases:
            oracle = oracle_in_span(m, lattice)
            assert member in (None, oracle)
            target, identity = FpAbPresentation(n, lattice), IntMatrix.identity(n)
            assert in_span(m, target) == oracle
            rep = verify_complex(CochainComplex(0, (FpAbPresentation(n, m), target), (identity,)))
            assert rep.passed == oracle
            assert rep.details in ((), ("degree 0: differential is not well defined",))
            rep = verify_complex(CochainComplex(0, (F(m.cols), F(n), target), (m, identity)))
            assert rep.passed == oracle
            assert rep.details in ((), ("degree 0: d after d is nonzero",))
            seen.add(oracle)
    assert seen == {True, False}


def test_span_membership_refuses_mismatched_rows():
    # A 2-row matrix is never tested against 3-row relations, whether it
    # is zero (no lift needed) or not (the lift would refuse the shape).
    group = FpAbPresentation(3, IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]))
    for m in (M([[4], [6]]), IntMatrix.zeros(2, 1)):
        with pytest.raises(ValueError, match="row counts differ: 2 vs 3"):
            in_span(m, group)
    with pytest.raises(ValueError, match="row counts differ: 3 vs 2"):
        in_span(IntMatrix.zeros(3, 1), F(2))


def test_kernel_image_cokernel_examples():
    times2 = M([[2]])
    assert kernel_of(F(1), F(1), times2).is_zero
    assert cokernel_of(F(1), F(1), times2) == FgAbGroup(0, (2,))

    diagonal = M([[1], [1]])
    assert cokernel_of(F(1), F(2), diagonal) == Z
    assert kernel_of(F(1), F(2), diagonal).is_zero

    zero = IntMatrix.zeros(1, 1)
    assert kernel_of(F(1), F(1), zero) == Z
    assert cokernel_of(F(1), F(1), zero) == Z


def test_kernel_with_torsion_target():
    # Z -> Z/4 by 1: kernel is 4Z, and the map is onto.
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    assert kernel_of(F(1), z4, M([[1]])) == Z
    assert cokernel_of(F(1), z4, M([[1]])).is_zero
    # Z -> Z/4 by 2: the image is 2Z/4Z = Z/2, so the cokernel is Z/2.
    assert kernel_of(F(1), z4, M([[2]])) == Z
    assert cokernel_of(F(1), z4, M([[2]])) == FgAbGroup(0, (2,))


def test_ill_defined_hom_rejected():
    # chain.cohomology takes well-definedness as a precondition;
    # verify_complex rejects the complexes behind kernel_of and cokernel_of.
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    f = M([[1]])  # Z/2 -> Z by 1 is not a homomorphism
    assert not in_span(f * z2.relations, F(1))
    assert not is_well_defined(f, z2, F(1)) and is_well_defined(f, F(1), z2)
    for degree, groups, maps in ((1, (F(0), z2, F(1)), (IntMatrix.zeros(1, 0), f)),
                                 (0, (z2, F(1), F(0)), (f, IntMatrix.zeros(0, 1)))):
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
        assert in_span(m * src.relations, tgt_fixed)
        assert is_well_defined(m, src, tgt_fixed)
        # The rank of the image is rank tgt - rank coker.
        r_src = canonical_form(src).free_rank
        r_tgt = canonical_form(tgt_fixed).free_rank
        assert r_src == (kernel_of(src, tgt_fixed, m).free_rank + r_tgt
                         - cokernel_of(src, tgt_fixed, m).free_rank)


def test_subquotient_examples():
    assert middle((F(1), F(2), F(1)), M([[1], [1]]), M([[1, -1]])).is_zero
    assert middle((F(1), F(1), F(0)), M([[2]]), IntMatrix.zeros(0, 1)) == FgAbGroup(0, (2,))
    assert middle((F(0), F(2), F(0)), IntMatrix.zeros(2, 0),
                  IntMatrix.zeros(0, 2)) == FgAbGroup.free(2)


def test_subquotient_rejects_nonzero_composition():
    # A zero composite is a precondition of chain.cohomology, which
    # verify_complex tests; a complex checks its middle groups itself.
    one = M([[1]])
    rep = verify_complex(CochainComplex(0, (F(1), F(1), F(1)), (one, one)))
    assert rep.details == ("degree 0: d after d is nonzero",)
    with pytest.raises(ValueError, match="differential 1 does not match adjacent groups"):
        middle((F(1), F(2), F(1)), M([[1], [0]]), M([[0]]))


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
    f = M([[1, 0], [0, 0]])
    assert in_span(f * s.relations, s)
    assert kernel_of(s, s, f) == Z and cokernel_of(s, s, f) == Z


def test_homs_with_torsion_source():
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    f = M([[2]])
    assert in_span(f * z4.relations, z4)
    assert kernel_of(z4, z4, f) == FgAbGroup(0, (2,))
    assert cokernel_of(z4, z4, f) == FgAbGroup(0, (2,))


def test_subquotient_with_torsion_middle():
    z4 = FpAbPresentation.from_relation_columns(1, [[4]])
    assert middle((z4, z4, z4), M([[2]]), M([[2]])).is_zero
    # Zero maps leave the whole middle group.
    z = IntMatrix.zeros(1, 1)
    assert middle((z4, z4, z4), z, z) == FgAbGroup(0, (4,))


def test_record_semantics():
    check_record(FgAbGroup, ("free_rank", "torsion"), (1, (2, 4)), (1, (2, 4)), (1, (4,)))
    assert FgAbGroup() == FgAbGroup.zero() == FgAbGroup(torsion=())
    assert repr(FgAbGroup(1, (2,))) == "FgAbGroup(free_rank=1, torsion=(2,))"
    three = IntMatrix.from_rows([[3]])
    check_record(FpAbPresentation, ("generators", "relations"),
                 (1, IntMatrix.from_rows([[2]])), (1, IntMatrix.from_rows([[2]])), (1, three))
    assert FpAbPresentation(generators=2, relations=IntMatrix.zeros(2, 0)) == F(2)


def test_records_validate_on_construction():
    with pytest.raises(ValueError, match="relation matrix has 1 rows for 2 generators"):
        FpAbPresentation(2, IntMatrix.zeros(1, 0))


def test_subquotient_agrees_with_bezout_oracle():
    # Unit-rich maps into relation-carrying targets, through the middle
    # degree of the three-term complex.  d_in and the middle relations are
    # made of cocycles (columns in the kernel of d_out modulo the target
    # relations), so d_out is well defined and d_out after d_in is zero,
    # though often only modulo the target relations; the middle relations
    # are often dependent.  The oracle finds its kernels by Bezout column
    # moves.
    rng = random.Random(20261019)
    seen_torsion = set()
    nonzero_composite = 0
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
        mid = FpAbPresentation(m, IntMatrix.from_rows(middle_rels, len(middle_rels[0])))
        target = FpAbPresentation(n, IntMatrix.from_rows(target_rels, k))
        source = F(len(d_in[0]))
        c = CochainComplex(0, (source, mid, target),
                           (IntMatrix.from_rows(d_in, source.generators),
                            IntMatrix.from_rows(d_out, m)))
        got = cohomology(c)
        h = got.get(1, FgAbGroup.zero())
        expected = oracle_subquotient(m, d_in, d_out, middle_rels, target_rels)
        assert (h.free_rank, h.torsion) == expected
        # The last degree is the cokernel of [d_out | target relations].
        outer = [r + t for r, t in zip(d_out, target_rels)]
        top = got.get(2, FgAbGroup.zero())
        assert (top.free_rank, top.torsion) == oracle_canonical_form(n, outer)
        nonzero_composite += not (c.differentials[1] * c.differentials[0]).is_zero
        seen_torsion.update(h.torsion)
    assert {2, 3, 4} <= seen_torsion, seen_torsion
    assert nonzero_composite > 20, nonzero_composite


def _pivot_rows(r):
    """The first nonzero row of each column of r, None for a zero column."""
    first = {}
    for i, j, _ in r.nonzeros():
        first.setdefault(j, i)
    return [first.get(j) for j in range(r.cols)]


def test_stored_relations_are_an_injective_echelon_basis_of_the_span_given():
    # Whatever matrix a group is built from, it stores a lower
    # column-echelon basis of the same span: pivot rows strictly increase,
    # the columns are independent, and building the group again from them
    # keeps them.  canonical_form and in_span read that basis and agree
    # with the Bezout oracle on the matrix as given.
    rng = random.Random(20261020)
    seen = set()
    for _ in range(300):
        n, k = rng.randint(0, 5), rng.randint(0, 3)
        base = _block(rng, n, k)
        kind = rng.choice(("dependent", "twisted", "zero columns", "relation-free"))
        if kind == "dependent":
            given = base.hstack(base * _block(rng, k, rng.randint(1, 2)))
        elif kind == "twisted":
            given = random_unimodular(rng, n)[0] * base * random_unimodular(rng, k)[0]
        elif kind == "zero columns":
            given = base.hstack(IntMatrix.zeros(n, rng.randint(1, 2))).hstack(base)
        else:
            given = IntMatrix.zeros(n, 0)
        p = FpAbPresentation(n, given)
        r = p.relations
        pivots = _pivot_rows(r)
        assert None not in pivots and pivots == sorted(set(pivots)), kind
        assert len(smith_diagonal(r)[0]) == r.cols
        assert oracle_in_span(given, r) and oracle_in_span(r, given)
        assert FpAbPresentation(n, r).relations == r
        assert canonical_form(p) == FgAbGroup(*oracle_canonical_form(n, given.to_rows()))
        for m in (_block(rng, n, rng.randint(1, 2)), given * _block(rng, given.cols, 1)):
            assert in_span(m, p) == oracle_in_span(m, given)
        seen.add((kind, r.cols < given.cols, n == 0))
    assert {("dependent", True, False), ("twisted", False, False), ("zero columns", True, False),
            ("relation-free", False, False), ("zero columns", True, True)} <= seen, seen
