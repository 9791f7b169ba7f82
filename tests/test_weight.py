import random

import pytest

from sncweight.abgroup import FgAbGroup, FpAbPresentation
from sncweight.builders import (
    affine_space_snc,
    parse_builder,
    point_snc,
    punctured_curve_snc,
    torus_snc,
)
from sncweight.chain import _total_differential, cohomology, verify_complex
from sncweight.checks import (
    FreeTensorError,
    a1_stability_check,
    degeneration_check,
    euler_check,
    product_snc,
    tensor_table,
)
from sncweight.datafile import datum_from_dict, datum_to_dict
from sncweight.dual import (
    ContractibilityReport,
    STATUS_CONTRACTIBLE,
    STATUS_OTHER,
    STATUS_SPHERE,
    SimplicialComplex,
    nerve,
    reduced_cohomology,
)
from sncweight.intmat import IntMatrix
from sncweight.sncdata import ProductTooLargeError, SncDatum, StratumData
from sncweight.weight import BigradedTable, validate, weight_cohomology_table, weight_complex

from _support import (
    BUILDER_SPECS,
    check_nerve_identity,
    check_record,
    contractibility,
    curve_chain_datum,
    crosscap_surface,
    disjoint_fibres_json,
    genus_two_surface,
    point_strata_datum,
    random_valid_datum,
    rank_mod_p,
    reference_product,
    rp2_triangles,
    sparse_restriction_datum,
)

F = FpAbPresentation.free
Z = FgAbGroup.free(1)


def torsion_datum():
    """A hand-made datum whose top stratum carries a Z/2 class in degree 2."""
    coh = {0: F(1), 2: FpAbPresentation.from_relation_columns(2, [[0, 2]])}
    return SncDatum(1, 1, {
        (): StratumData(coh, {}),
        (1,): StratumData({0: F(1)}, {1: {0: IntMatrix.identity(1)}}),
    })


def test_weight_complex_affine():
    w0 = weight_complex(affine_space_snc(1), 0)
    assert [w0.group_at(a).generators for a in w0.degrees] == [1, 1]
    assert w0.differentials == (IntMatrix.identity(1),)
    w2 = weight_complex(affine_space_snc(1), 2)
    assert [w2.group_at(a).generators for a in w2.degrees] == [1, 0]


def test_weight_complex_torus1():
    w0 = weight_complex(torus_snc(1), 0)
    assert w0.differentials == (IntMatrix.from_rows([[1], [1]]),)


def test_tables_of_builders():
    assert dict(weight_cohomology_table(point_snc()).entries) == {(0, 0): Z}
    assert dict(weight_cohomology_table(affine_space_snc(1)).entries) == {(0, 2): Z}
    assert dict(weight_cohomology_table(affine_space_snc(3)).entries) == {(0, 6): Z}
    assert dict(weight_cohomology_table(torus_snc(1)).entries) == {(1, 0): Z, (0, 2): Z}
    assert dict(weight_cohomology_table(punctured_curve_snc(2, 3)).entries) == {
        (1, 0): FgAbGroup.free(2), (0, 1): FgAbGroup.free(4), (0, 2): Z,
    }


def test_table_with_torsion_entry():
    table = weight_cohomology_table(torsion_datum())
    assert table.entry(0, 2) == FgAbGroup(1, (2,))


def test_table_invariants():
    with pytest.raises(ValueError):
        BigradedTable(1, 1, {(2, 0): Z})
    with pytest.raises(ValueError):
        BigradedTable(1, 1, {(0, 0): FgAbGroup.zero()})
    rng = random.Random(71)
    for _ in range(10):
        s = random_valid_datum(rng, max_factors=2)
        table = weight_cohomology_table(s)
        assert all(0 <= a <= s.dim for (a, _) in table.entries)


def test_nerve_identity_builders_and_random():
    corpus = [point_snc(), affine_space_snc(2), torus_snc(2), punctured_curve_snc(1, 3),
              torsion_datum()]
    rng = random.Random(73)
    corpus.extend(random_valid_datum(rng, max_factors=2) for _ in range(10))
    for s in corpus:
        rep = check_nerve_identity(s)
        assert rep.passed, rep.details


def test_product_point_is_unit():
    for s in [affine_space_snc(2), torus_snc(1), punctured_curve_snc(1, 2)]:
        left = weight_cohomology_table(product_snc(point_snc(), s))
        right = weight_cohomology_table(product_snc(s, point_snc()))
        base = weight_cohomology_table(s)
        assert left.entries_equal(base) and right.entries_equal(base)


def test_product_of_affine_lines_matches_plane():
    prod = product_snc(affine_space_snc(1), affine_space_snc(1))
    assert dict(weight_cohomology_table(prod).entries) == {(0, 4): Z}


def test_product_of_tori_matches_torus2():
    prod = product_snc(torus_snc(1), torus_snc(1))
    assert weight_cohomology_table(prod).entries_equal(weight_cohomology_table(torus_snc(2)))


def test_product_json_is_pinned_in_both_orders():
    # Every stratum, degree and restriction block of both legs, byte for byte.
    import hashlib

    from sncweight.datafile import to_json

    curve, plane = punctured_curve_snc(1, 2), affine_space_snc(2)
    digests = [hashlib.sha256(to_json(product_snc(x, y)).encode()).hexdigest()
               for x, y in ((curve, plane), (plane, curve))]
    assert digests == [
        "83a045589fb406ad99f3d91eb38bfc2224f81c8374c3ac85cd3346b304d3499b",
        "ae96ed61480b67e9fd0303cffcc381078a4b6be6528d536624d2ad36c0131aa8",
    ]


def test_torus_json_is_pinned():
    # These pin torus:n's strata, generator order and restriction blocks at
    # every size the bench runs; test_builders ties torus:n to the product.
    import hashlib

    from sncweight.datafile import to_json

    digests = {n: hashlib.sha256(to_json(torus_snc(n)).encode()).hexdigest()
               for n in (3, 4, 5, 6)}
    assert digests == {
        3: "1983cd5e2f3efb1162f614f3ac791cab9fe614ced8b5039abc65b1fd60828ce1",
        4: "f5342cd9894dcede39a73ba87fe9b99ced33a776783268a87fa592b8e662b39a",
        5: "44f4384086be86f1b9d9d9db828cee85894512390e6d41079991e95842b8e8df",
        6: "d5d7bac759ba9f1a4b80267ca0f6e735b17c308035e6661be737be3e5536223f",
    }


def _restriction_order(s: SncDatum) -> list:
    return [(I, [(e, list(per_degree)) for e, per_degree in st.restrictions.items()])
            for I, st in s.strata.items()]


def test_product_matches_the_dense_reference():
    # Random free pairs, and builder pairs whose restrictions and identity
    # legs both have more than one generator in a degree (H^1 of a curve of
    # genus >= 1, H^2 of the codimension-1 strata of torus:3), so that
    # R (x) I_n and I_m (x) R are written with n > 1 and m > 1, and a
    # surface whose two boundary curves do not meet.  Both orders.
    from sncweight.datafile import to_json

    wide = [parse_builder(spec) for spec in ("curve:1,2", "curve:2,1", "affine:2", "torus:3")]
    wide.append(datum_from_dict(disjoint_fibres_json()))
    pairs = _random_pairs(97, 20) + [
        (x, y) for i, x in enumerate(wide) for y in wide[i + 1:]
    ]
    for x, y in pairs:
        for a, b in ((x, y), (y, x)):
            got, want = product_snc(a, b), reference_product(a, b)
            assert got == want
            assert to_json(got) == to_json(want)
            assert _restriction_order(got) == _restriction_order(want)


def test_product_size_budget():
    # MAX_COUNT strata are allowed; one more is rejected before anything is built.
    assert len(product_snc(punctured_curve_snc(0, 9999), point_snc()).strata) == 10_000
    with pytest.raises(ProductTooLargeError, match="10001 strata"):
        product_snc(punctured_curve_snc(0, 10_000), point_snc())
    # affine:1000 has 2001 generators over its strata, so its square has about 4e6.
    with pytest.raises(ProductTooLargeError, match="4004001 generators"):
        product_snc(affine_space_snc(1000), affine_space_snc(1000))


def test_weight_complex_spans_the_levels_that_exist():
    # affine:50 has two strata, so each degree's complex has two groups, not 51.
    s = affine_space_snc(50)
    assert len(s.graded_degrees()) == 51
    for b in s.graded_degrees():
        assert len(weight_complex(s, b).groups) == 2


def _differentials_from_blocks(s, b):
    """weight_complex's differentials in degree b, written block by block with from_blocks."""
    diffs, offsets, width = [], {}, 0
    for k, level in enumerate(s.levels):
        at, blocks, height = {}, [], 0
        for I, coh in level:
            at[I] = height
            generators = coh.get(b, FpAbPresentation.zero()).generators
            if generators:
                for j, i in enumerate(I):
                    stored = s.strata[I].restrictions.get(i, {}).get(b)
                    if stored is not None:
                        blocks.append((height, offsets[I[:j] + I[j + 1:]], stored, 1, True,
                                       -1 if j % 2 else 1))
            height += generators
        if k:
            diffs.append(IntMatrix.from_blocks(height, width, blocks))
        offsets, width = at, height
    return tuple(diffs)


def test_band_writer_agrees_with_the_block_writer():
    # weight_complex writes each stratum's rows as one band; the same
    # differentials written one restriction block at a time must agree, in
    # every degree of torus:0-5, every curve and affine builder, products,
    # and random data, relation-carrying ones included.
    corpus = [torus_snc(n) for n in range(6)] + [torsion_datum()]
    corpus += [parse_builder(spec) for spec in BUILDER_SPECS if not spec.startswith("torus")]
    for x, y in _random_pairs(97, 4) + [(parse_builder("curve:1,2"), torus_snc(2)),
                                        (affine_space_snc(2), parse_builder("curve:2,1"))]:
        corpus += [x, y, product_snc(x, y), product_snc(y, x)]
    written = 0
    for s in corpus:
        for b in s.graded_degrees():
            diffs = weight_complex(s, b).differentials
            assert diffs == _differentials_from_blocks(s, b), b
            written += sum(not d.is_zero for d in diffs)
    assert written > 100, written


def test_product_rejects_torsion():
    with pytest.raises(FreeTensorError):
        product_snc(torsion_datum(), torus_snc(1))


def test_d_squared_on_products_of_random_data():
    rng = random.Random(79)
    for _ in range(10):
        s = random_valid_datum(rng)
        assert validate(s).passed
        for b in s.graded_degrees():
            assert verify_complex(weight_complex(s, b)).passed


def _random_pairs(seed, count):
    rng = random.Random(seed)
    return [(random_valid_datum(rng, max_factors=2), random_valid_datum(rng, max_factors=2))
            for _ in range(count)]


def test_products_validate_from_scratch():
    # product_snc's output is valid by construction and is not validated;
    # here each product, in both orders, is validated anew from a dict copy
    # that carries no cached table.
    for x, y in _random_pairs(83, 8):
        for s in (product_snc(x, y), product_snc(y, x)):
            copy = datum_from_dict(datum_to_dict(s))
            assert copy == s and copy._table is None
            rep = validate(copy)
            assert rep.passed, rep.details


def test_every_weight_complex_is_a_complex():
    # The table takes cohomology without verify_complex, since the complexes
    # of a valid datum are complexes by construction; this checks that claim
    # on every builder family, a presented datum and random products.
    corpus = [parse_builder(spec) for spec in BUILDER_SPECS] + [torsion_datum()]
    for x, y in _random_pairs(89, 6):
        corpus += [x, y, product_snc(x, y), product_snc(y, x)]
    for s in corpus:
        assert validate(s).passed
        for b in s.graded_degrees():
            rep = verify_complex(weight_complex(s, b))
            assert rep.passed, (b, rep.details)


def test_a1_stability():
    for s in [point_snc(), affine_space_snc(1), torus_snc(1), punctured_curve_snc(1, 1)]:
        rep = a1_stability_check(s)
        assert rep.passed, rep.details


def test_a1_stability_values():
    # The affine line moves the point table to bidegree (0, 2).
    prod = product_snc(point_snc(), affine_space_snc(1))
    assert dict(weight_cohomology_table(prod).entries) == {(0, 2): Z}
    # And the torus entries move from (1,0), (0,2) to (1,2), (0,4).
    prod = product_snc(torus_snc(1), affine_space_snc(1))
    assert dict(weight_cohomology_table(prod).entries) == {(1, 2): Z, (0, 4): Z}


def test_e2_page_rational():
    # compute --rational prints the table's free ranks.
    table = weight_cohomology_table(torsion_datum()).rationalized()
    assert dict(table.entries) == {(0, 2): Z}
    integral = weight_cohomology_table(torsion_datum())
    assert integral.entry(0, 2) == FgAbGroup(1, (2,))
    ranks = weight_cohomology_table(torus_snc(1)).rationalized()
    assert dict(ranks.entries) == {(1, 0): Z, (0, 2): Z}


def test_degeneration_check():
    assert degeneration_check(torus_snc(1), {1: 1, 2: 1}).passed
    assert degeneration_check(punctured_curve_snc(1, 2), {1: 3, 2: 1}).passed
    assert degeneration_check(affine_space_snc(2), {4: 1}).passed
    rep = degeneration_check(torus_snc(1), {1: 2, 2: 1})
    assert not rep.passed
    assert any("MISMATCH" in d and "degree 1" in d for d in rep.details)


def test_euler_check_values():
    for d in (1, 2, 3):
        rep = euler_check(affine_space_snc(d))
        assert rep.passed and "table side 1" in rep.details[0]
    for n in (1, 2):
        rep = euler_check(torus_snc(n))
        assert rep.passed and "table side 0" in rep.details[0]
    rep = euler_check(punctured_curve_snc(2, 3))
    assert rep.passed and "table side -5" in rep.details[0]
    assert euler_check(torsion_datum()).passed


def test_contractibility_statuses():
    assert contractibility(affine_space_snc(1)).status == STATUS_CONTRACTIBLE
    r1 = contractibility(torus_snc(1))
    assert r1.status == STATUS_SPHERE and r1.sphere_dim == 0
    r2 = contractibility(torus_snc(2))
    assert r2.status == STATUS_SPHERE and r2.sphere_dim == 1
    # A curve with three punctures has a three-point nerve: not a sphere.
    assert contractibility(punctured_curve_snc(0, 3)).status == STATUS_OTHER
    # A compact variety has an empty nerve: the (-1)-sphere by the reduced convention.
    rp = contractibility(point_snc())
    assert rp.status == STATUS_SPHERE and rp.sphere_dim == -1


def test_tensor_table():
    t1 = weight_cohomology_table(torus_snc(1))
    sq = tensor_table(t1, t1)
    assert sq.entries_equal(weight_cohomology_table(torus_snc(2)))
    # Tensor with a torsion table exercises the Tor correction.
    tor_table = BigradedTable(1, 1, {(1, 0): FgAbGroup(0, (2,))})
    out = tensor_table(tor_table, tor_table)
    assert out.entry(2, 0) == FgAbGroup(0, (2,))
    assert out.entry(1, 0) == FgAbGroup(0, (2,))


def test_torus_table_is_tensor_power():
    t1 = weight_cohomology_table(torus_snc(1))
    acc = t1
    for n in (2, 3):
        acc = tensor_table(acc, t1)
        assert acc.entries_equal(weight_cohomology_table(torus_snc(n)))


def test_weight_complex_degree_zero_is_total_space():
    for s in [affine_space_snc(2), torus_snc(2), punctured_curve_snc(1, 1)]:
        for b in s.graded_degrees():
            w = weight_complex(s, b)
            assert w.min_degree == 0
            assert w.group_at(0) == s.cohomology_of((), b)


def test_product_associativity_on_tables():
    a = affine_space_snc(1)
    t = torus_snc(1)
    c = punctured_curve_snc(1, 1)
    left = weight_cohomology_table(product_snc(product_snc(a, t), c))
    right = weight_cohomology_table(product_snc(a, product_snc(t, c)))
    assert left.entries_equal(right)


def test_a1_stability_all_builders():
    from sncweight.builders import example_names, parse_builder

    for name in example_names():
        assert a1_stability_check(parse_builder(name)).passed, name


def enriques_like_datum():
    """A surface-style datum whose middle cohomology carries a 2-torsion class."""
    h2 = FpAbPresentation.from_relation_columns(3, [[0, 0, 2]])
    top = {0: F(1), 2: h2, 4: F(1)}
    curve = {0: F(1), 2: F(1)}
    return SncDatum(2, 1, {
        (): StratumData(top, {}),
        (1,): StratumData(curve, {1: {0: IntMatrix.identity(1),
                                      2: IntMatrix.from_rows([[1, 0, 0]])}}),
    })


def test_presented_middle_groups_in_the_table():
    s = enriques_like_datum()

    assert validate(s).passed
    table = weight_cohomology_table(s)
    assert dict(table.entries) == {(0, 2): FgAbGroup(1, (2,)), (0, 4): Z}
    assert euler_check(s).passed
    assert check_nerve_identity(s).passed


def test_sparse_restriction_with_a_unit_free_core_answers(monkeypatch):
    # n = 1000 generators and k = 3 entries +-1 per restriction column, seed
    # 1, with no relations.  The unit phase leaves a 52 x 107 core of the
    # restriction, which Euclid steps reduce.  The table must come within
    # 10 s CPU, and H^1, the cokernel of the restriction d, is checked
    # against the mod-2 rank of d: H^1 (x) Z/2 has dimension n - rank_2(d),
    # its free rank plus its count of even invariant factors.
    import time

    from sncweight import intmat

    n = 1000
    s = sparse_restriction_datum(n, 3, 1)
    d = s.strata[(1,)].restrictions[1][1]
    start = time.process_time()
    table = weight_cohomology_table(s)
    assert time.process_time() - start < 10
    h0, h1 = table.entry(0, 1), table.entry(1, 1)
    assert h0.free_rank == h1.free_rank and h0.torsion == ()
    even = sum(1 for t in h1.torsion if t % 2 == 0)
    assert h1.free_rank + even == n - rank_mod_p(d, 2)
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 0)
    with pytest.raises(intmat.DenseWorkTooLargeError, match="a 52x107 dense Smith reduction"):
        intmat.smith_diagonal(d)


def test_sparse_restriction_into_presented_groups_answers():
    # n = 1000 generators and k = 3 entries +-1 per restriction column, with
    # the curve's H^1 taken modulo 2I, or modulo 100 sparse columns of
    # three entries +-2.  Each answer must come within 10 s CPU, and each
    # is checked along a second path: the mod-2 rank of the restriction,
    # and the Euler characteristic of the degree-1 weight complex.
    import time

    n = 1000
    rng = random.Random(100)
    sparse = IntMatrix.from_entries(n, 100, [(i, j, rng.choice((2, -2)))
                                             for j in range(100) for i in rng.sample(range(n), 3)])
    for relations in (IntMatrix.from_entries(n, n, [(i, i, 2) for i in range(n)]), sparse):
        s = sparse_restriction_datum(n, 3, 1, relations)
        assert validate(s).passed
        start = time.process_time()
        table = weight_cohomology_table(s)
        assert time.process_time() - start < 10
        h0, h1 = table.entry(0, 1), table.entry(1, 1)
        if relations is sparse:
            assert h0.free_rank - h1.free_rank == 100
        else:
            rank = rank_mod_p(s.strata[(1,)].restrictions[1][1], 2)
            assert h0 == FgAbGroup.free(n)
            assert h1 == FgAbGroup(0, (2,) * (n - rank))


def _universal_coefficient_mismatches(c, primes):
    """The degrees where mod-p ranks of c's free total complex contradict cohomology(c).

    For the free total complex T of c (c itself when c is free) and a prime
    p, dim H^a(T (x) F_p) = n_a - rank_p D_a - rank_p D_(a-1) must equal
    rank H^a + #{factors of H^a divisible by p} + #{factors of H^(a+1)
    divisible by p}.  The ranks mod p come from tests/_support.rank_mod_p,
    which never calls smith_diagonal.  Also returns how many torsion
    factors p divided.
    """
    h = cohomology(c)
    degrees = range(c.min_degree - 1, c.min_degree + len(c.groups))
    d = {a: _total_differential(c, a) for a in degrees}
    mismatches, divided = [], 0

    def divisible(a, p):
        return sum(t % p == 0 for t in h.get(a, FgAbGroup.zero()).torsion)

    for p in primes:
        rank = {a: rank_mod_p(m, p) for a, m in d.items()}
        for a in degrees:
            left = d[a].cols - rank[a] - rank.get(a - 1, 0)
            right = h.get(a, FgAbGroup.zero()).free_rank + divisible(a, p) + divisible(a + 1, p)
            if left != right:
                mismatches.append((p, a, left, right))
            divided += divisible(a, p)
    return mismatches, divided


def test_universal_coefficients_agree_with_the_mod_p_ranks():
    # An independent path for every degree: the weight complexes of torus:6
    # to torus:8 (the largest builder input, 3^8 strata) and of the curve
    # builders, and the total complexes of a seeded chain of curves whose
    # H^1 carry relations, at p = 2, 3 and 1 000 003.
    import time

    start = time.process_time()
    primes = (2, 3, 1_000_003)
    data = [torus_snc(n) for n in (6, 7, 8)] + [parse_builder(spec) for spec in BUILDER_SPECS
                                                if spec.startswith("curve")]
    # Their (1, 1) entries are Z^18 x Z/2 x Z/6 and Z/2 x Z/4 x Z/12 x Z/24.
    data += [curve_chain_datum(random.Random(1), 12, 4, 6),
             curve_chain_datum(random.Random(6), 8, 2, 1)]
    divided = 0
    for s in data:
        for b in s.graded_degrees():
            mismatches, count = _universal_coefficient_mismatches(weight_complex(s, b), primes)
            assert mismatches == [], (b, mismatches)
            divided += count
    assert divided > 0
    assert time.process_time() - start < 5


def test_torus3_binomial_ranks():
    table = weight_cohomology_table(torus_snc(3))
    from math import comb

    assert dict(table.entries) == {
        (a, 2 * (3 - a)): FgAbGroup.free(comb(3, a)) for a in range(4)
    }


def test_contractible_product_nerve():
    # A path nerve: the middle vertex is the affine line's divisor, the two
    # torus points hang off it, and the torus points never meet each other.
    s = product_snc(affine_space_snc(1), torus_snc(1))
    rep = contractibility(s)
    assert rep.status == STATUS_CONTRACTIBLE


def test_table_is_cached_on_the_datum_and_read_only():
    s = torus_snc(2)
    table = weight_cohomology_table(s)
    assert weight_cohomology_table(s) is table
    with pytest.raises(TypeError):
        table.entries[(0, 0)] = Z
    entries = {(1, 0): Z}
    copied = BigradedTable(1, 2, entries)
    entries[(0, 2)] = Z
    assert dict(copied.entries) == {(1, 0): Z}


def test_record_semantics():
    assert weight_complex(torus_snc(1), 0) == weight_complex(torus_snc(1), 0)
    check_record(BigradedTable, ("dim", "n_components", "entries"),
                 (1, 2, {(1, 0): Z}), (1, 2, {(1, 0): FgAbGroup(1)}), (1, 2, {(0, 2): Z}),
                 hashable=False)
    assert weight_cohomology_table(torus_snc(2)) == weight_cohomology_table(torus_snc(2))
    with pytest.raises(ValueError, match=r"zero entry stored at \(0, 0\)"):
        BigradedTable(1, 1, {(0, 0): FgAbGroup()})
    check_record(ContractibilityReport, ("status", "sphere_dim", "details"),
                 (STATUS_SPHERE, 0, ("one",)), (STATUS_SPHERE, 0, tuple(["one"])),
                 (STATUS_OTHER, None, ("one",)))
    assert contractibility(affine_space_snc(2)) == contractibility(affine_space_snc(2))


# Point-strata data (ROADMAP item 7): every triangulated surface is the dual
# complex of a datum, so the paper's identity and its corollary can be
# checked on nerves of hundreds of faces, far beyond any builder's.
# Each entry: triangles, the complex's reduced cohomology, and a Tietze
# budget that certifies X x A^d contractible (the default 10 000 does not
# for genus 2).
POINT_STRATA_SURFACES = {
    "rp2": (rp2_triangles, {2: FgAbGroup(0, (2,))}, 10_000),
    "crosscap": (crosscap_surface, {1: FgAbGroup.free(2), 2: FgAbGroup(0, (2,))}, 10_000),
    "genus-2": (genus_two_surface, {1: FgAbGroup.free(4), 2: Z}, 100_000),
}


@pytest.mark.parametrize("name", sorted(POINT_STRATA_SURFACES))
def test_point_strata_row_zero_is_the_reduced_cohomology_of_the_complex(name):
    triangles, expected, _ = POINT_STRATA_SURFACES[name]
    tris = triangles()
    s = point_strata_datum(tris)
    assert validate(s).passed
    n = max(map(max, tris)) + 1
    assert nerve(s) == SimplicialComplex.from_facets(range(1, n + 1),
                                                     [[v + 1 for v in t] for t in tris])
    h = reduced_cohomology(SimplicialComplex.from_facets(range(n), tris))
    assert h == expected
    # The table is the row b = 0, one column right of the reduced cohomology.
    table = weight_cohomology_table(s)
    assert table.entries == {(deg + 1, 0): g for deg, g in h.items()}


def test_point_strata_self_product_is_the_tensor_square_with_tor():
    # RP^2 x RP^2: Z/2 (x) Z/2 at (6, 0) and Tor(Z/2, Z/2) at (5, 0).
    s = point_strata_datum(rp2_triangles())
    t = weight_cohomology_table(s)
    square = weight_cohomology_table(product_snc(s, s))
    assert square.entries_equal(tensor_table(t, t))
    assert square.entries == {(5, 0): FgAbGroup(0, (2,)), (6, 0): FgAbGroup(0, (2,))}


def _join_cohomology(h1, h2):
    """Reduced cohomology of a join K * L from that of K and of L:
    H~^(k+1)(K * L) = (+)_(i+j=k) H~^i (x) H~^j  (+)  (+)_(i+j=k+1) Tor(H~^i, H~^j)."""
    out = {}

    def add(deg, group):
        if not group.is_zero:
            out[deg] = out.get(deg, FgAbGroup.zero()).direct_sum(group)

    for i, g1 in h1.items():
        for j, g2 in h2.items():
            add(i + j + 1, g1.tensor(g2))
            add(i + j, g1.tor(g2))
    return out


@pytest.mark.parametrize("first, second", [("rp2", "crosscap"), ("crosscap", "rp2")])
def test_point_strata_torsion_pair_product_is_the_join(first, second):
    # The nerve of a product is the join of the nerves; with torsion on both
    # sides its cohomology has a Tor term, and so has the table.
    sx, sy = (point_strata_datum(POINT_STRATA_SURFACES[name][0]()) for name in (first, second))
    product = product_snc(sx, sy)
    assert len(product.strata) == 4608
    kx, ky = nerve(sx), nerve(sy)
    shifted = frozenset(tuple(v + sx.n_components for v in f) for f in ky.faces)
    join = SimplicialComplex(kx.vertices + tuple(v + sx.n_components for v in ky.vertices),
                             kx.faces | shifted | {f + g for f in kx.faces for g in shifted})
    assert nerve(product) == join
    h = reduced_cohomology(join)
    assert h == _join_cohomology(reduced_cohomology(kx), reduced_cohomology(ky))
    assert h == {4: FgAbGroup(0, (2, 2, 2)), 5: FgAbGroup(0, (2,))}
    table = weight_cohomology_table(product)
    assert table.entries_equal(tensor_table(weight_cohomology_table(sx),
                                            weight_cohomology_table(sy)))
    assert table.entries == {(deg + 1, 0): g for deg, g in h.items()}


@pytest.mark.parametrize("name", sorted(POINT_STRATA_SURFACES))
@pytest.mark.parametrize("d", [1, 2])
def test_point_strata_times_affine_space_is_certified_contractible(name, d):
    # The corollary in its product form: X x A^d has a cone as its nerve.
    triangles, _, budget = POINT_STRATA_SURFACES[name]
    product = product_snc(point_strata_datum(triangles()), affine_space_snc(d))
    assert contractibility(product, budget).status == STATUS_CONTRACTIBLE
