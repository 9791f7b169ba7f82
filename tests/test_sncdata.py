import random
from collections import Counter

import pytest

import sncweight.weight as weight

from sncweight.reports import Report

from sncweight.abgroup import FpAbPresentation
from sncweight.builders import (affine_space_snc, parse_builder, point_snc, punctured_curve_snc,
                                torus_snc)
from sncweight.checks import product_snc
from sncweight.datafile import datum_from_dict, datum_to_dict
from sncweight.intmat import IntMatrix
from sncweight.sncdata import SncDatum, StratumData
from sncweight.weight import validate, weight_complex

from _support import (BUILDER_SPECS, check_record, curve_chain_datum, oracle_square_problems,
                      random_valid_datum)

F = FpAbPresentation.free
ONE = IntMatrix.identity(1)


def test_validate_builders():
    for s in [point_snc(), affine_space_snc(1), affine_space_snc(3),
              torus_snc(1), torus_snc(2), punctured_curve_snc(2, 3)]:
        rep = validate(s)
        assert rep.passed, rep.details


def test_validate_missing_total_space():
    s = SncDatum(1, 1, {(1,): StratumData({0: F(1)}, {1: {0: ONE}})})
    rep = validate(s)
    assert not rep.passed
    assert any("empty subset" in d for d in rep.details)


def test_validate_downward_closure():
    # Y_{1,2} nonempty but Y_{2} missing.
    s = SncDatum(2, 2, {
        (): StratumData({0: F(1)}, {}),
        (1,): StratumData({0: F(1)}, {1: {0: ONE}}),
        (1, 2): StratumData({0: F(1)}, {1: {0: ONE}, 2: {0: ONE}}),
    })
    rep = validate(s)
    assert not rep.passed
    assert any("downward closure" in d and "{1,2}" in d for d in rep.details)


def test_validate_dimension_bound():
    # A point stratum cannot carry degree-2 cohomology when dim is 1.
    s = SncDatum(1, 1, {
        (): StratumData({0: F(1), 2: F(1)}, {}),
        (1,): StratumData({0: F(1), 2: F(1)}, {1: {0: ONE, 2: ONE}}),
    })
    rep = validate(s)
    assert not rep.passed
    assert any("above bound" in d for d in rep.details)


def test_validate_degree_zero_must_be_z():
    s = SncDatum(1, 1, {
        (): StratumData({0: F(2)}, {}),
        (1,): StratumData({0: F(1)}, {1: {0: IntMatrix.from_rows([[1, 0]])}}),
    })
    rep = validate(s)
    assert not rep.passed
    assert any("degree-0" in d for d in rep.details)


def test_validate_missing_restriction():
    s = SncDatum(1, 1, {
        (): StratumData({0: F(1)}, {}),
        (1,): StratumData({0: F(1)}, {}),
    })
    rep = validate(s)
    assert not rep.passed
    assert any("missing restriction" in d for d in rep.details)


def _square_datum(rank, target, from_2, from_1):
    """Two components; Z^rank in degree 1 on Y_{}, Y_{1}, Y_{2} with identity maps.

    In degree 1, Y_{1,2} carries target and receives from_2 from Y_{2} and
    from_1 from Y_{1}, so the two paths from Y_{} differ by from_2 - from_1.
    """
    ident = IntMatrix.identity(rank)
    return SncDatum(3, 2, {
        (): StratumData({0: F(1), 1: F(rank)}, {}),
        (1,): StratumData({0: F(1), 1: F(rank)}, {1: {0: ONE, 1: ident}}),
        (2,): StratumData({0: F(1), 1: F(rank)}, {2: {0: ONE, 1: ident}}),
        (1, 2): StratumData({0: F(1), 1: target},
                            {1: {0: ONE, 1: from_2}, 2: {0: ONE, 1: from_1}}),
    })


def test_validate_commuting_squares_violation():
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    three, two = IntMatrix.from_rows([[3]]), IntMatrix.from_rows([[2]])
    cases = [
        # 2x2 middle-degree maps that commute along one order of
        # restrictions but not the other.
        (_square_datum(2, F(2), IntMatrix.from_rows([[1, 1], [0, 1]]),
                       IntMatrix.identity(2)), False),
        # Into Z/2 the paths may differ by a multiple of 2, but not by 1.
        (_square_datum(1, z2, three, ONE), True),
        (_square_datum(1, z2, two, ONE), False),
    ]
    for s, commutes in cases:
        rep = validate(s)
        assert rep.passed == commutes, rep.details
        if not commutes:
            assert rep.details == (
                "commuting squares: paths {} -> {2} -> {1,2} and "
                "{} -> {1} -> {1,2} differ in degree 1",
            )


def _zero_path_datum(zero_side, target, outer):
    """Like _square_datum, but Y_{zero_side} has no degree-1 cohomology.

    The path through Y_{zero_side} is then an implied zero, and the other
    path is outer after the identity.
    """
    other = 3 - zero_side
    return SncDatum(3, 2, {
        (): StratumData({0: F(1), 1: F(1)}, {}),
        (zero_side,): StratumData({0: F(1)}, {zero_side: {0: ONE}}),
        (other,): StratumData({0: F(1), 1: F(1)}, {other: {0: ONE, 1: ONE}}),
        (1, 2): StratumData({0: F(1), 1: target},
                            {other: {0: ONE}, zero_side: {0: ONE, 1: outer}}),
    })


def test_validate_squares_through_an_implied_zero():
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    zero, one, two = IntMatrix.from_rows([[0]]), ONE, IntMatrix.from_rows([[2]])
    finding = ("commuting squares: paths {} -> {2} -> {1,2} and "
               "{} -> {1} -> {1,2} differ in degree 1")
    for zero_side in (1, 2):
        for target, outer, commutes in ((F(1), zero, True), (F(1), one, False),
                                        (z2, two, True), (z2, one, False)):
            rep = validate(_zero_path_datum(zero_side, target, outer))
            assert rep.passed == commutes, (zero_side, outer, rep.details)
            assert rep.details == (() if commutes else (finding,))


def test_validate_ill_defined_restriction():
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    s = SncDatum(2, 1, {
        (): StratumData({0: F(1), 2: z2}, {}),
        (1,): StratumData({0: F(1), 2: F(1)}, {1: {0: ONE, 2: ONE}}),
    })
    rep = validate(s)
    assert not rep.passed
    assert any("not well defined" in d for d in rep.details)


def _mutants(rng: random.Random, s: SncDatum) -> list[SncDatum]:
    """Copies of s with one restriction entry perturbed, one target given a
    relation that may absorb a perturbation into it, and one restriction deleted."""
    def stored(obj, least):
        return [(entry, i, b) for entry in obj["strata"] if len(entry["subset"]) >= least
                for i, per_degree in sorted(entry["restrictions"].items())
                for b in sorted(per_degree)]

    out = []
    for kind in ("perturb", "relation", "delete"):
        obj = datum_to_dict(s)
        # A degree-0 relation would fail the structure checks and skip the squares.
        maps = [m for m in stored(obj, 2 if kind == "relation" else 1)
                if kind != "relation" or m[2] != "0"]
        if not maps:
            continue
        entry, i, b = rng.choice(maps)
        if kind == "delete":
            del entry["restrictions"][i][b]
            out.append(datum_from_dict(obj))
            continue
        rows = entry["restrictions"][i][b]
        r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows[r][c] += rng.choice((-2, -1, 1, 2) if kind == "perturb" else (2, 3, 4, 6))
        if kind == "relation":
            coh = entry["cohomology"][b]
            order = rng.choice((2, 3))
            coh["relations"].append([order if x == r else 0 for x in range(coh["generators"])])
        out.append(datum_from_dict(obj))
    return out


def test_validate_agrees_with_the_per_square_oracle():
    # validate reads the squares off the blocks of d after d; the oracle
    # compares the two paths of each square on its own.  Their findings
    # must agree, in order, on valid data and on mutants of them.
    rng = random.Random(20261020)
    corpus = [parse_builder(spec) for spec in BUILDER_SPECS]
    corpus += [random_valid_datum(rng) for _ in range(20)]
    corpus += [curve_chain_datum(rng, rng.randint(2, 4), rng.randint(1, 3), rng.randint(0, 3))
               for _ in range(12)]
    data = [m for s in corpus for m in [s] + _mutants(rng, s)]
    failing = 0
    for s in data:
        problems, shapes_ok = weight._check_structure(s)
        squares = oracle_square_problems(s) if shapes_ok else []
        assert validate(s).details == tuple(problems + squares)
        failing += bool(squares)
    assert len(data) == 166 and failing == 61, (len(data), failing)


def test_strata_level_blocks():
    assert [I for I, _ in affine_space_snc(2).levels[0]] == [()]
    t2 = torus_snc(2)
    assert [I for I, _ in t2.levels[1]] == [(1,), (2,), (3,), (4,)]
    assert [I for I, _ in t2.levels[2]] == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert t2.levels[3:] == ()
    assert t2.levels[99:] == ()
    with pytest.raises(AttributeError):
        t2.levels = ()
    assert weight_complex(t2, 0).groups[1] == F(4)
    assert weight_complex(t2, 2).groups[1:] == (F(4), F(0))
    rng = random.Random(5)
    for s in [t2] + [random_valid_datum(rng, max_factors=2) for _ in range(10)]:
        assert s.nonempty_subsets() == sorted(s.strata, key=lambda I: (len(I), I))


# weight_complex(s, b).differentials[k - 1] is the level differential
# from codimension k - 1 into codimension k.


def test_level_differential_torus2_signs():
    d1, d2 = weight_complex(torus_snc(2), 0).differentials
    # Rows: (1,3), (1,4), (2,3), (2,4); columns: (1), (2), (3), (4).
    # Removing the first element gets +, the second gets -.
    assert d2 == IntMatrix.from_rows([
        [-1, 0, 1, 0],
        [-1, 0, 0, 1],
        [0, -1, 1, 0],
        [0, -1, 0, 1],
    ])
    assert (d2 * d1).is_zero


def test_level_differential_composes_to_zero_everywhere():
    corpus = [affine_space_snc(3), torus_snc(2), punctured_curve_snc(1, 2)]
    rng = random.Random(3)
    corpus.extend(random_valid_datum(rng, max_factors=2) for _ in range(10))
    for s in corpus:
        for b in s.graded_degrees():
            diffs = weight_complex(s, b).differentials
            for k, (rhs, lhs) in enumerate(zip(diffs, diffs[1:]), start=1):
                assert (lhs * rhs).is_zero, (b, k)


def _dense_level_differential(s, k, b):
    """The level differential into codimension k on dense lists, from the stored maps.

    Sources are the strata with |J| = k - 1 and targets those with |I| = k,
    each level in lexicographic order, each stratum taking as many
    positions as it has degree-b generators.  The block from I minus i_j
    into I is the stored map times (-1)^(j-1), where i_j is the j-th
    smallest element of I; a map that is not stored adds nothing.
    """
    def offsets(size):
        at, pos = {}, 0
        for I in sorted(I for I in s.strata if len(I) == size):
            at[I] = pos
            p = s.strata[I].cohomology.get(b)
            pos += p.generators if p is not None else 0
        return at, pos

    cols, width = offsets(k - 1)
    rows, height = offsets(k)
    dense = [[0] * width for _ in range(height)]
    for I, row0 in rows.items():
        for j, i in enumerate(I, start=1):
            stored = s.strata[I].restrictions.get(i, {}).get(b)
            if stored is None:
                continue
            col0 = cols[tuple(x for x in I if x != i)]
            for r, line in enumerate(stored.to_rows()):
                for c, e in enumerate(line):
                    dense[row0 + r][col0 + c] += (-1) ** (j - 1) * e
    return dense, height, width


def test_level_differentials_match_dense_reference():
    # Every level differential, in every degree, of every builder family, of
    # products of builders and of a seeded random corpus, including a degree
    # with no generators.
    corpus = [point_snc(), *(affine_space_snc(d) for d in range(1, 4)),
              *(torus_snc(n) for n in range(1, 5)),
              *(punctured_curve_snc(g, n) for g in range(3) for n in range(1, 4))]
    corpus += [product_snc(torus_snc(1), punctured_curve_snc(1, 2)),
               product_snc(affine_space_snc(2), torus_snc(2)),
               product_snc(punctured_curve_snc(0, 3), punctured_curve_snc(2, 1)),
               product_snc(punctured_curve_snc(1, 3), affine_space_snc(1))]
    rng = random.Random(16)
    corpus.extend(random_valid_datum(rng) for _ in range(25))
    checked = 0
    for s in corpus:
        for b in s.graded_degrees() + [max(s.graded_degrees()) + 1]:
            w = weight_complex(s, b)
            assert len(w.groups) == len(s.levels)
            for k, d in enumerate(w.differentials, start=1):
                dense, height, width = _dense_level_differential(s, k, b)
                assert d.shape == (height, width), (s, k, b)
                assert d.to_rows() == dense, (s, k, b)
                assert (w.groups[k].generators, w.groups[k - 1].generators) == (height, width)
                checked += 1
    assert checked > 300


def test_random_valid_data_are_valid():
    rng = random.Random(12)
    for _ in range(15):
        s = random_valid_datum(rng)
        assert validate(s).passed


def test_validate_shape_mismatch_and_stray_key():
    s = SncDatum(1, 2, {
        (): StratumData({0: F(1)}, {}),
        (1,): StratumData({0: F(1)}, {1: {0: IntMatrix.from_rows([[1, 0]])}}),
        (2,): StratumData({0: F(1)}, {3: {0: ONE}}),
    })
    rep = validate(s)
    assert not rep.passed
    assert any("has shape" in d for d in rep.details)
    assert any("keyed by 3" in d for d in rep.details)


def test_datum_is_read_only():
    s = torus_snc(2)
    with pytest.raises(TypeError):
        s.strata[(5,)] = s.strata[()]
    with pytest.raises(TypeError):
        s.strata[()].cohomology[1] = F(1)
    with pytest.raises(TypeError):
        s.strata[(1,)].restrictions[1][2] = ONE
    with pytest.raises(TypeError):
        s.strata[(1,)].restrictions[3] = {0: ONE}


def test_datum_copies_its_input():
    cohomology = {0: F(1)}
    restrictions = {1: {0: ONE}}
    strata = {(): StratumData({0: F(1)}, {}), (1,): StratumData(cohomology, restrictions)}
    s = SncDatum(1, 1, strata)
    assert validate(s).passed
    strata[(2,)] = StratumData({0: F(1)}, {})
    cohomology[0] = F(2)
    restrictions[1][0] = IntMatrix.from_rows([[2]])
    restrictions[2] = {0: ONE}
    assert s == SncDatum(1, 1, {
        (): StratumData({0: F(1)}, {}),
        (1,): StratumData({0: F(1)}, {1: {0: ONE}}),
    })
    assert validate(s).passed


def _count_tiers(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("_check_structure", "_block_problems"):
        def counted(s, _name=name, _inner=getattr(weight, name)):
            calls[_name] += 1
            return _inner(s)
        monkeypatch.setattr(weight, name, counted)
    return calls


def test_validate_computes_each_tier_once(monkeypatch):
    # validate is the one entry point: each call runs the structure checks
    # and the commuting squares once each.
    built = torus_snc(2)
    calls = _count_tiers(monkeypatch)
    s = SncDatum(built.dim, built.n_components, built.strata)
    assert s == built
    assert validate(s).passed
    assert calls == {"_check_structure": 1, "_block_problems": 1}


def test_validation_caches_nothing_on_the_datum(monkeypatch):
    # The command line validates a datum once, so no report is kept on it:
    # a second call runs both checks again and the datum's table slot stays empty.
    calls = _count_tiers(monkeypatch)
    s = punctured_curve_snc(1, 3)
    first = validate(s)
    assert first.passed and s._table is None
    assert validate(s) == first
    assert calls == {"_check_structure": 2, "_block_problems": 2}
    assert s._table is None


def test_squares_cost_one_product_per_pair_of_differentials(monkeypatch):
    # The squares are read off d after d: in each graded degree, one product
    # per pair of consecutive differentials, and no product per square.
    s = torus_snc(4)
    products = Counter()
    real = IntMatrix.__mul__

    def counted(a, b):
        products["mul"] += 1
        return real(a, b)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    assert validate(s).passed
    assert products["mul"] == sum(len(s.levels) - 2 for _ in s.graded_degrees()) == 15


def test_shape_failure_skips_the_squares(monkeypatch):
    calls = _count_tiers(monkeypatch)
    s = SncDatum(1, 1, {
        (): StratumData({0: F(1)}, {}),
        (1,): StratumData({0: F(1)}, {1: {0: IntMatrix.from_rows([[1, 0]])}}),
    })
    rep = validate(s)
    assert not rep.passed and any("has shape" in d for d in rep.details)
    assert calls == {"_check_structure": 1}


def test_record_semantics():
    check_record(StratumData, ("cohomology", "restrictions"),
                 ({0: F(1)}, {1: {0: ONE}}), ({0: F(1)}, {1: {0: IntMatrix.identity(1)}}),
                 ({0: F(1)}, {1: {0: IntMatrix.from_rows([[2]])}}),
                 hashable=False)
    point = {(): StratumData({0: F(1)}, {})}
    check_record(SncDatum, ("dim", "n_components", "strata"),
                 (0, 0, point), (0, 0, {(): StratumData({0: F(1)}, {})}), (1, 0, point),
                 hashable=False)
    check_record(Report, ("name", "passed", "details"),
                 ("euler", False, ("x",)), ("euler", False, ("x",)), ("euler", True, ("x",)))
    assert Report("euler", True).details == ()


def test_validated_datum_equals_a_fresh_one():
    # A validated datum whose table is cached on it still equals, and reprs
    # as, a fresh one with the same content.
    from sncweight.weight import weight_cohomology_table

    built = torus_snc(2)
    assert validate(built).passed
    weight_cohomology_table(built)
    assert built._table is not None
    fresh = SncDatum(built.dim, built.n_components, dict(built.strata))
    assert fresh == built and built == fresh
    assert repr(fresh) == repr(built) and "_table" not in repr(built)
    with pytest.raises(AttributeError):
        built._table = None
