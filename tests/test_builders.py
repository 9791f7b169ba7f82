import json
from functools import reduce

import pytest

from sncweight.abgroup import FpAbPresentation, canonical_form
from sncweight.builders import (
    DatumParseError,
    affine_space_snc,
    builder_betti,
    example_names,
    parse_builder,
    point_snc,
    projective_space_cohomology,
    punctured_curve_snc,
    torus_snc,
)
from sncweight.checks import degeneration_check, product_snc
from sncweight.datafile import datum_from_dict, datum_to_dict, from_json, to_json
from sncweight.intmat import IntMatrix
from sncweight.sncdata import SncDatum, StratumData
from sncweight.weight import validate, weight_cohomology_table

from _support import BUILDER_SPECS, check_nerve_identity


def torsion_datum():
    coh = {0: FpAbPresentation.free(1),
           2: FpAbPresentation.from_relation_columns(2, [[0, 2]])}
    return SncDatum(1, 1, {
        (): StratumData(coh, {}),
        (1,): StratumData({0: FpAbPresentation.free(1)}, {1: {0: IntMatrix.identity(1)}}),
    })


def test_projective_space_cohomology():
    assert sorted(projective_space_cohomology(0)) == [0]
    assert sorted(projective_space_cohomology(2)) == [0, 2, 4]
    assert all(canonical_form(p).free_rank == 1
               for p in projective_space_cohomology(3).values())


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        affine_space_snc(0)
    with pytest.raises(ValueError):
        punctured_curve_snc(1, 0)
    with pytest.raises(ValueError):
        punctured_curve_snc(-1, 1)
    assert torus_snc(0) == point_snc()


def test_every_builder_validates():
    data = [point_snc(), punctured_curve_snc(0, 1)]
    data += [torus_snc(n) for n in range(5)]
    data += [affine_space_snc(d) for d in range(1, 5)]
    for s in data:
        assert validate(s).passed


def test_builders_validate_from_scratch():
    # Builders are valid by construction and skip validation when built.
    # Through the dict format the copy carries no cached table, so validate
    # proves every invariant anew.
    for spec in BUILDER_SPECS:
        s = parse_builder(spec)
        copy = datum_from_dict(datum_to_dict(s))
        assert copy == s and copy._table is None
        rep = validate(copy)
        assert rep.passed, (spec, rep.details)


def test_torus_is_the_nested_product_of_its_factor():
    # The direct builder keeps the product's generator order and matrices,
    # so examples torus:N writes the same bytes.
    for n in range(1, 6):
        direct, nested = torus_snc(n), reduce(product_snc, [torus_snc(1)] * n)
        assert direct == nested, n
        assert to_json(direct) == to_json(nested), n


def test_torus_strata_share_their_restriction_matrices():
    # torus:8 writes 116 640 restriction matrices, but each depends only on
    # |F(I)|, the rank of the factor in F(I) + {f} and the degree: 204 objects.
    s = torus_snc(8)
    matrices = [mat for stratum in s.strata.values()
                for per_degree in stratum.restrictions.values() for mat in per_degree.values()]
    assert len(s.strata) == 3 ** 8
    assert len(matrices) == 116_640
    assert len(set(map(id, matrices))) <= 204


def test_round_trip_affine():
    s = affine_space_snc(2)
    text = to_json(s)
    back = datum_from_dict(json.loads(text))
    assert back == s


def test_round_trip_preserves_torsion(tmp_path):
    s = torsion_datum()
    path = tmp_path / "torsion.json"
    path.write_text(to_json(s))
    back = from_json(path)
    assert back == s
    assert back.strata[()].cohomology[2].relations == s.strata[()].cohomology[2].relations
    assert weight_cohomology_table(back).entries_equal(weight_cohomology_table(s))


def test_round_trip_all_builders():
    for name in example_names():
        s = parse_builder(name)
        assert datum_from_dict(json.loads(to_json(s))) == s


def test_serialization_is_deterministic():
    assert to_json(torus_snc(2)) == to_json(torus_snc(2))


def test_malformed_subset_rejected():
    base = json.loads(to_json(affine_space_snc(1)))
    base["strata"][1]["subset"] = [2, 1]
    with pytest.raises(DatumParseError, match="malformed subset"):
        datum_from_dict(base)
    base["strata"][1]["subset"] = [0]
    with pytest.raises(DatumParseError, match="malformed subset"):
        datum_from_dict(base)
    base["strata"][1]["subset"] = "nope"
    with pytest.raises(DatumParseError, match="malformed subset"):
        datum_from_dict(base)


def test_parse_errors():
    with pytest.raises(DatumParseError):
        datum_from_dict([])
    with pytest.raises(DatumParseError):
        datum_from_dict({"dim": 1, "components": 1})
    with pytest.raises(DatumParseError):
        datum_from_dict({
            "dim": 1, "components": 1,
            "strata": [{"subset": [], "cohomology": {"x": {"generators": 1}}}],
        })
    with pytest.raises(DatumParseError):
        datum_from_dict({
            "dim": 1, "components": 1,
            "strata": [{"subset": [], "cohomology": {"0": {"generators": 1,
                                                           "relations": [[1, 2]]}}}],
        })
    with pytest.raises(DatumParseError):
        from_json("/nonexistent/path.json")


def test_parse_builder_specs():
    assert parse_builder("point") == point_snc()
    assert parse_builder("affine:3") == affine_space_snc(3)
    assert parse_builder("torus:2") == torus_snc(2)
    assert parse_builder("curve:1,2") == punctured_curve_snc(1, 2)
    for bad in ("bogus", "affine", "affine:x", "curve:1", "point:3"):
        with pytest.raises(ValueError):
            parse_builder(bad)


def test_builder_betti_matches_degeneration():
    for name in example_names():
        rep = degeneration_check(parse_builder(name), builder_betti(name))
        assert rep.passed, (name, rep.details)


def test_all_builders_pass_every_check():
    from sncweight.checks import euler_check

    for name in example_names():
        s = parse_builder(name)
        assert check_nerve_identity(s).passed, name
        assert euler_check(s).passed, name


def test_parse_rejects_bad_nested_types():
    base = {"dim": 1, "components": 1, "strata": [
        {"subset": [], "cohomology": {"0": {"generators": 1, "relations": []}},
         "restrictions": "nope"},
    ]}
    with pytest.raises(DatumParseError):
        datum_from_dict(base)
    base = {"dim": 1, "components": 1, "strata": [
        {"subset": [1], "cohomology": {"0": {"generators": 1, "relations": []}},
         "restrictions": {"1": {"0": [[1], [1, 2]]}}},
    ]}
    with pytest.raises(DatumParseError):
        datum_from_dict(base)
