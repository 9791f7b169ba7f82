"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every comparison is exact (integer canonical forms); there are no
numerical tolerances anywhere.
"""

import random
import time

from sncweight.abgroup import FgAbGroup, canonical_form, FpAbPresentation
from sncweight.builders import (
    affine_space_snc,
    point_snc,
    punctured_curve_snc,
    torus_snc,
)
from sncweight.checks import (
    a1_stability_check,
    degeneration_check,
    euler_check,
    product_snc,
    tensor_table,
)
from sncweight.dual import (
    STATUS_CONTRACTIBLE,
    edge_path_presentation,
    nerve,
    real_projective_plane,
    reduced_cohomology,
    simplify_presentation,
)
from sncweight.weight import weight_cohomology_table

from _support import (
    check_nerve_identity,
    check_smith_diagonal,
    contractibility,
    oracle_canonical_form,
    oracle_cochain_cohomology,
    random_matrix,
    random_valid_datum,
    verify_complex,
)

Z = FgAbGroup.free(1)


def _report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _builder_corpus():
    corpus = [("point", point_snc())]
    corpus += [(f"affine:{d}", affine_space_snc(d)) for d in range(1, 5)]
    corpus += [(f"torus:{n}", torus_snc(n)) for n in range(1, 4)]
    corpus += [
        (f"curve:{g},{n}", punctured_curve_snc(g, n))
        for g in range(0, 3)
        for n in range(1, 4)
    ]
    pieces = {"affine:1": affine_space_snc(1), "torus:1": torus_snc(1)}
    for lname, left in pieces.items():
        for rname, right in pieces.items():
            corpus.append((f"{lname} x {rname}", product_snc(left, right)))
    return corpus


def test_criterion_1_affine_line_table():
    table = weight_cohomology_table(affine_space_snc(1))
    ok = dict(table.entries) == {(0, 2): Z}
    _report(1, "affine line table is exactly Z in bidegree (0, 2)", ok)


def test_criterion_2_nerve_identity_suite():
    failures = []
    for name, datum in _builder_corpus():
        rep = check_nerve_identity(datum)
        if not rep.passed:
            failures.append(name)
    _report(2, "nerve cohomology matches the b=0 table row over the whole corpus",
            not failures)


def test_criterion_3_d_squared_suite():
    from sncweight.weight import validate
    from sncweight.weight import weight_complex

    failures = []
    for name, datum in _builder_corpus():
        for b in datum.graded_degrees():
            if not verify_complex(weight_complex(datum, b)).passed:
                failures.append((name, b))
    rng = random.Random(20260809)
    for i in range(200):
        datum = random_valid_datum(rng, max_factors=2)
        assert validate(datum).passed
        for b in datum.graded_degrees():
            if not verify_complex(weight_complex(datum, b)).passed:
                failures.append(("random", i, b))
    _report(3, "d squared is zero for the corpus and 200 randomized valid data",
            not failures)


def test_criterion_4_compactification_independence():
    plane = weight_cohomology_table(affine_space_snc(2))
    product = weight_cohomology_table(product_snc(affine_space_snc(1), affine_space_snc(1)))
    ok = (
        plane.entries_equal(product)
        and dict(plane.entries) == {(0, 4): Z}
    )
    _report(4, "two compactifications of the affine plane give the same table", ok)


def test_criterion_5_affine_line_stability():
    cases = [point_snc(), affine_space_snc(1), torus_snc(1), torus_snc(2),
             punctured_curve_snc(1, 1)]
    ok = all(a1_stability_check(s, affine_space_snc(1)).passed for s in cases)
    _report(5, "crossing with the affine line shifts every table by (0, +2)", ok)


def test_criterion_6_rp2_torsion():
    rp2 = real_projective_plane()
    got = reduced_cohomology(rp2)
    expected = {2: FgAbGroup(0, (2,))}
    ok = got == expected

    # Independent oracle: dense reduction over the full incidence matrices,
    # built here from scratch out of the face lists.
    layers = [rp2.faces_of_card(c) for c in (1, 2, 3)]
    dims = [1] + [len(layer) for layer in layers]
    deltas = [[[1] for _ in layers[0]]]
    for c in (1, 2):
        src = {f: i for i, f in enumerate(layers[c - 1])}
        rows = [[0] * len(layers[c - 1]) for _ in layers[c]]
        for r, face in enumerate(layers[c]):
            for pos in range(len(face)):
                rows[r][src[face[:pos] + face[pos + 1:]]] += (-1) ** pos
        deltas.append(rows)
    oracle = oracle_cochain_cohomology(dims, deltas)
    # Degrees shift by one because index 0 is the empty face.
    ok = ok and oracle == {3: (0, (2,))}
    _report(6, "the 6-vertex projective plane has reduced cohomology (0, 0, Z/2)", ok)


def test_criterion_7_sphere_checks():
    ok = reduced_cohomology(nerve(torus_snc(1))) == {0: Z}
    ok = ok and reduced_cohomology(nerve(torus_snc(2))) == {1: Z}
    pres = simplify_presentation(edge_path_presentation(nerve(torus_snc(2))))
    ok = ok and pres.n_generators == 1 and pres.relators == ()
    _report(7, "torus nerves are the expected spheres and pi_1 of the square is Z", ok)


def test_criterion_8_contractibility():
    ok = all(
        contractibility(affine_space_snc(d)).status == STATUS_CONTRACTIBLE
        for d in range(1, 5)
    )
    _report(8, "affine space nerves are certified contractible for d = 1..4", ok)


def test_criterion_9_degeneration_betti():
    ok = degeneration_check(torus_snc(1), {1: 1, 2: 1}).passed
    ok = ok and degeneration_check(torus_snc(2), {2: 1, 3: 2, 4: 1}).passed
    t1 = weight_cohomology_table(torus_snc(1))
    square = tensor_table(t1, t1)
    ok = ok and square.entries_equal(weight_cohomology_table(torus_snc(2)))
    for g in range(0, 3):
        for n in range(1, 4):
            expected = {1: n - 1 + 2 * g, 2: 1}
            ok = ok and degeneration_check(punctured_curve_snc(g, n), expected).passed
    _report(9, "total ranks match the known compactly supported Betti numbers", ok)


def test_criterion_10_euler_suite():
    ok = True
    for d in range(1, 5):
        rep = euler_check(affine_space_snc(d))
        ok = ok and rep.passed and rep.details[0].startswith("table side 1,")
    for n in range(1, 4):
        rep = euler_check(torus_snc(n))
        ok = ok and rep.passed and rep.details[0].startswith("table side 0,")
    for g in range(0, 3):
        for n in range(1, 4):
            rep = euler_check(punctured_curve_snc(g, n))
            value = 2 - 2 * g - n
            ok = ok and rep.passed and rep.details[0].startswith(f"table side {value},")
    _report(10, "euler characteristics agree and take the known values", ok)


def test_criterion_11_snf_property_suite():
    start = time.monotonic()
    rng = random.Random(1234)
    ok = True
    for _ in range(1000):
        a = random_matrix(rng, max_dim=8, bound=20)
        try:
            check_smith_diagonal(a)
        except AssertionError:
            ok = False
        free, torsion = oracle_canonical_form(a.rows, a.to_rows())
        got = canonical_form(FpAbPresentation(a.rows, a))
        ok = ok and got == FgAbGroup(free, torsion)
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(11, f"1000 randomized normal forms verified in {elapsed:.1f}s (limit 30s)", ok)
