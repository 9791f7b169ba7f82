import random

import pytest

import sncweight.dual
from sncweight.abgroup import FgAbGroup, FpAbPresentation, canonical_form
from sncweight.builders import affine_space_snc, punctured_curve_snc, torus_snc
from sncweight.chain import CochainComplex, cohomology
from sncweight.dual import (
    DisconnectedComplexError,
    GroupPresentation,
    SimplicialComplex,
    complex_from_dict,
    edge_path_presentation,
    euler_characteristic,
    nerve,
    real_projective_plane,
    reduced_cochain_complex,
    reduced_cohomology,
    simplify_presentation,
)
from sncweight.intmat import IntMatrix

from _support import (
    abelianization,
    check_record,
    connected_sum,
    crosscap_surface,
    genus_two_surface,
    oracle_simplify_presentation,
    random_group_presentation,
    rp2_triangles,
    surface_json,
    torus_grid,
    verify_complex,
)

Z = FgAbGroup.free(1)


@pytest.fixture(autouse=True)
def every_reduced_complex_is_a_complex(monkeypatch):
    """reduced_cohomology skips verify_complex: the simplicial coboundary
    squares to zero by construction.  Every complex it builds in these
    tests is verified here instead."""
    build = sncweight.dual.reduced_cochain_complex

    def verified(k):
        c = build(k)
        rep = verify_complex(c)
        assert rep.passed, rep.details
        return c

    monkeypatch.setattr(sncweight.dual, "reduced_cochain_complex", verified)


def cycle(n):
    verts = range(1, n + 1)
    edges = [(i, i % n + 1) for i in verts]
    return SimplicialComplex.from_facets(verts, edges)


def test_from_facets_closure():
    k = SimplicialComplex.from_facets([1, 2, 3, 9], [(1, 2, 3)])
    assert (1, 2) in k.faces and (2, 3) in k.faces and (9,) in k.faces
    assert k.dim == 2
    assert k.faces_of_card(2) == [(1, 2), (1, 3), (2, 3)]
    assert k.faces_of_card(0) == k.faces_of_card(4) == []
    # The faces are grouped by size once; the groups are not fields.
    assert k == SimplicialComplex(k.vertices, frozenset(k.faces))
    assert "_by_card" not in repr(k)
    empty = SimplicialComplex((), frozenset())
    assert empty.dim == -1 and empty.faces_of_card(1) == []


def test_nerve_examples():
    for d in (1, 2, 4):
        k = nerve(affine_space_snc(d))
        assert k.vertices == (1,) and k.faces == frozenset({(1,)})
    k1 = nerve(torus_snc(1))
    assert k1.vertices == (1, 2) and k1.faces_of_card(2) == []
    k2 = nerve(torus_snc(2))
    assert len(k2.vertices) == 4
    assert k2.faces_of_card(2) == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert k2.faces_of_card(3) == []
    kc = nerve(punctured_curve_snc(0, 3))
    assert kc.vertices == (1, 2, 3) and kc.faces_of_card(2) == []


def test_reduced_cochain_complex_point():
    k = SimplicialComplex.from_facets([0], [])
    c = reduced_cochain_complex(k)
    assert list(c.degrees) == [-1, 0]
    assert verify_complex(c).passed
    assert reduced_cohomology(k) == {}


def test_reduced_cohomology_spheres():
    s0 = SimplicialComplex.from_facets([1, 2], [])
    assert reduced_cohomology(s0) == {0: Z}
    assert reduced_cohomology(cycle(4)) == {1: Z}
    filled = SimplicialComplex.from_facets([1, 2, 3], [(1, 2, 3)])
    assert reduced_cohomology(filled) == {}


def test_reduced_cohomology_empty_complex():
    empty = SimplicialComplex.from_facets([], [])
    assert reduced_cohomology(empty) == {-1: Z}


def test_reduced_cohomology_rp2():
    rp2 = real_projective_plane()
    assert len(rp2.faces_of_card(1)) == 6
    assert len(rp2.faces_of_card(2)) == 15
    assert len(rp2.faces_of_card(3)) == 10
    assert reduced_cohomology(rp2) == {2: FgAbGroup(0, (2,))}


def test_cone_over_complex_is_acyclic():
    rng = random.Random(61)
    for _ in range(10):
        base = _random_two_complex(rng)
        apex = max(base.vertices, default=0) + 1
        facets = [f + (apex,) for f in base.faces]
        coned = SimplicialComplex.from_facets(list(base.vertices) + [apex], facets)
        assert reduced_cohomology(coned) == {}


def test_reduced_cochain_complexes_are_complexes():
    # Simplices up to dimension 5, cones and surfaces: every sign of the
    # alternating face rule is exercised.
    cases = [SimplicialComplex.from_facets(range(n), [tuple(range(n))]) for n in range(1, 7)]
    cases += [cycle(5), real_projective_plane(),
              SimplicialComplex.from_facets(range(16), torus_grid(4, 4))]
    rng = random.Random(97)
    for _ in range(5):
        base = _random_two_complex(rng)
        apex = max(base.vertices, default=0) + 1
        cases.append(SimplicialComplex.from_facets(list(base.vertices) + [apex],
                                                   [f + (apex,) for f in base.faces]))
    for k in cases:
        rep = verify_complex(reduced_cochain_complex(k))
        assert rep.passed, rep.details


def test_euler_characteristic():
    assert euler_characteristic(SimplicialComplex.from_facets([5], [])) == 1
    assert euler_characteristic(cycle(4)) == 0
    assert euler_characteristic(real_projective_plane()) == 1


def test_edge_path_tree():
    tree = SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (2, 3)])
    p = edge_path_presentation(tree)
    assert p.n_generators == 0 and p.relators == ()


def test_edge_path_cycle_and_filled_triangle():
    p = edge_path_presentation(cycle(4))
    assert p.n_generators == 1 and p.relators == ()
    filled = SimplicialComplex.from_facets([1, 2, 3], [(1, 2, 3)])
    p = edge_path_presentation(filled)
    assert p.n_generators == 1
    assert [tuple(abs(x) for x in r) for r in p.relators] == [(1,)]


def test_edge_path_disconnected():
    s0 = SimplicialComplex.from_facets([1, 2], [])
    with pytest.raises(DisconnectedComplexError) as err:
        edge_path_presentation(s0)
    assert err.value.components == [(1,), (2,)]


def test_simplify_examples():
    assert simplify_presentation(GroupPresentation(1, ((1,),))).is_trivial
    assert simplify_presentation(GroupPresentation(2, ((1, 2), (2,)))).is_trivial
    free = GroupPresentation(1, ())
    assert simplify_presentation(free) == free


def test_simplify_respects_budget():
    p = GroupPresentation(2, ((1, 2), (2,)))
    assert simplify_presentation(p, budget=0) == GroupPresentation(2, ((2,), (1, 2)))


def test_simplify_rp2_presentation():
    p = edge_path_presentation(real_projective_plane())
    simp = simplify_presentation(p)
    # pi_1 = Z/2: one generator whose square dies.
    assert simp.n_generators == 1
    assert canonical_form(abelianization(simp)) == FgAbGroup(0, (2,))


def _random_two_complex(rng):
    n = rng.randint(3, 6)
    verts = list(range(1, n + 1))
    facets = [(i, i + 1) for i in range(1, n)]  # spanning path keeps it connected
    for _ in range(rng.randint(0, 6)):
        e = tuple(sorted(rng.sample(verts, 2)))
        facets.append(e)
    for _ in range(rng.randint(0, 4)):
        t = tuple(sorted(rng.sample(verts, 3)))
        facets.append(t)
    return SimplicialComplex.from_facets(verts, facets)


SIMPLIFY_BUDGETS = (0, 1, 3, 10, 50, 200, 10_000)


def _assert_simplify_matches_oracle(p):
    for budget in SIMPLIFY_BUDGETS:
        got = simplify_presentation(p, budget)
        want = oracle_simplify_presentation(p, budget)
        assert got == want and str(got) == str(want), (p, budget)


def test_simplify_matches_the_quadratic_oracle_on_random_words():
    rng = random.Random(71)
    for _ in range(600):
        _assert_simplify_matches_oracle(random_group_presentation(rng))


def test_simplify_matches_the_quadratic_oracle_on_complexes():
    # The random complexes are connected by construction: edge_path_presentation
    # raises DisconnectedComplexError on any that is not.
    rng = random.Random(73)
    for _ in range(40):
        k = _random_two_complex(rng)
        _assert_simplify_matches_oracle(edge_path_presentation(k))
    surfaces = (genus_two_surface(), crosscap_surface(), rp2_triangles(),
                connected_sum(torus_grid(3, 3), torus_grid(3, 4)))
    for tris in surfaces:
        k = complex_from_dict(surface_json(tris))
        _assert_simplify_matches_oracle(edge_path_presentation(k))


def test_simplify_rewrites_only_the_relators_that_hold_the_generator(monkeypatch):
    # Re-keying every relator after every elimination made about 50 canonical
    # keys per triangle on this surface, and 160 on a 952-face genus-2 surface.
    import sncweight.dual as dual

    tris = genus_two_surface()
    p = edge_path_presentation(complex_from_dict(surface_json(tris)))
    calls = []
    key = dual._canonical_relator
    monkeypatch.setattr(dual, "_canonical_relator", lambda w: calls.append(w) or key(w))
    simp = simplify_presentation(p, 200_000)
    assert simp.n_generators == 4 and len(simp.relators) == 1
    assert len(calls) < 20 * len(tris)


def _homological_h1(k):
    """H_1 from boundary maps of the chain complex, as degree 1 of C_2 -> C_1 -> C_0."""
    edges = k.faces_of_card(2)
    tris = k.faces_of_card(3)
    verts = list(k.vertices)
    v_index = {v: i for i, v in enumerate(verts)}
    e_index = {e: i for i, e in enumerate(edges)}
    d1 = IntMatrix.zeros(len(verts), len(edges)).to_rows()
    for j, (a, b) in enumerate(edges):
        d1[v_index[a]][j] -= 1
        d1[v_index[b]][j] += 1
    d2 = IntMatrix.zeros(len(edges), len(tris)).to_rows()
    for j, (a, b, c) in enumerate(tris):
        d2[e_index[(b, c)]][j] += 1
        d2[e_index[(a, c)]][j] -= 1
        d2[e_index[(a, b)]][j] += 1
    F = FpAbPresentation.free
    c = CochainComplex(0, (F(len(tris)), F(len(edges)), F(len(verts))),
                       (IntMatrix.from_rows(d2, len(tris)), IntMatrix.from_rows(d1, len(edges))))
    return cohomology(c).get(1, FgAbGroup.zero())


def test_abelianized_edge_path_matches_h1():
    cases = [nerve(torus_snc(2)), cycle(5), real_projective_plane()]
    rng = random.Random(67)
    cases.extend(_random_two_complex(rng) for _ in range(20))
    # Every case is connected: edge_path_presentation raises on one that is not.
    for k in cases:
        p = edge_path_presentation(k)
        assert canonical_form(abelianization(p)) == _homological_h1(k)
        simp = simplify_presentation(p)
        assert canonical_form(abelianization(simp)) == _homological_h1(k)


def test_complex_json_round_trip():
    rp2 = real_projective_plane()
    back = complex_from_dict(surface_json(rp2_triangles()))
    assert back == SimplicialComplex(tuple(v - 1 for v in rp2.vertices),
                                     frozenset(tuple(v - 1 for v in f) for f in rp2.faces))
    assert reduced_cohomology(back) == reduced_cohomology(rp2)
    with pytest.raises(ValueError):
        complex_from_dict({"vertices": 2, "facets": [[0, 5]]})
    with pytest.raises(ValueError):
        complex_from_dict({"facets": []})


def test_record_semantics():
    check_record(SimplicialComplex, ("vertices", "faces"),
                 ((1, 2), frozenset({(1,), (2,), (1, 2)})),
                 ((1, 2), frozenset({(1, 2), (2,), (1,)})),
                 ((1, 2), frozenset({(1,), (2,)})))
    assert cycle(4) == cycle(4) != cycle(5)
    check_record(GroupPresentation, ("n_generators", "relators"),
                 (2, ((1, 2, -1, -2),)), (2, ((1, 2, -1, -2),)), (2, ()))
    with pytest.raises(ValueError, match="relator letter 3 out of range"):
        GroupPresentation(2, ((3,),))
