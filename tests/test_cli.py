import json

import pytest

from sncweight.abgroup import FpAbPresentation
from sncweight.builders import affine_space_snc, parse_builder, torus_snc
from sncweight.cli import CHECK_SUITES, main
from sncweight.datafile import to_json
from sncweight.intmat import IntMatrix
from sncweight.sncdata import MAX_COUNT, SncDatum, StratumData

from _support import curve_chain_datum, rp2_triangles, surface_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_builder_text(capsys):
    code, out, _ = run(capsys, "compute", "--builder", "torus:1")
    assert code == 0
    assert "input: torus:1" in out
    # Z at (1, 0) and at (0, 2).
    assert "b\\a" in out and "Z" in out


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--builder", "affine:1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,free_rank,torsion", "0,2,1,"]


def test_compute_json_and_rational(capsys):
    code, out, _ = run(capsys, "compute", "--builder", "torus:2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2 and obj["components"] == 4
    assert {(e["a"], e["b"]): e["free_rank"] for e in obj["entries"]} == {
        (2, 0): 1, (1, 2): 2, (0, 4): 1,
    }
    code, out2, _ = run(capsys, "compute", "--builder", "torus:2", "--format", "json",
                        "--rational")
    assert code == 0
    assert json.loads(out2)["rational"] is True


def test_compute_deterministic(capsys):
    _, first, _ = run(capsys, "compute", "--builder", "curve:1,2", "--format", "json")
    _, second, _ = run(capsys, "compute", "--builder", "curve:1,2", "--format", "json")
    assert first == second


def test_compute_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "compute", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run(capsys, "compute")
    assert code == 2


def test_compute_flat_matrix_exit_2(capsys, tmp_path):
    # A restriction matrix given as a flat list is a parse error, not a crash,
    # and so are bool, float and ragged entries of a matrix or a relation.
    flat = tmp_path / "flat.json"
    matrix_message = "matrix rows must be equal-length integer lists"
    relation_message = "each relation must be an integer column of length 1"
    cases = [("restrictions", m, matrix_message)
             for m in ([1], [[True]], [[1.5]], [[1], [1, 0]])]
    cases += [("relations", r, relation_message) for r in ([[True]], [[1.5]], [[2, 0]])]
    for field, value, message in cases:
        obj = json.loads(to_json(affine_space_snc(1)))
        for entry in obj["strata"]:
            if entry["subset"] == [1]:
                if field == "restrictions":
                    entry["restrictions"] = {"1": {"0": value}}
                else:
                    entry["cohomology"]["0"]["relations"] = value
        flat.write_text(json.dumps(obj))
        code, out, err = run(capsys, "compute", str(flat))
        assert code == 2, value
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert message in lines[0], lines[0]


def _one_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), argv
    assert message in lines[0], lines[0]


def _set_count(obj, field, value):
    if field == "generators":
        obj["strata"][0]["cohomology"]["2"]["generators"] = value
    else:
        obj[field] = value


def test_count_fields_are_bounded_exit_2(capsys, tmp_path):
    # Counts above the bound fail at parse time, before anything is allocated
    # by them; a count of 10**30 used to hang or be killed for its memory.
    base = json.loads(to_json(affine_space_snc(1)))
    assert base["strata"][0]["subset"] == []
    for field in ("dim", "components", "generators"):
        for value in (MAX_COUNT + 1, 10**30):
            obj = json.loads(json.dumps(base))
            _set_count(obj, field, value)
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(obj))
            for argv in (("compute", str(path)), ("check", str(path), "all")):
                _one_parse_error(capsys, argv, f"must be at most {MAX_COUNT}")
    path = tmp_path / "complex.json"
    for value in (MAX_COUNT + 1, 10**30):
        path.write_text(json.dumps({"vertices": value, "facets": [[0, 1, 2]]}))
        _one_parse_error(capsys, ("dual", str(path), "--complex"),
                         f'"vertices" must be at most {MAX_COUNT}')


def test_deeply_nested_json_exit_2(capsys, tmp_path):
    # 100,000 nested brackets used to end in a RecursionError traceback.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    for argv in (("compute", str(path)), ("check", str(path), "all"), ("dual", str(path)),
                 ("dual", str(path), "--complex")):
        _one_parse_error(capsys, argv, "nested too deeply")


_HUGE = "9" * 4301  # longer than Python's int-string limit: only text can hold it


def test_integer_too_long_to_read_exit_2(capsys, tmp_path):
    # Python refuses int literals over 4300 digits with a ValueError that is
    # not a JSONDecodeError; it used to end datum reads in a traceback.
    text = to_json(affine_space_snc(1)).replace('"generators": 1', f'"generators": {_HUGE}', 1)
    assert _HUGE in text
    path = tmp_path / "huge.json"
    path.write_text(text)
    for argv in (("compute", str(path)), ("check", str(path), "all"), ("dual", str(path)),
                 ("dual", str(path), "--complex")):
        _one_parse_error(capsys, argv, "holds an integer too long to read")
    path.write_text('{"vertices": 3, "facets": [[0, 1, %s]]}' % _HUGE)
    _one_parse_error(capsys, ("dual", str(path), "--complex"),
                     "holds an integer too long to read")


def test_oversized_product_exit_2(capsys, tmp_path):
    # A stratum with 10^4 generators: the self-product of product-consistency
    # would have about 10^8 of them (7.5 s and 2.3 GB before the budget).
    import time

    obj = json.loads(to_json(affine_space_snc(1)))
    assert obj["strata"][0]["subset"] == []
    obj["strata"][0]["cohomology"]["2"]["generators"] = 10_000
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    for suite in ("d2", "prop1", "euler", "stability"):
        code, out, _ = run(capsys, "check", str(path), suite)
        assert code == 0 and "PASS" in out, suite
    start = time.perf_counter()
    for suite in ("all", "product-consistency"):
        _one_parse_error(capsys, ("check", str(path), suite),
                         "the product would have 100040004 generators, more than 1000000")
    assert time.perf_counter() - start < 1


def _write_cyclic_datum(path, n):
    # dim 1; the total space has H^1 = Z^n modulo the cyclic relation
    # columns 2e_i + 3e_(i+1).  No entry is a unit, so the whole n x n
    # relation matrix is the dense core of its Smith reduction.
    obj = json.loads(to_json(affine_space_snc(1)))
    assert obj["strata"][0]["subset"] == []
    rels = [[0] * n for _ in range(n)]
    for i, col in enumerate(rels):
        col[i] += 2
        col[(i + 1) % n] += 3
    obj["strata"][0]["cohomology"]["1"] = {"generators": n, "relations": rels}
    path.write_text(json.dumps(obj, separators=(",", ":")))


def _write_dense_datum(path, n):
    # dim 2, one boundary curve; both have H^1 = Z^n, free, and the degree-1
    # restriction is dense with entries 2 and 3.  No entry is a unit, so
    # the whole n x n matrix is the dense core of its Smith reduction.
    import random

    rng = random.Random(n)
    one = IntMatrix.identity(1)
    coh = {0: FpAbPresentation.free(1), 1: FpAbPresentation.free(n), 2: FpAbPresentation.free(1)}
    dense = IntMatrix(n, n, [rng.choice((2, 3)) for _ in range(n * n)])
    path.write_text(to_json(SncDatum(2, 1, {
        (): StratumData(coh, {}),
        (1,): StratumData(coh, {1: {0: one, 1: dense, 2: one}}),
    })))


def test_dense_work_over_budget_exit_2(capsys, tmp_path, monkeypatch):
    # The dense reduction is cubic in the generators: 400 are accepted, and
    # 2000 would take minutes.
    import time

    from sncweight import intmat
    from sncweight.intmat import MAX_DENSE_WORK

    assert 400**3 <= MAX_DENSE_WORK < 500**3
    small = tmp_path / "cyclic200.json"
    _write_cyclic_datum(small, 200)
    code, out, err = run(capsys, "compute", str(small), "--format", "csv")
    assert code == 0 and err == ""
    # The relation matrix is 2I + 3P for the cyclic shift P: its cokernel
    # is cyclic of order |det| = 3^200 - 2^200.
    assert out.splitlines() == ["a,b,free_rank,torsion", f"0,1,0,{3**200 - 2**200}", "0,2,1,"]
    # At 2000 generators the column echelon the group stores is lower
    # triangular with unit pivots but the last, so the unit phase leaves
    # no dense core and compute answers.
    big = tmp_path / "cyclic2000.json"
    _write_cyclic_datum(big, 2000)
    # CPU time, which other processes on a loaded machine do not inflate;
    # reading the 8 MB file is most of it.
    start = time.process_time()
    code, out, err = run(capsys, "compute", str(big), "--format", "csv")
    assert time.process_time() - start < 3
    assert code == 0 and err == ""
    assert out.splitlines() == ["a,b,free_rank,torsion", f"0,1,0,{3**2000 - 2**2000}", "0,2,1,"]
    # The checks read that basis too: validation's canonical forms leave
    # no dense core either, and euler reads each rank off its column count.
    for suite, passes in (("all", ["d2", "nerve-identity", "euler", "affine-line-stability",
                                   "degeneration", "product-consistency"]),
                          ("euler", ["euler"])):
        start = time.process_time()
        code, out, err = run(capsys, "check", str(big), suite)
        assert time.process_time() - start < 3, suite
        assert (code, err) == (0, ""), suite
        assert out.splitlines()[1:] == [f"PASS {name}" for name in passes], suite
    # A relation-free datum whose degree-1 differential is a unit-free
    # 500 x 500 matrix is over budget as it stands.
    dense = tmp_path / "dense500.json"
    _write_dense_datum(dense, 500)
    start = time.process_time()
    _one_parse_error(capsys, ("compute", str(dense)),
                     f"a 500x500 dense Smith reduction would take about {500**3} entry "
                     f"updates, more than {MAX_DENSE_WORK}")
    assert time.process_time() - start < 3
    # The dual complex of this datum is a point, so dual needs no reduction.
    # RP^2 leaves a dense core (its Z/2), so with no budget at all its
    # report exits 2 and leaves stdout empty.
    code, out, _ = run(capsys, "examples", "rp2")
    assert code == 0
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(out)
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 0)
    _one_parse_error(capsys, ("dual", str(rp2), "--complex"), "more than 0")


def _relation_budget_datum(bad_shape: bool) -> dict:
    # affine:1 with the total space's H^2 = Z^2 modulo three columns that
    # share their first nonzero row, so their echelon takes two updates.
    # With bad_shape the boundary point's degree-0 restriction has the
    # wrong shape, and the datum fails validation.
    obj = json.loads(to_json(affine_space_snc(1)))
    obj["strata"][0]["cohomology"]["2"] = {"generators": 2,
                                           "relations": [[0, 2], [0, 4], [0, 6]]}
    if bad_shape:
        obj["strata"][1]["restrictions"]["1"]["0"] = [[1, 0]]
    return obj


def test_a_relation_echelon_over_budget_is_refused_as_it_is_read(capsys, tmp_path, monkeypatch):
    # A group's relations are echelonized where the group is built, so a
    # file whose relation echelon is over the budget exits 2 as it is read,
    # in every command and before validation, and the message names the
    # stratum and degree, then gives the shape of their relation matrix.
    from sncweight import intmat

    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_relation_budget_datum(False)))
    bad.write_text(json.dumps(_relation_budget_datum(True)))
    commands = (("compute",), ("check", "all"), ("check", "d2"), ("dual",))
    for command in commands:
        code, out, err = run(capsys, command[0], str(good), *command[1:])
        assert code == 0 and err == "", command
        code, out, err = run(capsys, command[0], str(bad), *command[1:])
        assert code == 1 and "has shape (1, 2)" in out and err == "", command
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 1)
    for path in (good, bad):
        for command in commands:
            _one_parse_error(capsys, (command[0], str(path), *command[1:]),
                             "error: stratum [] degree 2: "
                             "a 2x3 column echelon takes more than 1 entry updates")


def test_a_level_over_budget_only_as_a_sum_of_strata_answers(capsys, tmp_path, monkeypatch):
    # A level's relation basis is the block diagonal of its strata's, so
    # only each stratum's echelon is charged.  Here n disjoint boundary
    # curves each take m - 1 updates, for H^1 = Z^m modulo 2 e_0 and
    # 2 e_0 + e_j: a budget of m - 1 admits every curve, and the n x n
    # Smith core of the Z/2 summands, while the echelon of the whole level
    # would take n (m - 1).
    from sncweight import intmat
    from sncweight.intmat import DenseWorkTooLargeError, column_echelon

    n, m = 3, 28
    columns = [[2] + [0] * (m - 1)] + [[2] + [int(i == j) for i in range(1, m)]
                                       for j in range(1, m)]
    strata = [{"subset": [], "cohomology": {"0": {"generators": 1}, "2": {"generators": 1}}}]
    for i in range(1, n + 1):
        strata.append({"subset": [i], "restrictions": {str(i): {"0": [[1]], "2": [[1]]}},
                       "cohomology": {"0": {"generators": 1}, "2": {"generators": 1},
                                      "1": {"generators": m, "relations": columns}}})
    path = tmp_path / "curves.json"
    path.write_text(json.dumps({"dim": 2, "components": n, "strata": strata}))
    expected = {suite: run(capsys, "check", str(path), suite) for suite in ("all", "euler")}
    code, table, err = run(capsys, "compute", str(path))
    assert code == 0 and err == "" and "Z/2 x Z/2 x Z/2" in table
    assert n**3 <= m - 1
    given = IntMatrix.from_rows([[c[i] for c in columns] for i in range(m)])
    level = IntMatrix.from_blocks(n * m, n * m, [(k * m, k * m, given, 1, True, 1)
                                                 for k in range(n)])
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", m - 1)
    column_echelon(given)
    with pytest.raises(DenseWorkTooLargeError):
        column_echelon(level)
    assert run(capsys, "compute", str(path)) == (0, table, "")
    for suite, answer in expected.items():
        assert answer[0] == 0 and run(capsys, "check", str(path), suite) == answer
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", m - 2)
    _one_parse_error(capsys, ("compute", str(path)),
                     f"error: stratum [1] degree 1: "
                     f"a {m}x{m} column echelon takes more than {m - 2} entry updates")


def test_each_group_is_echelonized_once_where_it_is_read(capsys, tmp_path, monkeypatch):
    # compute, check all and dual each echelonize the relations of the 30
    # relation-carrying curve groups once, as the file is read, and never
    # a level: the weight complexes take each level's basis as the block
    # diagonal of its strata's.
    import random

    import sncweight.abgroup as abgroup

    path = tmp_path / "chain.json"
    path.write_text(to_json(curve_chain_datum(random.Random(1), 30, 6, 12)))
    shapes = []
    real = abgroup.column_echelon

    def counted(a):
        if a.cols:
            shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(abgroup, "column_echelon", counted)
    for argv in (("compute", str(path)), ("check", str(path), "all"), ("dual", str(path))):
        shapes.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert len(shapes) == 30 and set(shapes) == {(6, 2)}, argv


def test_d0_budget_is_charged_on_the_core(capsys, tmp_path, monkeypatch):
    # smith_diagonal reduces only the unit-free core of the total
    # differential D_0 = [d_0 | relations].  So a datum whose D_0 is over
    # the budget as a whole, but whose core is under it, answers.
    import random

    from sncweight import intmat

    path = tmp_path / "chain.json"
    path.write_text(to_json(curve_chain_datum(random.Random(2), 8, 6, 12)))
    code, expected, err = run(capsys, "compute", str(path))
    assert code == 0 and err == ""
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 10**4)
    whole = 8 * 6 * (12 + 2 * 8) ** 2  # the 48 x 28 matrix, estimated whole
    assert whole > intmat.MAX_DENSE_WORK
    assert run(capsys, "compute", str(path)) == (0, expected, "")


def test_dual_computes_each_part_once(capsys, monkeypatch, tmp_path):
    # The contractibility line reuses the nerve, its reduced cohomology and
    # the (simplified) edge-path presentation that the report lines print.
    # A disconnected complex has its components counted from the error of
    # edge_path_presentation, so every report builds one spanning forest.
    import sys

    import sncweight.dual as dual
    from sncweight.intmat import DenseWorkTooLargeError

    names = ("nerve", "reduced_cohomology", "edge_path_presentation", "simplify_presentation",
             "_spanning_forest")
    calls = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.startswith("sncweight.")]
    for name in names:
        real = getattr(dual, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        # Every module that imported the function calls it through its own name.
        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "examples", "rp2")
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(out)
    points = tmp_path / "three_points.json"
    points.write_text('{"vertices": 3, "facets": [[0, 1]]}')
    # torus:3 has a sphere for nerve, so nothing is simplified without
    # --simplify; affine:2 has a contractible one, certified within the
    # --simplify budget.  torus:1 and three_points are disconnected.
    for argv, expected in ((("dual", "--builder", "torus:3"), (1, 1, 1, 0, 1)),
                           (("dual", "--builder", "affine:2"), (1, 1, 1, 1, 1)),
                           (("dual", "--builder", "affine:2", "--simplify", "10"), (1, 1, 1, 1, 1)),
                           (("dual", "--builder", "torus:2", "--simplify", "10"), (1, 1, 1, 1, 1)),
                           (("dual", str(rp2), "--complex", "--simplify", "10"), (0, 1, 1, 1, 1)),
                           (("dual", "--builder", "torus:1", "--simplify", "10"), (1, 1, 1, 0, 1)),
                           (("dual", str(points), "--complex"), (0, 1, 1, 0, 1))):
        calls.update(dict.fromkeys(names, 0))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("input: "), argv
        assert tuple(calls[n] for n in names) == expected, argv
    for argv in (("dual", "--builder", "torus:1"), ("dual", str(points), "--complex")):
        assert "pi1 presentation: skipped, complex has 2 components" in run(capsys, *argv)[1]

    def over_budget(k):
        raise DenseWorkTooLargeError("over budget")

    for module in modules:
        if getattr(module, "reduced_cohomology", None) is not None:
            monkeypatch.setattr(module, "reduced_cohomology", over_budget)
    _one_parse_error(capsys, ("dual", "--builder", "torus:3"), "over budget")


def test_level_differentials_only_between_existing_levels(capsys, monkeypatch):
    # affine:50 has two levels: one weight complex per graded degree (51),
    # each with one differential, and no pair of consecutive differentials
    # for d2 to compose, so d2 builds no complex.
    import sncweight.weight as weight

    calls = []
    real = weight.weight_complex

    def counted(s, b):
        w = real(s, b)
        calls.append(len(w.differentials))
        return w

    monkeypatch.setattr(weight, "weight_complex", counted)
    code, _, _ = run(capsys, "compute", "--builder", "affine:50")
    assert code == 0 and calls == [1] * 51
    calls.clear()
    code, _, _ = run(capsys, "check", "--builder", "affine:50", "d2")
    assert code == 0 and calls == []


def test_validation_takes_the_table_from_the_complexes_it_checks(capsys, monkeypatch, tmp_path):
    # Validation's pass takes the rows of the table that the command reads
    # from the complexes whose squares it reads, so compute on a file
    # builds each graded degree's complex once, and check euler and prop1
    # build no more.  prop1 reads row b = 0 alone, so only the degree-0
    # complex's cohomology is taken, on a file and on a builder alike.
    # check all takes each row once, and d2 reports validation's verdict
    # without building a complex.  dual and check d2 read no table, so no
    # cohomology is taken of the datum's complexes there.
    from collections import Counter

    import sncweight.weight as weight

    built, taken = [], []
    real_complex, real_cohomology = weight.weight_complex, weight.cohomology

    def counted_complex(s, b):
        w = real_complex(s, b)
        built.append((s, b, w))  # kept, so no two complexes share an id
        return w

    def counted_cohomology(c):
        taken.append(c)
        return real_cohomology(c)

    monkeypatch.setattr(weight, "weight_complex", counted_complex)
    monkeypatch.setattr(weight, "cohomology", counted_cohomology)
    path = tmp_path / "torus3.json"
    path.write_text(to_json(torus_snc(3)))
    degrees = torus_snc(3).graded_degrees()
    for argv, complexes, rows in ((("compute", str(path)), 1, degrees),
                                  (("check", str(path), "euler"), 1, degrees),
                                  (("check", str(path), "prop1"), 1, [0]),
                                  (("check", "--builder", "torus:3", "prop1"), 1, [0]),
                                  (("check", str(path), "all"), 1, degrees),
                                  (("dual", str(path)), 1, []),
                                  (("check", str(path), "d2"), 1, [])):
        built.clear()
        taken.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "FAIL" not in out, argv
        # The input is validated before any product of it is built.
        inputs = [(b, w) for s, b, w in built if s is built[0][0]]
        assert built[0][0] == torus_snc(3), argv
        assert Counter(b for b, _ in inputs) == Counter(complexes * degrees), argv
        degree_of = {id(w): b for b, w in inputs}
        assert sorted(degree_of[id(c)] for c in taken if id(c) in degree_of) == rows, argv


def _budget_datum(square_commutes: bool) -> dict:
    # Components 1 and 2 of a fourfold meet in a surface, and every group
    # is Z.  Degree 2 restricts by 2 from the total space, so its D_0 =
    # (2, 2) is a unit-free core; degree 4 restricts by 1, but by -1 along
    # one path unless the square commutes.  Degree 0 restricts by 1.
    def maps(*components):
        return {str(i): {"0": [[1]], "2": [[c2]], "4": [[c4]]} for i, c2, c4 in components}

    groups = {str(b): {"generators": 1} for b in (0, 2, 4)}
    return {"dim": 4, "components": 2, "strata": [
        {"subset": [], "cohomology": groups},
        {"subset": [1], "cohomology": groups, "restrictions": maps((1, 2, 1))},
        {"subset": [2], "cohomology": groups, "restrictions": maps((2, 2, 1))},
        {"subset": [1, 2], "cohomology": groups,
         "restrictions": maps((1, 1, 1), (2, 1, 1 if square_commutes else -1))},
    ]}


def test_an_invalid_datum_is_reported_before_a_table_over_budget(capsys, monkeypatch, tmp_path):
    # Validation takes the table in the pass that checks the squares, one
    # degree at a time.  Degree 2's cohomology is over the budget before
    # degree 4's square is checked, and the budget error waits for the end
    # of the pass: an invalid datum prints its report and exits 1, and a
    # valid one exits 2 with the budget message.  prop1 reads only row
    # b = 0, whose complex has unit pivots alone, so it meets no budget.
    from sncweight import intmat

    paths = {}
    for commutes in (True, False):
        paths[commutes] = tmp_path / f"budget_{commutes}.json"
        paths[commutes].write_text(json.dumps(_budget_datum(commutes)))
    for argv in (("compute",), ("check", "all"), ("check", "prop1")):
        assert run(capsys, argv[0], str(paths[True]), *argv[1:])[0] == 0, argv
    monkeypatch.setattr(intmat, "MAX_DENSE_WORK", 1)
    report = ("FAIL validate\n  commuting squares: paths {} -> {2} -> {1,2} "
              "and {} -> {1} -> {1,2} differ in degree 4\n")
    for argv in (("compute",), ("check", "all"), ("check", "prop1"), ("check", "euler")):
        assert run(capsys, argv[0], str(paths[False]), *argv[1:]) == (1, report, ""), argv
    for argv in (("compute",), ("check", "all"), ("check", "euler")):
        _one_parse_error(capsys, (argv[0], str(paths[True]), *argv[1:]),
                         "error: a 2x1 dense Smith reduction would take about 2 entry "
                         "updates, more than 1")
    code, out, err = run(capsys, "check", str(paths[True]), "prop1")
    assert (code, err) == (0, "") and "PASS nerve-identity\n" in out
    # Neither dual nor d2 reads the table, so neither meets the budget.
    for argv in (("dual",), ("check", "d2")):
        assert run(capsys, argv[0], str(paths[True]), *argv[1:])[0] == 0, argv
        assert run(capsys, argv[0], str(paths[False]), *argv[1:])[0] == 1, argv


def _measured(*argv, timeout=120):
    """(stdout lines, peak RSS in kB) of one cli run that exits 0, in a subprocess.

    The run goes under a small fresh wrapper process that reads its own
    RUSAGE_CHILDREN, so the peak is the command's (plus what the wrapper's
    fork carries), not the test runner's.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    wrapper = ("import resource, subprocess, sys\n"
               "code = subprocess.run(sys.argv[1:]).returncode\n"
               "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    done = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "-m", "sncweight.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout)
    *out, last = done.stdout.splitlines()
    code, peak_kb = map(int, last.split())
    assert code == 0, (argv, done.stderr)
    return out, peak_kb


def test_compute_at_the_affine_bound_finishes():
    # affine:10000 has two strata; building all 10001 levels in every degree
    # used to run past 120 s.
    out, peak_kb = _measured("compute", "--builder", "affine:10000", "--format", "csv",
                             timeout=30)
    assert out == ["a,b,free_rank,torsion", "0,20000,1,"]
    assert peak_kb < 500 * 1024


def test_compute_at_the_other_builder_bounds_stays_small():
    # The affine bound is run by the test above.  torus:8 shares one object
    # per distinct restriction matrix among its 6561 strata and peaks near
    # 44 MB; one matrix object per restriction takes about 121 MB.
    for spec, bound_mb in (("torus:8", 80), ("curve:0,10000", 500), ("curve:5000,1", 500)):
        _, peak_kb = _measured("compute", "--builder", spec)
        assert peak_kb < bound_mb * 1024, spec


def test_bench_tracer_hooks_exist(capsys, tmp_path):
    # bench/tracer.py finds its per-layer counters only through these names;
    # if one goes, the counters read zero instead of failing.  A traced run
    # must also leave every command's exit code and stdout as they are.
    import importlib.util
    from pathlib import Path

    import sncweight.chain as chain
    import sncweight.dual as dual

    assert "cohomology" in chain.__all__
    assert "simplify_presentation" in dual.__all__

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    square = tmp_path / "square.json"
    square.write_text(to_json(_square_datum()))
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(run(capsys, "examples", "rp2")[1])
    commands = [("compute", "--builder", "torus:3", "--format", "json"),
                ("check", str(square), "all"),
                ("check", "--builder", "curve:1,2", "all"),
                ("dual", "--complex", str(rp2), "--simplify", "10")]
    plain = [run(capsys, *argv)[:2] for argv in commands]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run(capsys, *argv)[:2] for argv in commands]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [code for code, _ in plain] == [0, 0, 0, 0]
    assert tracer.counts["chain.cohomology.calls"] > 0
    # Every span is filed under one of the tracer's layers: a module outside
    # them whose function a layer holds at module level would raise KeyError
    # here, as it would in a traced bench run.
    assert set(tracer.module_self_time()) == set(tracing.LAYERS)


def test_complex_faces_are_bounded_exit_2(capsys, tmp_path):
    # The closure of a k-vertex facet has 2^k - 1 faces: a 40-vertex simplex,
    # a file under 200 bytes, used to run without end.
    import time

    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"vertices": 40, "facets": [list(range(40))]}))
    start = time.perf_counter()
    _one_parse_error(capsys, ("dual", str(path), "--complex"),
                     f"a facet of 40 vertices has more than {MAX_COUNT} faces")
    assert time.perf_counter() - start < 1
    # Two 13-vertex facets, each within the bound, share 4095 of their faces.
    path.write_text(json.dumps({"vertices": 14, "facets": [list(range(13)), list(range(1, 14))]}))
    _one_parse_error(capsys, ("dual", str(path), "--complex"),
                     f"the facets have more than {MAX_COUNT} faces")


def test_complex_faces_at_the_bound_are_accepted(capsys, tmp_path):
    # The 13-vertex simplex has 8191 faces; its report is the same as before
    # the bound.
    import hashlib

    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"vertices": 13, "facets": [list(range(13))]}))
    code, out, _ = run(capsys, "dual", str(path), "--complex")
    assert code == 0
    head, report = out.split("\n", 1)
    assert head == f"input: {path}"
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "bb977fe50e133af0e11812e14fb6ec83055f9025823599030d8a3aff18d62eab")


def test_dual_simplify_stdout_is_pinned(capsys, tmp_path):
    # The report of dual --complex --simplify on three surfaces, at budgets
    # that stop before, inside and after the simplification, byte for byte.
    import hashlib

    from _support import crosscap_surface, genus_two_surface, rp2_triangles, surface_json

    pinned = [
        ("genus2", genus_two_surface(),
         "be4b7b1ffbc6391571f75fbbe6a4543b9a463ffc207a9856b8a7addcd09a2f4a"),
        ("crosscap3", crosscap_surface(),
         "e85b71599a59e747a22a73b4167c01b63724efcc58078facff72fb5a8df6ea4a"),
        ("rp2", rp2_triangles(),
         "cbab8c6edc62c358ac6b2443ec165a1b002ed0fd55015773f3f66aedb41750e4"),
    ]
    for name, tris, digest in pinned:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(surface_json(tris)))
        reports = []
        for budget in ("0", "7", "500", "200000"):
            code, out, _ = run(capsys, "dual", str(path), "--complex", "--simplify", budget)
            assert code == 0
            head, report = out.split("\n", 1)
            assert head == f"input: {path}"
            reports.append(report)
        assert hashlib.sha256("".join(reports).encode()).hexdigest() == digest, name


def _mutated_complex_texts(rng):
    """Seeded damaged {vertices, facets} files, as text, from three good ones."""
    from _support import rp2_triangles, surface_json, torus_grid

    bases = [surface_json(rp2_triangles()), surface_json(torus_grid(3, 3)),
             {"vertices": 4, "facets": [[0, 1, 2], [1, 2, 3]]}]

    def damage(obj):
        facets = obj["facets"]
        f = rng.randrange(len(facets))
        kind = rng.randrange(9)
        if kind == 0:
            facets[f][0] = -rng.randint(1, 5)
        elif kind == 1:
            facets[f][-1] = rng.choice((True, False))
        elif kind == 2:
            facets[f][0] = rng.choice((0.0, 1.5, -2.0))
        elif kind == 3:
            facets[f][0] = obj["vertices"] + rng.choice((0, 1, 10**30))
        elif kind == 4:
            facets.insert(f, [])
        elif kind == 5:
            facets[f] = facets[f] + facets[f][:rng.randint(1, 3)]
        elif kind == 6:
            nested = facets[f]
            for _ in range(rng.randint(1, 40)):
                nested = [nested]
            facets[f] = nested
        elif kind == 7:
            obj["facets"] = rng.choice(({"0": facets}, "facets", 7, None, facets[f]))
        else:
            obj["vertices"] = rng.choice((-1, True, 2.5, "6", obj["vertices"] + 3))

    texts = []
    for _ in range(40):
        obj = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.randint(1, 3)):
            if isinstance(obj.get("facets"), list) and obj["facets"]:
                damage(obj)
        texts.append(json.dumps(obj))
    texts.append('{"vertices": 3, "facets": ' + "[" * 100_000 + "]" * 100_000 + "}")
    return texts


def test_dual_complex_fuzz_exits_0_or_2(capsys, tmp_path):
    # Damaged complex files, with and without --simplify at any budget, end in
    # a report (0) or one error line (2), never in a traceback, and quickly.
    import random
    import time

    rng = random.Random(83)
    budgets = ([], ["--simplify", "0"], ["--simplify", "1"], ["--simplify", "2"],
               ["--simplify", str(10**9)])
    path = tmp_path / "complex.json"
    # A negative budget is refused before the file is read.
    path.write_text('{"vertices": 1, "facets": [[0]]}')
    _one_parse_error(capsys, ("dual", str(path), "--complex", "--simplify", "-1"),
                     "--simplify budget -1 is negative")
    outcomes = set()
    for text in _mutated_complex_texts(rng):
        path.write_text(text)
        for extra in budgets:
            start = time.perf_counter()
            code, out, err = run(capsys, "dual", str(path), "--complex", *extra)
            assert time.perf_counter() - start < 5, (text[:200], extra)
            assert code in (0, 2), (text[:200], extra)
            assert "Traceback" not in err
            if code == 2:
                assert out == "" and len(err.splitlines()) == 1, (text[:200], extra)
            outcomes.add(code)
    assert outcomes == {0, 2}


def test_dual_complex_fuzz_in_a_process(tmp_path):
    # The same contract as seen from outside, on a few of the damaged files.
    import random
    import subprocess
    import sys

    texts = _mutated_complex_texts(random.Random(83))
    path = tmp_path / "complex.json"
    for text in (texts[0], texts[2], texts[-1]):  # a bad label, a report, deep nesting
        path.write_text(text)
        cmd = [sys.executable, "-m", "sncweight.cli", "dual", str(path), "--complex",
               "--simplify", str(10**9)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        assert done.returncode in (0, 2), done.stderr
        assert "Traceback" not in done.stderr


def _mutated_datum_texts(rng):
    """Seeded damaged datum files, as text, from three builder datums."""
    bases = [json.loads(to_json(parse_builder(spec)))
             for spec in ("torus:2", "curve:1,2", "affine:2")]
    bad_entries = (-3, True, 1.5, 10**400, "HUGE")
    bad_keys = ("1", "3", "-1", "-2", "x", "1.5", " 2", "+0", "2_0", "", "1000000000")

    def matrices(obj):
        return [(per_degree, b) for entry in obj["strata"]
                for per_degree in entry["restrictions"].values() for b in per_degree]

    def presentations(obj):
        return [p for entry in obj["strata"] for p in entry["cohomology"].values()]

    def rekey(mapping):
        key = rng.choice(sorted(mapping))
        mapping[rng.choice(bad_keys)] = mapping.pop(key)

    def damage(obj):
        strata, n = obj["strata"], obj["components"]
        entry = rng.choice(strata)
        kind = rng.randrange(9)
        if kind == 0:  # a bad matrix entry
            per_degree, b = rng.choice(matrices(obj))
            row = rng.choice(per_degree[b])
            row[rng.randrange(len(row))] = rng.choice(bad_entries)
        elif kind == 1:  # a relation column with a bad entry
            p = rng.choice([p for p in presentations(obj) if p["generators"]])
            column = [rng.randint(-2, 2) for _ in range(p["generators"])]
            column[rng.randrange(len(column))] = rng.choice(bad_entries)
            p["relations"].append(column)
        elif kind == 2:  # a duplicate subset
            strata.append(json.loads(json.dumps(entry)))
        elif kind == 3:  # an out-of-range subset
            entry["subset"] = rng.choice(([0], [n + 1], [-1], [1, n + 1], [10**400]))
        elif kind == 4:  # an odd, negative or non-integer degree key
            if entry["restrictions"] and rng.random() < 0.5:
                rekey(rng.choice(list(entry["restrictions"].values())))
            else:
                rekey(entry["cohomology"])
        elif kind == 5:  # a ragged matrix
            per_degree, b = rng.choice(matrices(obj))
            rows = per_degree[b]
            if rng.random() < 0.5:
                rows[rng.randrange(len(rows))].append(1)
            else:
                rows.append([])
        elif kind == 6:  # a flat matrix
            per_degree, b = rng.choice(matrices(obj))
            per_degree[b] = rng.choice((per_degree[b][0], 1, "1", None))
        elif kind == 7:  # relations that are not a list of lists
            p = rng.choice(presentations(obj))
            p["relations"] = rng.choice(
                (5, "rel", None, {"0": [1]}, [5], [[0] * p["generators"], 2]))
        else:  # a generator count over the bound
            rng.choice(presentations(obj))["generators"] = rng.choice((MAX_COUNT + 1, 10**30))

    texts = []
    for _ in range(90):
        obj = json.loads(json.dumps(rng.choice(bases)))
        damage(obj)
        texts.append(json.dumps(obj).replace('"HUGE"', _HUGE))
    return texts


def _assert_contract(code, out, err, context):
    assert code in (0, 1, 2), context
    assert "Traceback" not in err, context
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, context
        assert err.startswith("error:"), context


def test_datum_fuzz_exits_0_1_or_2(capsys, tmp_path):
    # Damaged datum files end in a result (0), a failed validation or check
    # (1) or one error line (2) under compute, check all and dual, never in
    # a traceback, and quickly.
    import random
    import time

    path = tmp_path / "datum.json"
    outcomes = set()
    for text in _mutated_datum_texts(random.Random(91)):
        path.write_text(text)
        for argv in (("compute", str(path)), ("check", str(path), "all"), ("dual", str(path))):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 5, (text[:200], argv)
            _assert_contract(code, out, err, (text[:200], argv))
            outcomes.add(code)
    assert outcomes == {0, 1, 2}


def test_datum_fuzz_in_a_process(tmp_path):
    # The same contract as seen from outside, on three of the damaged files.
    import random
    import subprocess
    import sys

    texts = _mutated_datum_texts(random.Random(91))
    picks = [next(t for t in texts if _HUGE in t), next(t for t in texts if "true" in t), texts[0]]
    path = tmp_path / "datum.json"
    for text in picks:
        path.write_text(text)
        for argv in (("compute",), ("check", "all"), ("dual",)):
            cmd = [sys.executable, "-m", "sncweight.cli", argv[0], str(path), *argv[1:]]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            _assert_contract(done.returncode, done.stdout, done.stderr, (text[:200], argv))


def test_counts_at_the_bound_are_accepted(capsys, tmp_path):
    obj = json.loads(to_json(affine_space_snc(1)))
    for field in ("dim", "components", "generators"):
        _set_count(obj, field, MAX_COUNT)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "compute", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,free_rank,torsion", f"0,2,{MAX_COUNT},"]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"vertices": MAX_COUNT, "facets": [[0, 1, 2]]}))
    code, out, _ = run(capsys, "dual", str(path), "--complex")
    assert code == 0
    # A triangle and MAX_COUNT - 3 isolated vertices.
    assert f"H~0 = Z^{MAX_COUNT - 3}" in out


def test_builder_sizes_are_bounded_exit_2(capsys, monkeypatch):
    # Each spec is one past a bound, or far past it: torus:14, affine:100000000
    # and curve:0,100000000 used to run without end.  They must fail before
    # any builder runs.
    import sncweight.builders as builders

    def never(*args):
        raise AssertionError("a builder ran on a spec past its bound")

    for name in ("affine_space_snc", "torus_snc", "punctured_curve_snc"):
        monkeypatch.setattr(builders, name, never)
    specs = (
        f"affine:{MAX_COUNT + 1}", "affine:100000000",
        f"curve:0,{MAX_COUNT + 1}", "curve:0,100000000",
        f"curve:{MAX_COUNT // 2},2",  # 2G + N - 1 = MAX_COUNT + 1
        "torus:9", "torus:14",  # 3^9 > MAX_COUNT >= 3^8
    )
    for spec in specs:
        for argv in (("compute", "--builder", spec),
                     ("check", "--builder", spec, "all"),
                     ("examples", spec)):
            _one_parse_error(capsys, argv, f"<= {MAX_COUNT}")


def test_builder_specs_at_the_bound_are_accepted(capsys):
    # curve:0,MAX_COUNT has N at its bound, curve:(MAX_COUNT/2),1 has 2G + N - 1 at it.
    code, out, _ = run(capsys, "compute", "--builder", f"curve:0,{MAX_COUNT}",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,free_rank,torsion", "0,2,1,", f"1,0,{MAX_COUNT - 1},"]
    code, out, _ = run(capsys, "compute", "--builder", f"curve:{MAX_COUNT // 2},1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,free_rank,torsion", f"0,1,{MAX_COUNT},", "0,2,1,"]


def test_non_utf8_file_exit_2(capsys, tmp_path):
    # A file that starts with a UTF-16 byte-order mark is not a UTF-8 datum.
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    for argv in (("compute", str(path)), ("dual", str(path), "--complex")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), argv
        assert "can't decode byte 0xff" in lines[0]


def test_compute_validation_failure_exit_1(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    obj = json.loads(to_json(affine_space_snc(1)))
    obj["strata"] = [s for s in obj["strata"] if s["subset"] != []]
    broken.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "compute", str(broken))
    assert code == 1
    assert "FAIL validate" in out


def test_compute_file_input(capsys, tmp_path):
    path = tmp_path / "torus2.json"
    path.write_text(to_json(torus_snc(2)))
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0
    assert "Z^2" in out


def test_dual_builder(capsys):
    code, out, _ = run(capsys, "dual", "--builder", "affine:3")
    assert code == 0
    assert "contractibility: contractible-certified" in out
    code, out, _ = run(capsys, "dual", "--builder", "torus:2")
    assert code == 0
    assert "sphere-like (S^1)" in out
    assert "H~1 = Z" in out


def test_dual_raw_complex(capsys, tmp_path):
    code, rp2_json, _ = run(capsys, "examples", "rp2")
    path = tmp_path / "rp2.json"
    path.write_text(rp2_json)
    code, out, _ = run(capsys, "dual", str(path), "--complex", "--simplify", "500")
    assert code == 0
    assert "H~2 = Z/2" in out
    assert "euler characteristic: 1" in out
    assert "pi1 simplified: 1 generators, 1 relators" in out


def test_check_all_passes(capsys):
    # On torus:3, product-consistency builds the torus:6-sized self-product
    # and computes its table.
    for spec in ("torus:2", "torus:3"):
        code, out, _ = run(capsys, "check", "--builder", spec, "all")
        assert code == 0, spec
        for name in ("d2", "nerve-identity", "euler", "affine-line-stability",
                      "degeneration", "product-consistency"):
            assert f"PASS {name}" in out


def test_check_all_passes_when_boundary_curves_do_not_meet(capsys, tmp_path):
    # The datum stores no stratum {1, 2}; stability and product-consistency
    # build its products.
    from _support import disjoint_fibres_json

    path = tmp_path / "fibres.json"
    path.write_text(json.dumps(disjoint_fibres_json()))
    code, out, err = run(capsys, "check", str(path), "all")
    assert code == 0 and err == ""
    assert out.count("PASS ") == 6


def test_listed_empty_stratum_is_told_apart_from_a_wrong_degree_0(capsys, tmp_path):
    # The same datum listing {1, 2} with no cohomology: an empty stratum is
    # left out of the file, and the message says so.  A degree-0 group that
    # is present but not Z keeps its own message.  Both fail validation.
    from _support import disjoint_fibres_json

    for cohomology, message in (
            ({}, "stratum {1,2}: degree-0 cohomology is absent "
                 "(an empty stratum is left out of the file)"),
            ({"0": {"generators": 2}}, "stratum {1,2}: degree-0 cohomology is not Z")):
        data = disjoint_fibres_json()
        data["strata"].append({"subset": [1, 2], "cohomology": cohomology})
        path = tmp_path / "fibres.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path), "all")
        assert (code, out, err) == (1, f"FAIL validate\n  {message}\n", "")


def test_check_all_builds_each_table_once(capsys, monkeypatch):
    # nerve-identity, euler, affine-line-stability, degeneration and
    # product-consistency all read the table of the datum; each of the four
    # distinct datums (torus:3 and its products with A^1, a point and itself)
    # used to have its table computed again by every suite that read it.
    # Each complex is built once per graded degree b, the input's too:
    # validate reads its commuting squares off d after d and takes the
    # table from the same complexes, and d2 reports that verdict.
    from collections import Counter

    import sncweight.weight as weight

    built = {}
    real = weight.weight_complex

    def counted(s, b):
        built.setdefault(id(s), (s, Counter()))[1][b] += 1
        return real(s, b)

    monkeypatch.setattr(weight, "weight_complex", counted)
    code, out, _ = run(capsys, "check", "--builder", "torus:3", "all")
    assert code == 0 and "FAIL" not in out
    assert len(built) == 4
    # validate runs first, on the input.
    (datum, _), *_ = built.values()
    assert datum == torus_snc(3)
    for s, per_degree in built.values():
        assert per_degree == Counter(s.graded_degrees())


def test_validation_runs_once_at_the_input_boundary(capsys, monkeypatch, tmp_path):
    # validate, the one entry point, runs the structure checks exactly once
    # per call; seen records the datum of each validation.
    import sncweight.weight as weight

    seen = []
    structure = weight._check_structure

    def counted(s):
        seen.append(s)
        return structure(s)

    monkeypatch.setattr(weight, "_check_structure", counted)
    # Builders and products are valid by construction: compute and dual on a
    # builder validate nothing (torus:5 used to validate its four nested
    # products).
    code, _, _ = run(capsys, "compute", "--builder", "torus:5")
    assert code == 0 and seen == []
    code, _, _ = run(capsys, "dual", "--builder", "torus:3")
    assert code == 0 and seen == []
    # A file datum is validated in full exactly once by compute and dual.
    path = tmp_path / "torus2.json"
    path.write_text(to_json(torus_snc(2)))
    for command in ("compute", "dual"):
        seen.clear()
        code, _, _ = run(capsys, command, str(path))
        assert code == 0 and seen == [torus_snc(2)], command
    # check validates the datum it is given exactly once, from a file or a
    # builder and for every suite, d2 included, and validates none of the
    # products that stability and product-consistency build.
    for suite in CHECK_SUITES:
        for argv in ((str(path), suite, "--hc", "2:1,3:2,4:1"), ("--builder", "torus:2", suite)):
            seen.clear()
            code, out, _ = run(capsys, "check", *argv)
            assert code == 0 and "FAIL" not in out, argv
            assert seen == [torus_snc(2)], argv


def test_answers_longer_than_the_int_string_limit_print_exactly(capsys, tmp_path):
    # A torsion coefficient of 8001 digits used to end in a ValueError
    # traceback at print time; the input literals stay under the limit.
    import re
    import sys

    from _support import oracle_canonical_form

    limit = sys.get_int_max_str_digits()
    a, b = 10**4000 + 1, 10**4000 + 3
    # dim 1, one boundary point; the total space has H^1 = Z^2 / diag(a, b).
    obj = json.loads(to_json(affine_space_snc(1)))
    assert obj["strata"][0]["subset"] == []
    obj["strata"][0]["cohomology"]["1"] = {"generators": 2, "relations": [[a, 0], [0, b]]}
    path = tmp_path / "huge_torsion.json"
    path.write_text(json.dumps(obj))
    assert oracle_canonical_form(2, [[a, 0], [0, b]]) == (0, (a * b,))
    code, text, _ = run(capsys, "compute", str(path))
    assert code == 0
    code, js, _ = run(capsys, "compute", str(path), "--format", "json")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # lifted for output only
    entries = json.loads(js, parse_int=str)["entries"]
    sys.set_int_max_str_digits(0)
    try:
        expected = str(a * b)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 8001
    assert re.findall(r"Z/(\d+)", text) == [expected]
    assert [(e["a"], e["b"], e["torsion"]) for e in entries if e["torsion"]] == [
        ("0", "1", [expected])]
    # The same coefficient in a check report: with free groups and the
    # restriction diag(a, b) in degree 2, (1, 2) = Z/ab, and stability
    # names it, shifted to (1, 4), in its details.
    obj = json.loads(to_json(affine_space_snc(2)))
    assert [st["subset"] for st in obj["strata"]] == [[], [1]]
    obj["strata"][1]["cohomology"]["2"]["generators"] = 2
    obj["strata"][1]["restrictions"]["1"]["2"] = [[a, 0], [0, b]]
    obj["strata"][0]["cohomology"]["2"]["generators"] = 2
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", str(path), "stability", "--json")
    assert code == 0
    (report,) = json.loads(out)["checks"]
    assert f"ok (1, 4): product = Z/{expected}, shifted base = Z/{expected}" in report["details"]


def test_check_single_suites(capsys):
    for which in ("prop1", "d2", "stability", "euler", "product-consistency"):
        code, out, _ = run(capsys, "check", "--builder", "affine:2", which)
        assert code == 0, out
    code, out, _ = run(capsys, "check", "--builder", "curve:1,2", "degeneration",
                       "--hc", "1:3,2:1")
    assert code == 0
    assert "PASS degeneration" in out


def test_check_degeneration_mismatch_fails(capsys):
    code, out, _ = run(capsys, "check", "--builder", "torus:1", "degeneration",
                       "--hc", "1:5")
    assert code == 1
    assert "FAIL degeneration" in out


def _sign_flipped_torus(tmp_path):
    # Flip one restriction sign in the torus square: d after d picks it up.
    obj = json.loads(to_json(torus_snc(2)))
    for stratum in obj["strata"]:
        if stratum["subset"] == [1, 3]:
            stratum["restrictions"]["1"]["0"] = [[-1]]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(obj))
    return path


def _square_datum():
    # Into Z/2 the two paths of the square differ by 3 - 1 = 2, which the
    # relation kills.
    z2 = FpAbPresentation.from_relation_columns(1, [[2]])
    one, three = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[3]])
    point = {0: FpAbPresentation.free(1), 1: FpAbPresentation.free(1)}
    return SncDatum(3, 2, {
        (): StratumData(point, {}),
        (1,): StratumData(point, {1: {0: one, 1: one}}),
        (2,): StratumData(point, {2: {0: one, 1: one}}),
        (1, 2): StratumData({0: FpAbPresentation.free(1), 1: z2},
                            {1: {0: one, 1: three}, 2: {0: one, 1: one}}),
    })


def test_check_d2_allows_composites_in_the_relation_span(capsys, tmp_path):
    # The paths of the square differ only modulo the relation: validation
    # accepts the datum, and so must d2.
    path = tmp_path / "square.json"
    path.write_text(to_json(_square_datum()))
    assert run(capsys, "compute", str(path))[0] == 0
    for suite in ("d2", "all"):
        code, out, _ = run(capsys, "check", str(path), suite)
        assert code == 0, out
        assert out.splitlines()[1] == "PASS d2"


_FLIPPED_REPORT = [
    "FAIL validate",
    "  commuting squares: paths {} -> {3} -> {1,3} and {} -> {1} -> {1,3} differ in degree 0",
]


def test_check_sign_flip_breaks_d2(capsys, tmp_path):
    # d2 runs only on a valid datum, so check refuses the flipped file with
    # its validate report, which names the square and the degree.
    path = _sign_flipped_torus(tmp_path)
    code, out, _ = run(capsys, "check", str(path), "d2")
    assert code == 1
    assert out.splitlines() == _FLIPPED_REPORT


def test_check_all_on_incoherent_datum(capsys, tmp_path):
    # check, compute and dual follow one rule: an invalid datum prints its
    # validate report alone, as text even under --json, and exits 1.
    path = _sign_flipped_torus(tmp_path)
    for argv in (("check", str(path), "all"), ("check", str(path), "all", "--json"),
                 ("check", str(path), "euler"), ("compute", str(path)), ("dual", str(path))):
        code, out, _ = run(capsys, *argv)
        assert code == 1, argv
        assert out.splitlines() == _FLIPPED_REPORT, argv


def test_d2_fails_when_the_program_breaks_a_level_differential(capsys, monkeypatch, tmp_path):
    # No valid datum can fail d2, so break the program instead: negate
    # the first block of d_1 in degree 0, which d_2 after d_1 must see.  The
    # file holds only the degree-0 part of torus:2, where 0 is the only
    # graded degree.  validate reads the squares off the same complexes, so
    # the broken program fails it, and d2, which reports validation's
    # verdict, is never reached.
    import sncweight.weight as weight
    from sncweight.chain import CochainComplex

    real = weight.weight_complex

    def broken(datum, b):
        w = real(datum, b)
        if b != 0:
            return w
        rows = w.differentials[0].to_rows()
        rows[0] = [-x for x in rows[0]]
        return CochainComplex(w.min_degree, w.groups,
                              (IntMatrix.from_rows(rows),) + w.differentials[1:])

    obj = json.loads(to_json(torus_snc(2)))
    for stratum in obj["strata"]:
        stratum["cohomology"] = {"0": stratum["cohomology"]["0"]}
        stratum["restrictions"] = {i: {"0": m["0"]} for i, m in stratum["restrictions"].items()}
    path = tmp_path / "degree0.json"
    path.write_text(json.dumps(obj))
    for source in (("--builder", "torus:2"), (str(path),)):
        monkeypatch.setattr(weight, "weight_complex", real)
        code, out, _ = run(capsys, "check", *source, "d2")
        assert code == 0 and out.splitlines()[1:] == ["PASS d2"], source
        monkeypatch.setattr(weight, "weight_complex", broken)
        code, out, _ = run(capsys, "check", *source, "d2")
        assert code == 1 and out.startswith("FAIL validate\n  commuting squares: "), source


def test_check_decides_usage_errors_before_validation(capsys, tmp_path):
    # The exit code of a usage error does not depend on the datum: a file
    # that fails the shape checks still exits 2 on a bad --hc value, and on
    # degeneration without Betti numbers, before anything is validated.
    obj = json.loads(to_json(torus_snc(2)))
    obj["strata"][1]["restrictions"] = {str(obj["strata"][1]["subset"][0]): {"0": [[1, 0]]}}
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and out.startswith("FAIL validate\n") and "has shape (1, 2)" in out
    for argv, message in (((str(path), "--hc", "x"), "error: cannot parse --hc value 'x'"),
                          ((str(path), "degeneration"), "error: degeneration check needs --hc")):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == "" and err.startswith(message), argv


def test_an_empty_hc_is_refused_exit_2(capsys, tmp_path):
    # --hc= used to count as absent: degeneration was checked against a
    # builder's Betti numbers, skipped in all, or said to need --hc.
    path = tmp_path / "torus2.json"
    path.write_text(to_json(torus_snc(2)))
    for argv in (("check", "--builder", "torus:1", "degeneration", "--hc="),
                 ("check", str(path), "all", "--hc="),
                 ("check", str(path), "degeneration", "--hc=")):
        assert run(capsys, *argv) == (2, "", "error: cannot parse --hc value ''\n"), argv


def test_only_the_product_suites_are_not_applicable_to_relations(capsys, tmp_path):
    # A stratum group with relations has no product here: the two suites
    # that build products pass as not applicable, and the others run.
    obj = json.loads(to_json(affine_space_snc(1)))
    obj["strata"][0]["cohomology"]["2"] = {"generators": 2, "relations": [[0, 2]]}
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", str(path), "all", "--hc", "2:1", "--json")
    assert code == 0
    details = {r["name"]: r["details"] for r in json.loads(out)["checks"]}
    assert list(details) == ["d2", "nerve-identity", "euler", "affine-line-stability",
                             "degeneration", "product-consistency"]
    skipped = {name for name, d in details.items()
               if any(line.startswith("not applicable: ") for line in d)}
    assert skipped == {"affine-line-stability", "product-consistency"}


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "--builder", "torus:1", "all", "--json")
    assert code == 0
    obj = json.loads(out)
    assert all(c["passed"] for c in obj["checks"])


def test_examples_listing_and_roundtrip(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "torus:2" in out and "rp2" in out
    code, emitted, _ = run(capsys, "examples", "affine:2")
    assert code == 0
    from sncweight.datafile import datum_from_dict

    assert datum_from_dict(json.loads(emitted)) == affine_space_snc(2)
    code, emitted, _ = run(capsys, "examples", "rp2")
    assert code == 0 and json.loads(emitted) == surface_json(rp2_triangles())
    code, _, err = run(capsys, "examples", "bogus")
    assert code == 2


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    # Every line of the README's command-line block exits 0 and writes
    # nothing to stderr, so the documented flags and specs stay accepted.
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 10 and all(words[0] == "sncweight" for words in lines)
    monkeypatch.chdir(tmp_path)
    for name, filename in (("curve:1,2", "datum.json"), ("rp2", "rp2.json")):
        code, out, _ = run(capsys, "examples", name)
        assert code == 0
        (tmp_path / filename).write_text(out)
    for words in lines:
        argv, target = words[1:], None
        if ">" in argv:
            argv, (_, target) = argv[:argv.index(">")], argv[argv.index(">"):]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), words
        if target:
            (tmp_path / target).write_text(out)


def test_examples_directory(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "examples", "--dir", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "torus_2.json" in files and "rp2_complex.json" in files
    from sncweight.datafile import from_json

    assert from_json(out_dir / "torus_2.json") == torus_snc(2)


def test_examples_directory_that_cannot_be_made_exit_2(capsys, tmp_path):
    # An existing file, and a path below one, used to end in a traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    for target in (blocker, blocker / "sub"):
        _one_parse_error(capsys, ("examples", "--dir", str(target)), "cannot write examples")


def test_one_input_per_command_exit_2(capsys, tmp_path):
    # An input file and --builder together, and a dataset name with --dir,
    # used to drop the second one without a word and exit 0.
    path = tmp_path / "rp2.json"
    code, out, _ = run(capsys, "examples", "rp2")
    assert code == 0
    path.write_text(out)
    both = "give either an input file or --builder, not both"
    _one_parse_error(capsys, ("dual", "--complex", str(path), "--builder", "torus:2"), both)
    _one_parse_error(capsys, ("dual", "--complex", "--builder", "torus:2"),
                     "--complex needs an input file")
    for command in ("compute", "dual"):
        _one_parse_error(capsys, (command, str(path), "--builder", "torus:2"), both)
    out_dir = tmp_path / "corpus"
    _one_parse_error(capsys, ("examples", "--dir", str(out_dir), "torus:2"),
                     "give either a dataset name or --dir, not both")
    assert not out_dir.exists()


def test_integer_keys_have_one_spelling_exit_2(capsys, tmp_path):
    # int() reads "02", "+2", " 2" and "2_0" as integers, so two keys could
    # name one degree or component and the last one won: "2" and "02" below
    # used to read as a zero group and print "weight cohomology: zero".
    path = tmp_path / "keys.json"
    base = json.loads(to_json(affine_space_snc(1)))
    total, divisor = base["strata"]
    assert total["subset"] == [] and divisor["subset"] == [1]
    where = {"cohomology": "stratum [] cohomology degree",
             "component": "stratum [1] restriction component",
             "degree": "stratum [1] restriction degree"}
    for key in ("02", "+2", " 2", "2 ", "2_0", "-0", "0002"):
        for field, what in where.items():
            obj = json.loads(json.dumps(base))
            total, divisor = obj["strata"]
            if field == "cohomology":
                total["cohomology"][key] = {"generators": 0}
            elif field == "component":
                divisor["restrictions"][key] = {"0": [[1]]}
            else:
                divisor["restrictions"]["1"][key] = [[1]]
            path.write_text(json.dumps(obj))
            for argv in (("compute", str(path)), ("check", str(path), "all"), ("dual", str(path))):
                _one_parse_error(capsys, argv, f"{what} key {key!r} is not written in plain decimal")
    # Keys that are no integer at all, and plain negative ones, read as before.
    obj = json.loads(json.dumps(base))
    obj["strata"][0]["cohomology"]["x"] = {"generators": 0}
    path.write_text(json.dumps(obj))
    _one_parse_error(capsys, ("compute", str(path)),
                     "stratum [] cohomology degree key 'x' is not an integer")
    obj = json.loads(json.dumps(base))
    obj["strata"][0]["cohomology"]["-1"] = {"generators": 0}
    path.write_text(json.dumps(obj))
    _one_parse_error(capsys, ("compute", str(path)), "negative cohomology degree -1")


def test_argparse_refusals_are_one_error_line_exit_2(capsys):
    # argparse used to print its usage block before its own error line.
    for argv, message in (
        (("check", "--builder", "curve:1,2", "degeneration", "--hc", "-1:0,2:1"),
         "argument --hc: expected one argument"),
        (("compute", "--bogus"), "unrecognized arguments: --bogus"),
        ((), "the following arguments are required: command"),
        (("compute", "--builder", "torus:1", "--format", "xml"),
         "argument --format: invalid choice: 'xml'"),
    ):
        _one_parse_error(capsys, argv, message)
    # --help is no refusal: it prints the usage and exits 0.
    import pytest

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: sncweight") and err == ""


def test_command_line_integers_have_one_spelling_exit_2(capsys):
    # Builder specs, --hc and --simplify read integers by the datum-key rule.
    # "torus:02" used to build torus:2 under the name "torus:02", "point:"
    # read as "point", a repeated --hc degree kept its last count, and a
    # negative --simplify budget printed the unsimplified presentation.
    for spec in ("torus:02", "torus:+2", "torus: 2", "torus:0_2", "affine: 3", "curve:1,02"):
        for argv in (("compute", "--builder", spec), ("dual", "--builder", spec),
                     ("check", "--builder", spec, "all"), ("examples", spec)):
            _one_parse_error(capsys, argv, "is not written in plain decimal")
    for spec in ("torus:x", "torus:", "affine:1.5"):
        _one_parse_error(capsys, ("compute", "--builder", spec), "is not an integer")
    for spec, message in (("point:", "point takes no arguments"),
                          ("point:0", "point takes no arguments"),
                          ("curve:1", "curve takes two arguments"),
                          ("curve:1,2,3", "curve takes two arguments")):
        _one_parse_error(capsys, ("compute", "--builder", spec), f"{spec!r}: {message}")
    degeneration = ("check", "--builder", "curve:1,2", "degeneration")
    for hc, message in (("1:99,1:3,2:1", "gives degree 1 twice"),
                        ("2:1,1:3,2:1", "gives degree 2 twice"),
                        ("1:-2,2:1", "has a negative degree or count"),
                        ("-1:0,2:1", "has a negative degree or count"),
                        ("1:03,2:1", "cannot parse"), ("+1:3,2:1", "cannot parse"),
                        ("1:3, 2:1", "cannot parse"), ("1", "cannot parse")):
        # --hc=VALUE, since argparse takes a value led by "-1:" for an option.
        _one_parse_error(capsys, (*degeneration, f"--hc={hc}"), f"--hc value {hc!r}")
        _one_parse_error(capsys, (*degeneration, f"--hc={hc}"), message)
    for budget, message in (("-5", "--simplify budget -5 is negative"),
                            ("05", "--simplify budget '05' is not written in plain decimal"),
                            ("+5", "--simplify budget '+5' is not written in plain decimal"),
                            ("x", "--simplify budget 'x' is not an integer")):
        _one_parse_error(capsys, ("dual", "--builder", "torus:3", "--simplify", budget), message)
    # The canonical spellings are accepted.
    code, out, _ = run(capsys, *degeneration, "--hc", "1:3,2:1")
    assert code == 0 and out == "input: curve:1,2\nPASS degeneration\n"
    code, _, _ = run(capsys, "dual", "--builder", "torus:3", "--simplify", "0")
    assert code == 0


def test_cross_process_byte_identical(tmp_path):
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "sncweight.cli", "compute", "--builder", "torus:2",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_cli_imports_only_the_standard_library():
    # Start-up cost and the empty dependency list: importing the CLI loads
    # neither dataclasses nor inspect (with ast, dis and tokenize behind
    # it), nor typing or pathlib, and nothing outside the standard library,
    # even where numpy or sympy are installed.  -S keeps site-packages hooks
    # out of the picture.  The package root re-exports nothing, so importing
    # it loads no submodule.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def modules_loaded_by(statement):
        script = f"import sys, {statement}; print(*sorted(sys.modules), sep='\\n')"
        done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    root = modules_loaded_by("sncweight")
    assert "sncweight" in root
    assert [name for name in root if name.startswith("sncweight.")] == []
    loaded = modules_loaded_by("sncweight.cli")
    assert "sncweight.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert "typing" not in loaded and "pathlib" not in loaded
    outside = [
        name for name in loaded
        if name != "__main__"
        and name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "sncweight"
    ]
    assert outside == []


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # Start-up cost: cli imports at module level only what main maps, and
    # each handler imports the layers it runs.  A raw complex needs neither
    # the datum builders nor the weight complexes, and neither dual on a
    # builder nor examples builds a weight complex.  compute and the suites
    # other than prop1 and all build no nerve, so they load no dual.  The
    # datum file format loads only where a datum crosses the program's
    # boundary as a file (a file read, examples), validation loads weight,
    # and the check suites load only for check.  A check on a file loads
    # builders only for a suite that multiplies by the line or the point.
    # Only cli imports inside a function; every library module imports at
    # its top.
    import ast
    import functools
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    rp2 = tmp_path / "rp2_complex.json"
    rp2.write_text(json.dumps(surface_json(rp2_triangles())))
    datum = tmp_path / "torus2.json"
    datum.write_text(to_json(torus_snc(2)))
    package = {path.stem for path in (src / "sncweight").glob("*.py")} - {"__init__"}

    @functools.cache
    def layers_loaded_by(*argv):
        script = ("import contextlib, io, sys\n"
                  "from sncweight.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = main({list(argv)!r})\n"
                  "print(code, *sorted(sys.modules), sep='\\n')")
        done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        code, *loaded = done.stdout.split()
        assert code == "0", argv
        return {name.partition(".")[2] for name in loaded if name.startswith("sncweight.")}

    assert layers_loaded_by("dual", "--complex", str(rp2)) == {
        "cli", "sncdata", "abgroup", "intmat", "reports", "chain", "dual"}
    assert "weight" not in layers_loaded_by("dual", "--builder", "torus:2")
    assert "weight" not in layers_loaded_by("examples")
    assert "dual" not in layers_loaded_by("compute", "--builder", "torus:2")
    assert "dual" not in layers_loaded_by("check", "--builder", "torus:2", "d2")
    assert "dual" in layers_loaded_by("check", "--builder", "torus:2", "prop1")
    assert package - layers_loaded_by("compute", "--builder", "torus:2") == {
        "datafile", "checks", "dual"}
    assert package - layers_loaded_by("dual", "--builder", "torus:2") == {
        "datafile", "checks", "weight"}
    assert package - layers_loaded_by("compute", str(datum)) == {"builders", "checks", "dual"}
    assert package - layers_loaded_by("dual", str(datum)) == {"builders", "checks"}
    assert package - layers_loaded_by("check", str(datum), "prop1") == {"builders"}
    assert package - layers_loaded_by("check", str(datum), "d2") == {"builders", "dual"}
    assert package - layers_loaded_by("check", str(datum), "stability") == {"dual"}
    d2 = layers_loaded_by("check", "--builder", "torus:2", "d2")
    assert {"checks"} <= d2 and package - d2 == {"datafile", "dual"}
    examples = layers_loaded_by("examples")
    assert "datafile" in examples and not examples & {"weight", "checks"}
    for path in sorted((src / "sncweight").glob("*.py")):
        if path.stem == "cli":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not [node for node in ast.walk(func)
                            if isinstance(node, (ast.Import, ast.ImportFrom))], (path.name, func.name)


def test_no_module_imports_the_command_line():
    # Run as `python -m sncweight.cli`, cli is __main__: a module that
    # imported sncweight.cli would compile and run it a second time.  So
    # code that raises a UsageError stays in cli.
    import ast
    from pathlib import Path

    def imports_cli(node) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name == "sncweight.cli" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "sncweight"):
                return any(alias.name == "cli" for alias in node.names)
            return module in (".cli", "sncweight.cli")
        return False

    assert imports_cli(ast.parse("import sncweight.cli").body[0])
    assert imports_cli(ast.parse("from .cli import main").body[0])
    importers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "sncweight").glob("*.py")):
        importers += [(path.name, ast.unparse(node))
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if imports_cli(node)]
    assert importers == []


def test_output_that_stdout_cannot_take_exit_2():
    # A full device, and a pipe whose reader has gone: one error line and
    # exit 2, with no traceback and no "Exception ignored" from the
    # interpreter's last flush.  torus:2's table is small, so it fails in
    # main's flush; the torus:5 datum (360 kB) outgrows the write buffer, so
    # it fails in mid-print.  The reader closes before the program writes,
    # as a pipe may buffer megabytes and let a closing reader come too late.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "sncweight.cli"]
    with open("/dev/full", "w") as full:
        done = subprocess.run(cmd + ["compute", "--builder", "torus:2"], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write output: [Errno 28] No space left on device\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        done = subprocess.run(cmd + ["examples", "torus:5"], env=env, stdout=closed,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write output: [Errno 32] Broken pipe\n")


def test_help_that_stdout_cannot_take_exits_2():
    # argparse's own writer drops an OSError, so the parser writes and
    # flushes --help itself: a full device gives one error line and exit 2,
    # and a help text that is written still exits 0.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["--help"], ["compute", "--help"]):
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "sncweight.cli", *argv], env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (
            2, "error: cannot write output: [Errno 28] No space left on device\n"), argv
        done = subprocess.run([sys.executable, "-m", "sncweight.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, ""), argv
        assert done.stdout.startswith("usage: sncweight"), argv


def test_a_process_exits_with_its_heap_frozen(capsys, tmp_path):
    # Run as `python -m sncweight.cli`, the program freezes the collector's
    # heap once main has written its output, so the shutdown collections
    # have nothing to walk: an atexit hook, which runs after the exit and
    # before module teardown, finds frozen objects.  Stdout and the exit
    # code are main's own, on success, a failed check and a refusal.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    datum = tmp_path / "torus2.json"
    datum.write_text(to_json(torus_snc(2)))
    for argv in (["compute", "--builder", "torus:2"], ["check", str(datum), "all"],
                 ["dual", "--builder", "torus:3"],
                 ["check", "--builder", "torus:1", "degeneration", "--hc", "1:2"],
                 ["compute", str(tmp_path / "missing.json")]):
        code, out, err = run(capsys, *argv)
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
                  f"sys.argv = ['sncweight', *{argv!r}]\n"
                  "runpy.run_module('sncweight.cli', run_name='__main__', alter_sys=True)\n")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stdout) == (code, out), argv
        before, _, frozen = done.stderr.rpartition("frozen ")
        assert before == err and int(frozen) > 0, (argv, done.stderr)


def test_main_leaves_the_collector_as_it_was(capsys):
    # main runs in process under the tests and the bench's traced run, where
    # a frozen heap would keep every cycle made since from being collected.
    import gc

    state = gc.isenabled(), gc.get_freeze_count()
    for argv in (["compute", "--builder", "torus:2"], ["check", "--builder", "torus:1", "all"],
                 ["dual", "--builder", "affine:2"], ["compute", "--builder", "nope:1"]):
        run(capsys, *argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == state, argv


def test_the_console_script_and_python_m_start_in_one_function():
    # pyproject's [project.scripts] names the function that the __main__
    # block calls, which exits with main's code once the heap is frozen.
    # The file is read by hand, as Python 3.10 has no tomllib.
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (script,) = [line for line in section.splitlines() if line.strip()]
    name, _, target = script.partition("=")
    module, _, entry = target.strip().strip('"').partition(":")
    assert (name.strip(), module) == ("sncweight", "sncweight.cli")
    tree = ast.parse((root / "src" / "sncweight" / "cli.py").read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)]
    assert ast.unparse(block.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in block.body] == [f"{entry}()"]
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == entry]
    assert [ast.unparse(node) for node in func.body[1:]] == [
        "code = main()", "gc.freeze()", "sys.exit(code)"]


def test_no_file_is_left_for_the_collector_to_close(capsys, tmp_path):
    # A process exits with its heap frozen, so a file left open in a
    # reference cycle would never be collected, and its ResourceWarning
    # never shown.  In process, a collection after each command finds none.
    import gc
    import warnings

    directory = tmp_path / "examples"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(capsys, "examples", "--dir", str(directory))[0] == 0
        gc.collect()
        files = sorted(str(path) for path in directory.iterdir())
        commands = [["dual", "--complex", str(directory / "rp2_complex.json")],
                    ["compute", str(tmp_path / "missing.json")]]
        for path in files:
            if not path.endswith("rp2_complex.json"):
                commands += [["compute", path], ["check", path, "all"], ["dual", path]]
        for argv in commands:
            run(capsys, *argv)
            gc.collect()
    assert len(files) == 13
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_validity_is_decided_at_the_command_line_boundary():
    # Outside weight, only cli calls validate: the library takes a valid
    # datum as a precondition and never re-asks.  The machinery that let it
    # re-ask, and the cached structure tier beside validate, are gone from
    # the package.
    import ast
    from pathlib import Path

    callers = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "sncweight").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for gone in ("require_valid", "InvalidDatumError", "valid_by_construction",
                     "validate_structure", "_structure_tier"):
            assert gone not in text, (path.name, gone)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "validate":
                    callers.add(path.stem)
    assert callers - {"weight"} == {"cli"}


def test_exit_codes_are_decided_in_main_alone():
    # Commands raise each refusal as a typed exception where they find it;
    # only main turns one into an exit code or an error line, and it names
    # the types it maps, so a program fault still ends in a traceback.  The
    # handlers elsewhere either give a result ("not applicable", "skipped")
    # or re-raise a refused argument as a UsageError.
    import ast
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "src" / "sncweight" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    enclosing = {}
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            enclosing.update((id(node), func.name) for node in ast.walk(func))
    names, stderr, handlers = {}, set(), {}
    for node in ast.walk(tree):
        where = enclosing.get(id(node))
        if isinstance(node, (ast.Name, ast.FunctionDef)):
            name = node.id if isinstance(node, ast.Name) else node.name
            if isinstance(node, ast.FunctionDef) or isinstance(node.ctx, ast.Load):
                names.setdefault(name, set()).add(where)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr":
            stderr.add(where)
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                kind = ast.unparse(t) if t is not None else "bare"
                handlers.setdefault(where, {})[kind] = [ast.unparse(b) for b in node.body]
    assert "_fail" not in names
    # argparse's refusals reach main the same way: the parser's error raises.
    (parser,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Parser"]
    (error,) = [node for node in parser.body
                if isinstance(node, ast.FunctionDef) and node.name == "error"]
    assert [ast.unparse(b) for b in error.body] == ["raise UsageError(message)"]
    assert stderr == {"main"}
    assert names["EXIT_PARSE_ERROR"] == {"main"}
    assert names["EXIT_CHECK_FAILED"] == {"main", "cmd_check"}
    main_handlers = handlers.pop("main")
    assert set(main_handlers) == {"ValidationFailed", "DatumParseError", "UsageError",
                                  "ProductTooLargeError", "DenseWorkTooLargeError", "OSError"}
    # Output that stdout cannot take is the one OSError left unmapped where
    # it happens: one error line and exit 2, with stdout on the null device.
    written = main_handlers["OSError"]
    assert any("os.dup2(" in statement for statement in written), written
    assert written[-2:] == ["print(f'error: cannot write output: {e}', file=sys.stderr)",
                            "return EXIT_PARSE_ERROR"]
    assert {(where, kind) for where, kinds in handlers.items() for kind in kinds} == {
        ("_print_dual_report", "dual.DisconnectedComplexError"),
        ("_parse_hc", "DatumParseError"),
        ("cmd_examples", "OSError"),
    }
    for where, kind in (("_parse_hc", "DatumParseError"), ("cmd_examples", "OSError")):
        (statement,) = handlers[where][kind]
        assert statement.startswith("raise UsageError("), (where, statement)
    # The check suites catch one exception, which gives a result, and
    # write nothing to stderr.
    checks = ast.parse((path.parent / "checks.py").read_text(encoding="utf-8"))
    caught = set()
    for func in checks.body:
        for node in ast.walk(func):
            assert not (isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr")
            if isinstance(node, ast.ExceptHandler):
                caught.add((getattr(func, "name", None), ast.unparse(node.type)))
    assert caught == {("_needs_free", "FreeTensorError")}


def test_matrix_layout_is_known_only_to_intmat():
    # IntMatrix's row storage is private to intmat: every other module
    # builds matrices through its constructors, blocks through from_blocks,
    # and from_entries only where the input comes as (row, col, entry).
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    leaks, entry_callers = [], set()
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "from_kron_blocks" not in text, path.name
        if path.stem == "intmat":
            continue
        tree = ast.parse(text)
        enclosing = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("_rows", "_wrap"):
                leaks.append((path.stem, node.attr))
            if isinstance(node, ast.alias) and node.name in ("_wrap", "_EMPTY_ROW"):
                leaks.append((path.stem, node.name))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_entries"):
                entry_callers.add((path.stem, enclosing.get(id(node))))
    assert leaks == []
    assert entry_callers == {("dual", "reduced_cochain_complex"),
                             ("abgroup", "from_relation_columns"),
                             ("weight", "_block_problems")}


def test_relations_are_echelonized_only_where_a_group_is_built():
    # column_echelon has one caller, the constructor of a presented group,
    # and every other reader takes the basis the group stores: no other
    # module imports it, and euler_check reads ranks without a reduction.
    import ast
    from pathlib import Path

    callers, importers, euler_calls = set(), set(), set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "sncweight").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((id(node), func.name) for node in ast.walk(func))
                if func.name == "euler_check":
                    euler_calls.update(node.func.id for node in ast.walk(func)
                                       if isinstance(node, ast.Call)
                                       and isinstance(node.func, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name == "column_echelon":
                importers.add(path.stem)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "column_echelon"):
                callers.add((path.stem, enclosing.get(id(node))))
    assert callers == {("abgroup", "__init__")}
    assert importers == {"abgroup"}
    assert euler_calls and not euler_calls & {"canonical_form", "smith_diagonal"}


def test_operations_without_a_command_are_gone():
    # Each of these had no caller but another operation, one constant or a
    # test: every block matrix is written by from_blocks, a negated block is
    # a block of sign -1, and the tests keep abelianization.
    from sncweight import abgroup, builders, dual, intmat, sncdata

    for name in ("scale", "__add__", "__sub__", "column", "take_rows", "from_bands"):
        assert not hasattr(IntMatrix, name), name
    # The presented cohomology reads the total complex's Smith diagonals
    # alone, so nothing takes a kernel basis or a column transform.
    assert not hasattr(intmat, "kernel_basis")
    assert not hasattr(abgroup, "subquotient_cohomology")
    # smith_diagonal is one elimination: no second engine for the core.
    for name in ("_snf_reduce", "_unit_core"):
        assert not hasattr(intmat, name), name
    # Differentials are plain matrices, span membership is in_span alone,
    # and weight_complex builds each level's group and differential.
    for name in ("FpAbHom", "_columns_in_span"):
        assert not hasattr(abgroup, name), name
    for name in ("level_group", "level_differential"):
        assert not hasattr(sncdata, name), name
    assert not hasattr(dual, "complex_to_dict")
    assert not hasattr(dual.GroupPresentation, "abelianization")
    assert "cohomology" not in dual.ContractibilityReport._fields
    assert "DatumParseError" not in builders.__all__


def test_files_are_read_by_one_reader():
    # sncdata.read_json is the only place that turns file text into JSON,
    # so every file input gets the same error mapping (exit 2, one line).
    import ast
    from pathlib import Path

    readers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "sncweight").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk goes breadth first, so an inner function overrides its outer one.
        enclosing = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ImportFrom) and node.module == "json"), path.name
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("load", "loads")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
                readers.append((path.stem, enclosing.get(id(node)), node.func.attr))
    assert readers == [("sncdata", "read_json", "load")]


def test_compute_csv_with_torsion(capsys, tmp_path):
    from sncweight.datafile import to_json
    from sncweight.abgroup import FpAbPresentation
    from sncweight.intmat import IntMatrix
    from sncweight.sncdata import SncDatum, StratumData

    coh = {0: FpAbPresentation.free(1),
           2: FpAbPresentation.from_relation_columns(2, [[0, 2]])}
    s = SncDatum(1, 1, {
        (): StratumData(coh, {}),
        (1,): StratumData({0: FpAbPresentation.free(1)},
                          {1: {0: IntMatrix.identity(1)}}),
    })
    path = tmp_path / "torsion.json"
    path.write_text(to_json(s))
    code, out, _ = run(capsys, "compute", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,free_rank,torsion", "0,2,1,2"]
    code, out, _ = run(capsys, "compute", str(path), "--rational", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,free_rank,torsion", "0,2,1,"]
