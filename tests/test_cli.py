import json

from sncweight.builders import affine_space_snc, to_json, torus_snc
from sncweight.cli import main


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
    # A restriction matrix given as a flat list is a parse error, not a crash.
    flat = tmp_path / "flat.json"
    obj = json.loads(to_json(affine_space_snc(1)))
    for entry in obj["strata"]:
        if entry["subset"] == [1]:
            entry["restrictions"] = {"1": {"0": [1]}}
    flat.write_text(json.dumps(obj))
    code, out, err = run(capsys, "compute", str(flat))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "matrix rows must be equal-length integer lists" in lines[0]


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
    code, out, _ = run(capsys, "check", "--builder", "torus:2", "all")
    assert code == 0
    for name in ("d2", "nerve-identity", "euler", "affine-line-stability",
                  "degeneration", "product-consistency"):
        assert f"PASS {name}" in out


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


def test_check_sign_flip_breaks_d2(capsys, tmp_path):
    # Flip one restriction sign in the torus square: d after d picks it up.
    obj = json.loads(to_json(torus_snc(2)))
    for stratum in obj["strata"]:
        if stratum["subset"] == [1, 3]:
            stratum["restrictions"]["1"]["0"] = [[-1]]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", str(path), "d2")
    assert code == 1
    assert "FAIL d2" in out
    assert "k=1" in out and "b=0" in out


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
    from sncweight.builders import datum_from_dict

    assert datum_from_dict(json.loads(emitted)) == affine_space_snc(2)
    code, _, err = run(capsys, "examples", "bogus")
    assert code == 2


def test_examples_directory(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "examples", "--dir", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "torus_2.json" in files and "rp2_complex.json" in files
    from sncweight.builders import from_json

    assert from_json(out_dir / "torus_2.json") == torus_snc(2)


def test_cross_process_byte_identical(tmp_path):
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "sncweight.cli", "compute", "--builder", "torus:2",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_compute_csv_with_torsion(capsys, tmp_path):
    from sncweight.builders import to_json
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
