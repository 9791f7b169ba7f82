"""Every public function of the package is reached by some command.

A fixed list of small commands runs in process under sys.setprofile,
which records the code object of every Python function that is called.
Every function in a module's __all__, and every public method and
property defined on an __all__ class, must be among them, unless
ALLOWED names it with the reason no command reaches it.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time

import sncweight
from sncweight.builders import torus_snc
from sncweight.datafile import datum_to_dict
from sncweight.cli import main

ALLOWED: dict[str, str] = {}


def _relation_carrying_datum() -> dict:
    # torus:2 with a Z/2 summand in the total space's H^2, and the first
    # divisor's H^2 presented as Z^2 / (1, -1): validation checks a
    # restriction out of a presented group, and the degree-2 weight
    # complex maps a presented level into another, so its total complex
    # lifts the relations.
    obj = datum_to_dict(torus_snc(2))
    for stratum in obj["strata"]:
        if stratum["subset"] == []:
            stratum["cohomology"]["2"] = {"generators": 3, "relations": [[0, 0, 2]]}
        elif len(stratum["subset"]) == 1:
            (i,) = stratum["subset"]
            row = stratum["restrictions"][str(i)]["2"][0]
            stratum["restrictions"][str(i)]["2"] = [row + [0]]
            if i == 1:
                stratum["cohomology"]["2"] = {"generators": 2, "relations": [[1, -1]]}
                stratum["restrictions"]["1"]["2"] = [row + [0], [0, 0, 0]]
    return obj


def _incoherent_datum() -> dict:
    # torus:2 with one codimension-2 restriction negated: the commuting
    # squares fail.
    obj = datum_to_dict(torus_snc(2))
    point = next(s for s in obj["strata"] if len(s["subset"]) == 2)
    e = str(point["subset"][0])
    point["restrictions"][e]["0"] = [[-1]]
    return obj


def _commands(tmp_path):
    torsion = tmp_path / "torsion.json"
    torsion.write_text(json.dumps(_relation_carrying_datum()))
    incoherent = tmp_path / "incoherent.json"
    incoherent.write_text(json.dumps(_incoherent_datum()))
    rp2 = tmp_path / "rp2.json"
    rp2.write_text('{"vertices": 6, "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], '
                   '[0, 4, 5], [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 4], [2, 3, 5]]}')
    t, i, r = str(torsion), str(incoherent), str(rp2)
    return [
        (["examples"], 0),
        (["examples", "rp2"], 0),
        (["examples", "curve:1,2"], 0),
        (["examples", "--dir", str(tmp_path / "examples")], 0),
        (["compute", "--builder", "torus:1"], 0),
        (["compute", "--builder", "curve:1,2", "--format", "csv"], 0),
        (["compute", t, "--format", "json", "--rational"], 0),
        (["compute", t], 0),
        (["compute", i], 1),
        (["dual", "--builder", "affine:1"], 0),
        (["dual", "--builder", "torus:2", "--simplify", "10"], 0),
        (["dual", "--complex", r, "--simplify", "10"], 0),
        (["dual", t], 0),
        (["check", "--builder", "torus:1", "all"], 0),
        (["check", t, "all", "--json"], 0),
        (["check", t, "d2"], 0),
        (["check", "--builder", "affine:1", "prop1"], 0),
        (["check", "--builder", "torus:1", "degeneration", "--hc", "1:2"], 1),
        (["check", i, "all"], 1),
        (["compute", "--builder", "nope:1"], 2),
        (["dual", "--complex", str(tmp_path / "missing.json")], 2),
    ]


def _public_code(module):
    """(name, code object) of every public function, method and property."""
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isfunction(value):
            yield name, value.__code__
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member.__code__


def test_every_public_function_is_reached_by_a_command(tmp_path):
    commands = _commands(tmp_path)
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    start = time.perf_counter()
    sys.setprofile(record)
    try:
        for argv, _ in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    finally:
        sys.setprofile(None)
    assert time.perf_counter() - start < 3
    assert codes == [code for _, code in commands]

    unreached = set()
    for info in pkgutil.iter_modules(sncweight.__path__):
        module = importlib.import_module(f"sncweight.{info.name}")
        for name, code in _public_code(module) if hasattr(module, "__all__") else ():
            if code not in called:
                unreached.add(f"{info.name}.{name}")
    assert unreached == set(ALLOWED)
