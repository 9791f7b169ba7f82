"""The four workloads: seeded job lists, the inputs they read, and output checks.

A job is one `python -m sncweight.cli ...` invocation.  Each carries a
check that compares its stdout with an answer the benchmark derives on
its own: closed forms for the builder families, the Bezout oracle plus
Kunneth for generated products, and surface topology for the complexes.

The seed changes the inputs (random maps and relations, vertex labels,
file-versus-builder, output formats, job order) but not the shape of
each job list, so runs with different seeds do comparable work.

`check --builder torus:4 all` is not in any workload: its
product-consistency suite computes the table of torus:8, and the run
did not finish in 10 minutes, so it has no useful bound.  Adding it is
a change of its own.
"""

import json
import random
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

import inputs
import oracle

SUITE_REPORTS = {
    "d2": ["d2"],
    "prop1": ["nerve-identity"],
    "euler": ["euler"],
    "stability": ["affine-line-stability"],
    "degeneration": ["degeneration"],
    "product-consistency": ["product-consistency"],
    "all": ["d2", "nerve-identity", "euler", "affine-line-stability", "degeneration",
            "product-consistency"],
}


@dataclass
class Job:
    argv: list[str]
    # stdout -> None when correct, else a one-line reason.
    check: Callable[[str], "str | None"]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, Path], list[Job]]


# ---------------------------------------------------------------------------
# Checks


def expect_table(identifier: str, fmt: str, table: dict) -> Callable[[str], "str | None"]:
    def check(out: str) -> "str | None":
        if fmt == "text" and not out.startswith(f"input: {identifier}\n"):
            return "missing input line"
        got = oracle.parse_table(out, fmt)
        if got != table:
            wrong = sorted(k for k in set(got) | set(table) if got.get(k) != table.get(k))
            a, b = wrong[0]
            return (f"entry ({a},{b}) is {oracle.group_str(got.get((a, b), oracle.ZERO))}, "
                    f"expected {oracle.group_str(table.get((a, b), oracle.ZERO))}")
        return None
    return check


def expect_text(text: str) -> Callable[[str], "str | None"]:
    def check(out: str) -> "str | None":
        if out == text:
            return None
        for got, want in zip(out.splitlines() + [""], text.splitlines() + [""]):
            if got != want:
                return f"line {got[:80]!r}, expected {want[:80]!r}"
        return "output differs"
    return check


def expect_lines(lines: list[str]) -> Callable[[str], "str | None"]:
    """Every given line appears in stdout, in order."""
    def check(out: str) -> "str | None":
        have = out.splitlines()
        pos = 0
        for want in lines:
            try:
                pos = have.index(want, pos) + 1
            except ValueError:
                return f"missing line {want[:80]!r}"
        return None
    return check


def cohomology_lines(h: dict) -> list[str]:
    if not h:
        return ["reduced cohomology: all zero"]
    return [f"reduced cohomology H~{d} = {oracle.group_str(g)}" for d, g in sorted(h.items())]


def check_job(identifier: str, target: list[str], suite: str, hc: str | None) -> Job:
    argv = ["check", *target, suite] + (["--hc", hc] if hc else [])
    text = "".join(f"{line}\n" for line in
                   [f"input: {identifier}"] + [f"PASS {r}" for r in SUITE_REPORTS[suite]])
    return Job(argv, expect_text(text))


# ---------------------------------------------------------------------------
# torus-table


def make_torus_table(rng: random.Random, work: Path) -> list[Job]:
    jobs = []
    for n in (5, 6):
        fmt = rng.choice(("text", "csv", "json"))
        spec = f"torus:{n}"
        jobs.append(Job(["compute", "--builder", spec, "--format", fmt],
                        expect_table(spec, fmt, oracle.torus_table(n))))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# check-suites


def _family_datum(spec: str) -> dict:
    name, _, args = spec.partition(":")
    if name == "affine":
        return inputs.affine(int(args))
    if name == "curve":
        g, n = (int(x) for x in args.split(","))
        return inputs.curve(g, n)
    return reduce(inputs.product, [inputs.curve(0, 2) for _ in range(int(args))])


def _betti_arg(spec: str) -> str:
    return ",".join(f"{k}:{v}" for k, v in sorted(oracle.builder_betti(spec).items()))


def _dual_lines(spec: str) -> list[str]:
    h = oracle.builder_nerve(spec)
    name, _, args = spec.partition(":")
    if name == "torus":
        n = int(args)
        chi, status = 1 + (-1) ** (n - 1), f"sphere-like (S^{n - 1})"
    elif name == "curve":
        n = int(args.split(",")[1])
        chi = n
        status = ("contractible-certified" if n == 1
                  else "sphere-like (S^0)" if n == 2 else "other")
    else:
        chi, status = 1, "contractible-certified"
    return cohomology_lines(h) + [f"euler characteristic: {chi}", f"contractibility: {status}"]


def make_check_suites(rng: random.Random, work: Path) -> list[Job]:
    # Fixed (input, command) slots so every seed does similar work;
    # product-consistency (in `all` too) only where the self-product has
    # dim <= 2: torus:1, affine:1 and curves.
    curves = lambda: f"curve:{rng.randint(0, 3)},{rng.randint(1, 8)}"  # noqa: E731
    slots = [
        ("torus:4", "prop1"), ("torus:4", "euler"), ("torus:4", "d2"), ("torus:4", "dual"),
        ("torus:3", "stability"), ("torus:3", "degeneration"), ("torus:3", "compute"),
        ("torus:2", "degeneration"), (curves(), "product-consistency"), ("torus:1", "all"),
        ("affine:1", "all"),
        (f"affine:{rng.randint(3, 6)}", rng.choice(("prop1", "d2", "euler", "degeneration"))),
        (f"affine:{rng.randint(1, 6)}", "dual"), (f"affine:{rng.randint(1, 6)}", "compute"),
        (curves(), "all"), (curves(), "all"), (curves(), "prop1"),
        (curves(), "dual"), (curves(), "compute"), (curves(), "stability"),
        ("torus:3", "prop1"), ("torus:2", "dual"), (curves(), "euler"),
        (curves(), "degeneration"), (f"affine:{rng.randint(1, 6)}", "stability"),
    ]
    jobs = []
    for k, (spec, command) in enumerate(slots):
        # Each slot runs on the builder spec and on the benchmark's own file.
        path = f"{k:02d}_{spec.replace(':', '_').replace(',', '_')}.json"
        (work / path).write_text(json.dumps(_family_datum(spec)))
        for identifier, target, hc in ((spec, ["--builder", spec], None),
                                       (path, [path], _betti_arg(spec))):
            if command == "compute":
                fmt = rng.choice(("text", "csv", "json"))
                jobs.append(Job(["compute", *target, "--format", fmt],
                                expect_table(identifier, fmt, oracle.builder_table(spec))))
            elif command == "dual":
                jobs.append(Job(["dual", *target],
                                expect_lines([f"input: {identifier}"] + _dual_lines(spec))))
            else:
                jobs.append(check_job(identifier, target, command, hc))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# torsion-products


def make_torsion_products(rng: random.Random, work: Path) -> list[Job]:
    surface = lambda b1, b2, g1, g2: inputs.two_curve_surface(rng, b1, b2, g1, g2)  # noqa: E731
    # Fixed shapes: 1.5k-2.1k generators, dim <= 5 (a dim-6 self-product
    # took over 80 s).  Entries of the surface maps come from the seed.
    recipes = [
        ("surface_hyper_curve", [surface(3, 3, 2, 1), inputs.hypersurface(4), inputs.curve(1, 4)]),
        ("hyper_curves", [inputs.hypersurface(2), inputs.curve(1, 3), inputs.curve(1, 3),
                          inputs.curve(0, 4)]),
        ("surfaces_curve", [surface(2, 4, 1, 2), surface(2, 2, 1, 1), inputs.curve(1, 2)]),
        ("curves", [inputs.curve(1, 3), inputs.curve(1, 2), inputs.curve(1, 3),
                    inputs.curve(0, 3)]),
    ]
    jobs = []
    for k, (name, factors) in enumerate(recipes):
        rng.shuffle(factors)
        table = reduce(oracle.kunneth, map(oracle.weight_table, factors))
        path = f"product_{name}.json"
        (work / path).write_text(json.dumps(reduce(inputs.product, factors)))
        if k % 2 == 0:
            fmt = rng.choice(("text", "csv", "json"))
            jobs.append(Job(["compute", path, "--format", fmt], expect_table(path, fmt, table)))
        else:
            jobs.append(check_job(path, [path], "prop1", None))
    datum = inputs.curve_chain(rng, n=30, m=6, b1=12)
    path = "chain.json"
    (work / path).write_text(json.dumps(datum))
    fmt = rng.choice(("text", "csv", "json"))
    jobs.append(Job(["compute", path, "--format", fmt],
                    expect_table(path, fmt, oracle.weight_table(datum))))
    jobs.append(check_job(path, [path], "prop1", None))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# dual-surfaces


def _grid_shape(rng: random.Random, area: int) -> tuple[int, int]:
    """A seeded m x n grid with m * n == area and aspect ratio at most 2."""
    shapes = [(m, area // m) for m in range(3, area + 1)
              if area % m == 0 and max(m, area // m) <= 2 * min(m, area // m)]
    return rng.choice(shapes)


def surface_job(rng: random.Random, work: Path, name: str, tris: list,
                h: dict, min_gens: int, budget: int) -> Job:
    v, e, f = inputs.surface_counts(tris)
    path = f"surface_{name}.json"
    (work / path).write_text(json.dumps(inputs.relabel(rng, tris)))
    lines = [f"input: {path}",
             f"faces: {v} of dimension 0, {e} of dimension 1, {f} of dimension 2"]
    lines += cohomology_lines(h)
    lines += [f"euler characteristic: {v - e + f}",
              f"pi1 presentation: {e - v + 1} generators, {f} relators: "]

    expected_lines = expect_lines(lines[:-1])

    def check(out: str) -> "str | None":
        reason = expected_lines(out)
        if reason:
            return reason
        pres = [x for x in out.splitlines() if x.startswith(("pi1 presentation:", "pi1 simplified:"))]
        if len(pres) != 2 or not pres[0].startswith(lines[-1]):
            return "pi1 presentation lines missing or wrong size"
        gens = int(pres[1].split()[2])
        if min_gens == 0 and not pres[1].startswith("pi1 simplified: 0 generators, 0 relators"):
            return "disk did not simplify to the empty presentation"
        if gens < min_gens:
            return f"simplified pi1 has {gens} generators, fewer than {min_gens}"
        return None

    return Job(["dual", "--complex", "--simplify", str(budget), path], check)


def make_dual_surfaces(rng: random.Random, work: Path) -> list[Job]:
    budget = 200_000
    orientable = inputs.connected_sum(inputs.torus_grid(*_grid_shape(rng, 80)),
                                      inputs.torus_grid(*_grid_shape(rng, 80)))
    # N_3 = RP^2 # T: H~1 = Z^2, H~2 = Z/2.
    nonorientable = inputs.connected_sum(inputs.projective_plane(),
                                         inputs.torus_grid(*_grid_shape(rng, 112)))
    disk = inputs.disk_grid(*_grid_shape(rng, 72))
    jobs = [
        surface_job(rng, work, "genus2", orientable, {1: (4, ()), 2: (1, ())}, 4, budget),
        surface_job(rng, work, "crosscap3", nonorientable, {1: (2, ()), 2: (0, (2,))}, 3, budget),
        surface_job(rng, work, "disk", disk, {}, 0, budget),
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = [
    Workload("torus-table",
             "largest relation-free input: every differential is sparse with +-1 pivots",
             make_torus_table),
    Workload("check-suites",
             "many short check/dual/compute jobs: process start and repeated validation dominate",
             make_check_suites),
    Workload("torsion-products",
             "non-unit maps and relations: dense cores, entry growth, the presented-group path",
             make_torsion_products),
    Workload("dual-surfaces",
             "triangulated surfaces: simplicial cohomology, edge paths and Tietze do real work",
             make_dual_surfaces),
]
