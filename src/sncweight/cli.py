"""Command-line driver.

Exit codes: 0 on success (all checks passing), 1 on validation or check
failure, 2 on I/O, parse or usage errors.  Output is deterministic for a
fixed input and flag set: fixed orderings everywhere and no timestamps.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import builders, dual, weight
from .chain import FreeTensorError
from .reports import Report
from .sncdata import (
    InvalidDatumError,
    SncDatum,
    level_differential,
    validate,
    validate_structure,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2

CHECK_SUITES = ("all", "prop1", "d2", "stability", "euler", "degeneration", "product-consistency")


@dataclass
class RunReport:
    """What one invocation computed: deterministic for a fixed input and version."""

    input_id: str
    table: "weight.BigradedTable | None" = None
    checks: list[Report] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sncweight",
        description="dual boundary complexes and integral weight cohomology, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute the bigraded weight cohomology table")
    p_compute.add_argument("input", nargs="?", help="datum JSON file")
    p_compute.add_argument("--builder", help="builder spec, e.g. torus:2 or curve:1,2")
    p_compute.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_compute.add_argument("--rational", action="store_true", help="free ranks only")

    p_dual = sub.add_parser("dual", help="dual boundary complex: cohomology, pi_1, contractibility")
    p_dual.add_argument("input", nargs="?", help="datum JSON file (or a complex with --complex)")
    p_dual.add_argument("--builder", help="builder spec")
    p_dual.add_argument("--complex", action="store_true",
                        help="input is a raw simplicial complex {vertices, facets}")
    p_dual.add_argument("--simplify", type=int, metavar="BUDGET", default=None,
                        help="also print the presentation simplified within BUDGET moves")

    p_check = sub.add_parser("check", help="run consistency check suites")
    p_check.add_argument("input", nargs="?", help="datum JSON file")
    p_check.add_argument("which", nargs="?", default="all", choices=CHECK_SUITES)
    p_check.add_argument("--builder", help="builder spec")
    p_check.add_argument("--hc", help="expected compactly supported Betti numbers, e.g. 1:3,2:1")
    p_check.add_argument("--json", action="store_true", help="machine-readable report")

    p_examples = sub.add_parser("examples", help="emit built-in datasets as JSON")
    p_examples.add_argument("name", nargs="?", help="dataset name; omit to list all")
    p_examples.add_argument("--dir", help="write every dataset into this directory")

    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PARSE_ERROR


def _load_datum(args) -> tuple[SncDatum | None, str, int]:
    """Returns (datum, identifier, exit_code); datum is None when exit_code != 0."""
    if args.builder and args.input:
        return None, "", _fail("give either an input file or --builder, not both")
    if args.builder:
        try:
            datum = builders.parse_builder(args.builder)
        except ValueError as e:
            return None, "", _fail(str(e))
        return datum, args.builder, EXIT_OK
    if args.input:
        try:
            datum = builders.from_json(args.input)
        except builders.DatumParseError as e:
            return None, "", _fail(str(e))
        return datum, args.input, EXIT_OK
    return None, "", _fail("no input: give a JSON file or --builder")


def _require_valid_or_report(datum: SncDatum) -> int:
    rep = validate(datum)
    if rep.passed:
        return EXIT_OK
    print(rep.render())
    return EXIT_CHECK_FAILED


def _table_text(table, identifier: str, rational: bool) -> str:
    lines = [f"input: {identifier}"]
    lines.append(f"dim {table.dim}, components {table.n_components}"
                 + (", rational coefficients" if rational else ""))
    items = table.items_sorted()
    if not items:
        lines.append("weight cohomology: zero")
        return "\n".join(lines)
    bs = sorted({b for (_, b) in table.entries}, reverse=True)
    a_max = max(a for (a, _) in table.entries)
    a_range = list(range(0, max(a_max, table.dim) + 1))
    header = ["b\\a"] + [str(a) for a in a_range]
    rows = [header]
    for b in bs:
        row = [str(b)]
        for a in a_range:
            g = table.entry(a, b)
            row.append("." if g.is_zero else str(g))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines.append("weight cohomology table:")
    for r in rows:
        lines.append("  " + "  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def _table_csv(table) -> str:
    lines = ["a,b,free_rank,torsion"]
    for (a, b), g in table.items_sorted():
        torsion = ";".join(str(t) for t in g.torsion)
        lines.append(f"{a},{b},{g.free_rank},{torsion}")
    return "\n".join(lines)


def _table_json_obj(table, identifier: str, rational: bool) -> dict:
    return {
        "input": identifier,
        "dim": table.dim,
        "components": table.n_components,
        "rational": rational,
        "entries": [
            {"a": a, "b": b, "free_rank": g.free_rank, "torsion": list(g.torsion)}
            for (a, b), g in table.items_sorted()
        ],
    }


def cmd_compute(args) -> int:
    datum, identifier, code = _load_datum(args)
    if code:
        return code
    code = _require_valid_or_report(datum)
    if code:
        return code
    report = RunReport(identifier)
    report.table = weight.e2_page(datum, rational=args.rational)
    if args.format == "text":
        print(_table_text(report.table, identifier, args.rational))
    elif args.format == "csv":
        print(_table_csv(report.table))
    else:
        print(json.dumps(_table_json_obj(report.table, identifier, args.rational),
                         indent=2, sort_keys=True))
    return EXIT_OK


def _complex_summary(k: dual.SimplicialComplex) -> str:
    counts = []
    for card in range(1, max((len(f) for f in k.faces), default=0) + 1):
        counts.append(f"{len(k.faces_of_card(card))} of dimension {card - 1}")
    if not counts:
        return "empty complex"
    return f"faces: {', '.join(counts)}"


def _print_dual_report(k: dual.SimplicialComplex, simplify_budget: int | None,
                       contractibility: "weight.ContractibilityReport | None") -> None:
    print(_complex_summary(k))
    h = dual.reduced_cohomology(k)
    if h:
        for deg, group in sorted(h.items()):
            print(f"reduced cohomology H~{deg} = {group}")
    else:
        print("reduced cohomology: all zero")
    print(f"euler characteristic: {dual.euler_characteristic(k)}")
    if k.is_connected:
        pres = dual.edge_path_presentation(k)
        print(f"pi1 presentation: {pres.n_generators} generators, "
              f"{len(pres.relators)} relators: {pres}")
        if simplify_budget is not None:
            simp = dual.simplify_presentation(pres, simplify_budget)
            print(f"pi1 simplified: {simp.n_generators} generators, "
                  f"{len(simp.relators)} relators: {simp}")
    else:
        comps = k.connected_components()
        print(f"pi1 presentation: skipped, complex has {len(comps)} components")
    if contractibility is not None:
        print(f"contractibility: {contractibility.render()}")


def cmd_dual(args) -> int:
    if args.complex:
        if not args.input:
            return _fail("--complex needs an input file")
        try:
            obj = json.loads(open(args.input).read())
            k = dual.complex_from_dict(obj)
        except (OSError, json.JSONDecodeError, ValueError) as e:
            return _fail(str(e))
        print(f"input: {args.input}")
        _print_dual_report(k, args.simplify, None)
        return EXIT_OK
    datum, identifier, code = _load_datum(args)
    if code:
        return code
    code = _require_valid_or_report(datum)
    if code:
        return code
    print(f"input: {identifier}")
    k = dual.nerve(datum)
    budget = args.simplify if args.simplify is not None else 10_000
    _print_dual_report(k, args.simplify, weight.contractibility_report(datum, budget))
    return EXIT_OK


def _parse_hc(text: str) -> dict[int, int]:
    out = {}
    for part in text.split(","):
        k, _, v = part.partition(":")
        out[int(k)] = int(v)
    return out


def _d2_report(datum: SncDatum) -> Report:
    """Compose the level differentials directly; works on structurally sound data."""
    problems = []
    for b in datum.graded_degrees():
        for k in range(1, datum.dim):
            lhs = level_differential(datum, k + 1, b)
            rhs = level_differential(datum, k, b)
            if not (lhs.matrix * rhs.matrix).is_zero:
                problems.append(f"d after d is nonzero at levels k={k}->{k + 2}, degree b={b}")
    return Report("d2", not problems, tuple(problems))


def _guarding(name: str, thunk) -> Report:
    try:
        return thunk()
    except InvalidDatumError:
        return Report(name, False, ("datum fails full validation; see the validate report",))
    except FreeTensorError as e:
        return Report(name, True, (f"not applicable: {e}",))


def _product_consistency(datum: SncDatum) -> Report:
    table = weight.weight_cohomology_table(datum)
    point_table = weight.weight_cohomology_table(
        weight.product_snc(datum, builders.point_snc()))
    square = weight.weight_cohomology_table(weight.product_snc(datum, datum))
    expected_square = weight.tensor_table(table, table)
    problems = []
    if not point_table.entries_equal(table):
        problems.append("product with a point changed the table")
    if not square.entries_equal(expected_square):
        problems.append("table of the self-product differs from the table tensor square")
    return Report("product-consistency", not problems, tuple(problems))


def _run_checks(datum: SncDatum, which: str, expected_hc: dict[int, int] | None) -> list[Report]:
    reports = []
    if which in ("all", "d2"):
        reports.append(_d2_report(datum))
    if which in ("all", "prop1"):
        reports.append(_guarding("nerve-identity", lambda: weight.check_nerve_identity(datum)))
    if which in ("all", "euler"):
        reports.append(_guarding("euler", lambda: weight.euler_check(datum)))
    if which in ("all", "stability"):
        reports.append(_guarding("affine-line-stability",
                                 lambda: weight.a1_stability_check(datum)))
    if which in ("all", "degeneration"):
        if expected_hc is None:
            reports.append(Report("degeneration", True,
                                  ("skipped: no expected Betti numbers available",)))
        else:
            reports.append(_guarding("degeneration",
                                     lambda: weight.degeneration_check(datum, expected_hc)))
    if which in ("all", "product-consistency"):
        reports.append(_guarding("product-consistency", lambda: _product_consistency(datum)))
    return reports


def cmd_check(args) -> int:
    # With --builder the single positional is the suite name.
    if args.builder and args.input and args.which == "all":
        if args.input in CHECK_SUITES:
            args.which = args.input
            args.input = None
        else:
            return _fail(f"unknown check suite {args.input!r}")
    datum, identifier, code = _load_datum(args)
    if code:
        return code
    # Checks only need the structural tier up front: the d2 suite is a
    # diagnostic for data whose coherence is exactly what is in question.
    rep = validate_structure(datum)
    if not rep.passed:
        print(rep.render())
        return EXIT_CHECK_FAILED

    expected_hc = None
    if args.hc:
        try:
            expected_hc = _parse_hc(args.hc)
        except ValueError:
            return _fail(f"cannot parse --hc value {args.hc!r}")
    elif args.builder:
        try:
            expected_hc = builders.builder_betti(args.builder)
        except ValueError:
            expected_hc = None
    if args.which == "degeneration" and expected_hc is None:
        return _fail("degeneration check needs --hc or a builder with known Betti numbers")

    report = RunReport(identifier, checks=_run_checks(datum, args.which, expected_hc))
    if args.json:
        obj = {
            "input": identifier,
            "checks": [
                {"name": r.name, "passed": r.passed, "details": list(r.details)}
                for r in report.checks
            ],
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"input: {identifier}")
        for r in report.checks:
            print(r.summary())
            if not r.passed:
                for d in r.details:
                    print(f"  {d}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_examples(args) -> int:
    names = builders.example_names()
    if args.dir:
        import os

        os.makedirs(args.dir, exist_ok=True)
        written = []
        for name in names:
            datum = builders.parse_builder(name)
            filename = name.replace(":", "_").replace(",", "_") + ".json"
            path = os.path.join(args.dir, filename)
            with open(path, "w") as fh:
                fh.write(builders.to_json(datum))
            written.append(filename)
        rp2_path = os.path.join(args.dir, "rp2_complex.json")
        with open(rp2_path, "w") as fh:
            fh.write(json.dumps(dual.complex_to_dict(dual.real_projective_plane()),
                                indent=2, sort_keys=True) + "\n")
        written.append("rp2_complex.json")
        for filename in written:
            print(filename)
        return EXIT_OK
    if args.name is None:
        for name in names:
            print(name)
        print("rp2  (raw simplicial complex; use with dual --complex)")
        return EXIT_OK
    if args.name == "rp2":
        print(json.dumps(dual.complex_to_dict(dual.real_projective_plane()),
                         indent=2, sort_keys=True))
        return EXIT_OK
    try:
        datum = builders.parse_builder(args.name)
    except ValueError as e:
        return _fail(str(e))
    print(builders.to_json(datum), end="")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "dual": cmd_dual,
        "check": cmd_check,
        "examples": cmd_examples,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
