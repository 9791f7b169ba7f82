"""Command-line driver.

Exit codes: 0 on success (all checks passing), 1 on validation or check
failure, 2 on a refused input or invocation, or on output that stdout
cannot take.  Commands raise refusals as typed exceptions, and main
alone maps them to exit codes.  Output is deterministic for a fixed
input and flag set: fixed orderings everywhere and no timestamps.

Data enter the program only here, so only here is a datum validated, by
weight.validate; the library takes a valid datum as a precondition.
Only the command knows which rows of the datum's table it reads (prop1
reads row b = 0, d2 and dual none, compute and every other suite all
of them), so it tells validation, whose pass then takes those rows from
the complexes it checks.  The check suites are in
checks.

At module level this imports only what main needs to map refusals; each
handler imports the layers it runs, so a command loads no module it
never calls: dual --complex loads neither builders nor weight, compute
and dual on a builder load neither datafile nor checks, and on a file
they load no builders (dual loads weight, to validate), nor does check
on a file unless a suite multiplies by the line or the point.  No
module of the package imports this one: run as `python -m sncweight.cli`,
it is __main__, and an import would compile it again.  The `sncweight` console
script is no such import: it runs outside the package, where __main__ is
the script itself, so it loads this module once, as sncweight.cli.  Both
ways start in run, which exits with main's code (see run for why it
freezes the heap first).
"""

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager

from .intmat import DenseWorkTooLargeError
from .sncdata import DatumParseError, ProductTooLargeError, parse_int, read_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2

CHECK_SUITES = ("all", "prop1", "d2", "stability", "euler", "degeneration", "product-consistency")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals, its subcommands' included, are UsageErrors.

    argparse would print its usage block and exit 2 itself; raising lets
    main give the one error line of every other refusal.  --help still
    prints and exits 0.  Its text is written and flushed here, as argparse
    would drop an OSError: output that stdout cannot take fails inside
    main, which maps it like any other.
    """

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        out = sys.stdout if file is None else file
        out.write(self.format_help())
        out.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_dual.add_argument("--simplify", metavar="BUDGET", default=None,
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


class UsageError(Exception):
    """Arguments that conflict, are missing, or do not parse; or an unwritable --dir."""


class ValidationFailed(Exception):
    """A datum that fails full validation; the message is its validate report."""


def _load_datum(args):
    """The SncDatum of --builder or of the input file, and its identifier.

    Each source imports its own module: a builder loads no file format,
    and a file loads no builder family.
    """
    if args.builder and args.input:
        raise UsageError("give either an input file or --builder, not both")
    if args.builder:
        from . import builders

        return builders.parse_builder(args.builder), args.builder
    if args.input:
        from . import datafile

        return datafile.from_json(args.input), args.input
    raise UsageError("no input: give a JSON file or --builder")


def _check_valid(datum, rows) -> None:
    """Validate datum in full, taking the rows b in rows of its table too (see weight.validate)."""
    from . import weight

    rep = weight.validate(datum, rows)
    if not rep.passed:
        raise ValidationFailed(rep.render())


def _load_valid_datum(args, reads_table: bool):
    """_load_datum; a datum read from a file must pass full validation."""
    datum, identifier = _load_datum(args)
    if args.input:
        _check_valid(datum, datum.graded_degrees() if reads_table else ())
    return datum, identifier


@contextmanager
def _exact_output():
    """Lift Python's int-string digit limit while a command computes and prints.

    The limit (4300 digits by default) bounds the time to parse an
    integer literal, so it stays on while input is read.  An answer can
    outgrow it, a torsion coefficient being a product of input entries,
    and must still print exactly.  Interpreters older than 3.10.7 have
    no limit, and 0 means none is set.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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
    from . import weight

    datum, identifier = _load_valid_datum(args, True)
    with _exact_output():
        table = weight.weight_cohomology_table(datum)
        if args.rational:
            table = table.rationalized()
        if args.format == "text":
            print(_table_text(table, identifier, args.rational))
        elif args.format == "csv":
            print(_table_csv(table))
        else:
            print(json.dumps(_table_json_obj(table, identifier, args.rational),
                             indent=2, sort_keys=True))
    return EXIT_OK


def _complex_summary(k) -> str:
    counts = [f"{len(k.faces_of_card(card))} of dimension {card - 1}"
              for card in range(1, k.dim + 2)]
    return f"faces: {', '.join(counts)}" if counts else "empty complex"


def _print_dual_report(identifier: str, k, simplify_budget: int | None, certify: bool) -> None:
    from . import dual

    # Each part is computed once, and all of them before the first line, so
    # a dense core over budget leaves stdout empty.  Vanishing reduced
    # cohomology forces a connected complex, whose presentation the
    # contractibility line needs simplified (within --simplify if given).
    h = dual.reduced_cohomology(k)
    try:
        pres = dual.edge_path_presentation(k)
    except dual.DisconnectedComplexError as e:
        pres, components = None, e.components
    simp = None
    if pres is not None and (simplify_budget is not None or (certify and not h)):
        budget = dual.SIMPLIFY_BUDGET if simplify_budget is None else simplify_budget
        simp = dual.simplify_presentation(pres, budget)
    print(f"input: {identifier}")
    print(_complex_summary(k))
    if h:
        for deg, group in sorted(h.items()):
            print(f"reduced cohomology H~{deg} = {group}")
    else:
        print("reduced cohomology: all zero")
    print(f"euler characteristic: {dual.euler_characteristic(k)}")
    if pres is not None:
        print(f"pi1 presentation: {pres.n_generators} generators, "
              f"{len(pres.relators)} relators: {pres}")
        if simplify_budget is not None:
            print(f"pi1 simplified: {simp.n_generators} generators, "
                  f"{len(simp.relators)} relators: {simp}")
    else:
        print(f"pi1 presentation: skipped, complex has {len(components)} components")
    if certify:
        print(f"contractibility: {dual.contractibility_report(h, simp).render()}")


def cmd_dual(args) -> int:
    from . import dual

    budget = None if args.simplify is None else parse_int(args.simplify, "--simplify budget")
    if budget is not None and budget < 0:
        raise UsageError(f"--simplify budget {budget} is negative")
    if args.complex:
        if not args.input:
            raise UsageError("--complex needs an input file")
        if args.builder:
            raise UsageError("give either an input file or --builder, not both")
        k = dual.complex_from_dict(read_json(args.input))
        with _exact_output():
            _print_dual_report(args.input, k, budget, False)
        return EXIT_OK
    datum, identifier = _load_valid_datum(args, False)
    with _exact_output():
        _print_dual_report(identifier, dual.nerve(datum), budget, True)
    return EXIT_OK


def _parse_hc(text: str) -> dict[int, int]:
    """--hc's degree:count pairs: plain-decimal integers, none negative, no degree twice."""
    out = {}
    for part in text.split(","):
        k, _, v = part.partition(":")
        try:
            degree, count = parse_int(k, "degree"), parse_int(v, "count")
        except DatumParseError:
            raise UsageError(f"cannot parse --hc value {text!r}") from None
        if degree < 0 or count < 0:
            raise UsageError(f"--hc value {text!r} has a negative degree or count")
        if degree in out:
            raise UsageError(f"--hc value {text!r} gives degree {degree} twice")
        out[degree] = count
    return out


def _nerve_cohomology(datum):
    """Reduced cohomology of the datum's nerve, for the nerve-identity suite.

    dual is imported here, so a check that runs no nerve-identity suite
    loads no dual.
    """
    from . import dual

    return dual.reduced_cohomology(dual.nerve(datum))


def _product_factors():
    """The affine line and the point, the factors of the two suites that build products.

    builders is imported here, so a check on a file that builds no
    product loads no builders.
    """
    from . import builders

    return builders.affine_space_snc(1), builders.point_snc()


def cmd_check(args) -> int:
    from . import checks

    # With --builder the single positional is the suite name.
    if args.builder and args.input and args.which == "all":
        if args.input in CHECK_SUITES:
            args.which = args.input
            args.input = None
        else:
            raise UsageError(f"unknown check suite {args.input!r}")
    datum, identifier = _load_datum(args)
    expected_hc = None
    if args.hc is not None:
        expected_hc = _parse_hc(args.hc)
    elif args.builder:
        from . import builders

        expected_hc = builders.builder_betti(args.builder)
    if args.which == "degeneration" and expected_hc is None:
        raise UsageError("degeneration check needs --hc or a builder with known Betti numbers")
    # The parse and usage errors are decided above, so their exit 2 does not
    # depend on the datum's validity.  Unlike compute and dual, check
    # validates a builder's datum too: it never takes validity on trust.
    # prop1 reads row b = 0 of the table, d2 none of it, and every other
    # suite all of it.
    _check_valid(datum, (0,) if args.which == "prop1" else () if args.which == "d2"
                 else datum.graded_degrees())
    with _exact_output():
        reports = checks.run_checks(datum, args.which, expected_hc, _nerve_cohomology,
                                    _product_factors)
    if args.json:
        obj = {
            "input": identifier,
            "checks": [
                {"name": r.name, "passed": r.passed, "details": list(r.details)}
                for r in reports
            ],
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"input: {identifier}")
        for r in reports:
            print(r.summary() if r.passed else r.render())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _rp2_json() -> str:
    from . import dual

    k = dual.real_projective_plane()  # pure, so its facets are its triangles, made 0-based
    obj = {"vertices": len(k.vertices), "facets": [[v - 1 for v in f] for f in k.faces_of_card(3)]}
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_examples(args) -> int:
    from . import builders, datafile

    names = builders.example_names()
    if args.dir and args.name:
        raise UsageError("give either a dataset name or --dir, not both")
    if args.dir:
        files = [(name.replace(":", "_").replace(",", "_") + ".json",
                  datafile.to_json(builders.parse_builder(name))) for name in names]
        files.append(("rp2_complex.json", _rp2_json() + "\n"))
        try:
            os.makedirs(args.dir, exist_ok=True)
            for filename, text in files:
                with open(os.path.join(args.dir, filename), "w") as fh:
                    fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write examples into {args.dir}: {e}") from e
        for filename, _ in files:
            print(filename)
        return EXIT_OK
    if args.name is None:
        for name in names:
            print(name)
        print("rp2  (raw simplicial complex; use with dual --complex)")
        return EXIT_OK
    if args.name == "rp2":
        print(_rp2_json())
        return EXIT_OK
    print(datafile.to_json(builders.parse_builder(args.name)), end="")
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "compute": cmd_compute,
        "dual": cmd_dual,
        "check": cmd_check,
        "examples": cmd_examples,
    }
    try:
        try:
            args = build_parser().parse_args(argv)
            code = handlers[args.command](args)
        except ValidationFailed as e:
            print(e)
            code = EXIT_CHECK_FAILED
        # What is still buffered fails here, where it can be reported, and
        # not in the interpreter's last flush.
        sys.stdout.flush()
        return code
    except (DatumParseError, UsageError, ProductTooLargeError, DenseWorkTooLargeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except OSError as e:
        # Every file read and every --dir write maps its own OSError to a
        # refusal, so what reaches here is stdout refusing output: a full
        # device or a closed pipe.  Pointing stdout at the null device lets
        # the interpreter's last flush of the unwritten rest succeed silently.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR


def run() -> None:
    """Run main as a process and exit with its code: the `sncweight` script and `-m` start here.

    When main returns, its output is written and flushed, and all that is
    left is the interpreter's shutdown, whose collections would walk every
    live object a last time.  gc.freeze moves them into the permanent
    generation, which collections skip; reference counting still frees
    them, and atexit handlers, the last flush of stdout and stderr, and
    module teardown all still run.  main itself freezes nothing, as a
    caller in the same process may still need its cycles collected.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
