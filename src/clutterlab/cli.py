"""Command-line interface.

Subcommands:
  check      evaluate properties of one clutter read from a file (or stdin)
  transform  apply a clutter operation and print the resulting clutter
  scan       run the counterexample scan over an enumerated corpus
  verify     run the theorem-implication suite over an enumerated corpus

Exit codes:
  0  success
  1  a property was negative (check --strict), or a data/domain error
  2  a theorem implication was violated (implementation bug)
  3  usage error
  4  instance exceeds a size guard
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .core import (
    ClutterError,
    InstanceTooLargeError,
    adjoin_whisker_edge,
    duplicate,
    graft,
    minor,
    parallelization,
    parse_clutter,
    serialize_clutter,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 3
EXIT_TOO_LARGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 3."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="clutterlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate properties of one clutter")
    check.add_argument(
        "--props",
        help=f"comma-separated subset of: {','.join(harness.ALL_PROPERTIES)}",
    )
    check.add_argument("--max-w", type=int, default=2, metavar="W",
                       help="weight bound for the max-flow min-cut box")
    check.add_argument("--max-power", type=int, default=2, metavar="K",
                       help="power bound for normality / torsion-freeness")
    check.add_argument("--field", choices=("q", "f2"), default="q",
                       help="coefficient field for the Cohen-Macaulay check")
    check.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
    check.add_argument("--strict", action="store_true",
                       help="exit 1 if any evaluated property is negative")
    check.add_argument("file", help="clutter file ('-' for stdin)")

    transform = sub.add_parser("transform", help="apply a clutter operation")
    transform.add_argument(
        "op", choices=("graft", "parallelize", "minor", "duplicate", "whisker")
    )
    transform.add_argument("--weights", metavar="W1,W2,...",
                           help="parallelize: one weight per vertex")
    transform.add_argument("--delete", default="", metavar="V1,V2,...",
                           help="minor: vertices to delete")
    transform.add_argument("--contract", default="", metavar="V1,V2,...",
                           help="minor: vertices to contract")
    transform.add_argument("--vertex", metavar="V",
                           help="duplicate/whisker: the vertex to act on")
    transform.add_argument("--length", type=int, default=1, metavar="L",
                           help="whisker: number of new vertices (default 1)")
    transform.add_argument("--d", type=int, metavar="D",
                           help="graft: required uniform edge size")
    transform.add_argument("file", help="clutter file ('-' for stdin)")

    def corpus_flags(p):
        p.add_argument("--n", type=int, required=True, metavar="N",
                       help="number of vertices")
        p.add_argument("--d", type=int, metavar="D",
                       help="restrict to d-uniform clutters")
        p.add_argument("--qmax", type=int, metavar="Q",
                       help="maximum number of edges")
        p.add_argument("--iso", action="store_true",
                       help="keep one representative per isomorphism class")
        p.add_argument("--max-w", type=int, default=2, metavar="W")
        p.add_argument("--max-power", type=int, default=2, metavar="K")

    scan = sub.add_parser("scan", help="scan for packing clutters without MFMC")
    corpus_flags(scan)
    scan.add_argument("--out", metavar="PATH",
                      help="write the report here instead of stdout")
    scan.add_argument("--format", choices=("json", "csv", "text"),
                      default="json")

    verify = sub.add_parser("verify", help="assert the theorem implications")
    corpus_flags(verify)
    return parser


def _read_clutter(path: str):
    if path == "-":
        return parse_clutter(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_clutter(fh.read())


def _split_labels(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--weights must be comma-separated integers: {text!r}")


def _corpus_spec(args) -> harness.CorpusSpec:
    return harness.CorpusSpec(
        max_vertices=args.n,
        uniform_size=args.d,
        max_edges=args.qmax,
        isomorph_reject=args.iso,
    )


def _run_check(args) -> int:
    props = None
    if args.props is not None:
        props = _split_labels(args.props)
        unknown = [p for p in props if p not in harness.ALL_PROPERTIES]
        if unknown:
            raise _UsageError(f"unknown properties: {', '.join(unknown)}")
        if not props:
            raise _UsageError("--props must name at least one property")
    c = _read_clutter(args.file)
    bounds = harness.VerifyBounds(max_weight=args.max_w, max_power=args.max_power)
    field = "Q" if args.field == "q" else "F2"
    report = harness.check_properties(c, bounds, props=props, field=field)
    sys.stdout.write(harness.emit_report([report], format=args.format).decode())
    if args.strict and any(not v.value for v in report.verdicts):
        return EXIT_NEGATIVE
    return EXIT_OK


def _run_transform(args) -> int:
    c = _read_clutter(args.file)
    if args.op == "graft":
        result = graft(c, d=args.d)
    elif args.op == "parallelize":
        if args.weights is None:
            raise _UsageError("parallelize requires --weights")
        result = parallelization(c, _parse_weights(args.weights))
    elif args.op == "minor":
        result = minor(
            c,
            deleted=_split_labels(args.delete),
            contracted=_split_labels(args.contract),
        )
    elif args.op == "duplicate":
        if args.vertex is None:
            raise _UsageError("duplicate requires --vertex")
        result = duplicate(c, args.vertex)
    else:
        if args.vertex is None:
            raise _UsageError("whisker requires --vertex")
        result = adjoin_whisker_edge(c, args.vertex, args.length)
    sys.stdout.write(serialize_clutter(result))
    return EXIT_OK


def _run_scan(args) -> int:
    result = harness.scan_conforti_cornuejols(
        _corpus_spec(args), max_weight=args.max_w, max_power=args.max_power
    )
    blob = harness.emit_report(result.reports, format=args.format)
    summary = (
        f"scanned {len(result.reports)} packing-property instances; "
        f"{len(result.counterexamples)} counterexamples; "
        f"hash {harness.report_hash(result.reports)}\n"
    )
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(blob.decode())
        sys.stderr.write(summary)
    for text in result.counterexamples:
        sys.stderr.write("COUNTEREXAMPLE:\n" + text)
    return EXIT_OK


def _run_verify(args) -> int:
    bounds = harness.VerifyBounds(max_weight=args.max_w, max_power=args.max_power)
    summary = harness.verify_theorems(_corpus_spec(args), bounds)
    sys.stdout.write(f"verified {len(summary.reports)} instances\n")
    for line in summary.lines():
        sys.stdout.write(line + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            return _run_check(args)
        if args.command == "transform":
            return _run_transform(args)
        if args.command == "scan":
            return _run_scan(args)
        return _run_verify(args)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except InstanceTooLargeError as exc:
        sys.stderr.write(f"clutterlab: instance too large: {exc}\n")
        return EXIT_TOO_LARGE
    except harness.TheoremViolationError as exc:
        sys.stderr.write(f"clutterlab: THEOREM VIOLATION\n{exc}\n")
        return EXIT_VIOLATION
    except (ClutterError, OSError, ValueError) as exc:
        sys.stderr.write(f"clutterlab: {exc}\n")
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
