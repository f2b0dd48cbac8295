"""Command-line front end: analyze, decompose, witness, generate, verify, poset."""

import argparse
import functools
import json
import sys

from .abelian import _cover_pairs, enumerate_abelian
from .analyzer import (
    ConnectionSet,
    _parse_literal,
    analysis_report,
    decompose,
    product_type_witness,
)
from .digraph import DEFAULT_ELEMENT_CAP, DEFAULT_VERTEX_CAP, dot_lines, edge_list_lines, tower_connection_set
from .errors import CapacityError
from .oracle import MISMATCH, ORACLE_CAPPED, cross_validate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_CAPACITY = 3


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for oracle mismatches; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """An argparse type for caps: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _layer_list(text: str) -> tuple[int, ...]:
    """An argparse type for --layers: comma-separated integers."""
    layers = []
    for token in text.split(","):
        try:
            layers.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid layer exponent {token!r} in {text!r}") from None
    return tuple(layers)


# one encoder for every report: json.dumps with these options builds a new one per call
_json_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser for every subcommand and argparse's own table of the
    subcommand parsers by name, built on the first call and reused.  Each
    subcommand's parser sets its runner as the ``run`` default.

    Parsing returns a fresh namespace each time and no default is mutable,
    so nothing carries over from one call of `main` to the next.
    """
    parser = _Parser(prog="circulant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def instance_command(name, run, help, other_format, nargs=None):
        p = command(name, run, help)
        p.add_argument("instance", nargs=nargs, help='connection set literal, e.g. "n=45;S=0,1,15,30"')
        p.add_argument("--format", dest="fmt", choices=["text", other_format], default="text")
        return p

    instance_command("analyze", _run_analyze, "levels, minimal group, realizable groups", "json")
    d = instance_command("decompose", _run_decompose, "per-prime valid levels and layers", "json")
    d.add_argument("--prime", type=int, default=None, help="restrict output to one prime")
    instance_command("witness", _run_witness, "product-type tower digraphs as edge lists", "dot")
    g = command("generate", _run_generate, "emit the circulant connection set of a tower")
    g.add_argument("--p", type=int, required=True, help="prime")
    g.add_argument("--layers", type=_layer_list, required=True, help="comma-separated layer exponents, outermost first")
    g.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    v = instance_command("verify", _run_verify, "cross-validate the analyzer against the oracle", "json", nargs="?")
    v.add_argument("--batch", default=None, help="corpus file in place of the instance, one instance per line, # comments")
    v.add_argument("--cap", type=_positive_int, default=DEFAULT_ELEMENT_CAP, help="element enumeration cap, at least 1")
    v.add_argument("--vertex-cap", type=_positive_int, default=DEFAULT_VERTEX_CAP, help="digraph size cap, at least 1")
    v.add_argument("--strict", action="store_true", help="exit 3 on capacity errors")
    p = command("poset", _run_poset, "abelian groups of order n with Hasse cover pairs")
    p.add_argument("n", type=int)
    p.add_argument("--format", dest="fmt", choices=["text", "json", "dot"], default="text")
    return parser, sub.choices


def _prime_line(entry: dict) -> str:
    return f"p = {entry['p']}^{entry['a']}: valid levels {entry['valid_levels']}, layers {entry['layers']}"


def _run_analyze(args) -> int:
    report = analysis_report(args.instance)
    if args.fmt == "json":
        print(_json_dumps(report))
        return EXIT_OK
    print(f"n = {report['n']}")
    print(f"S = {{{','.join(map(str, report['S']))}}}")
    print(f"arithmetic condition gcd(k, phi(k)) = 1: {report['arithmetic_condition']}")
    for entry in report["per_prime"]:
        print(_prime_line(entry))
    print(f"minimal group: {report['minimal_group']}")
    print(f"realizable: [{', '.join(report['realizable'])}]")
    print(f"exact: {report['exact']}")
    return EXIT_OK


def _run_decompose(args) -> int:
    decomposition = decompose(args.instance)
    entries = [
        layers.to_json_dict() for layers in decomposition.per_prime
        if args.prime is None or layers.p == args.prime
    ]
    if args.prime is not None and not entries:
        n = decomposition.n
        if args.prime != 0 and n % args.prime == 0:
            print(f"error: {args.prime} is not a prime dividing {n}", file=sys.stderr)
        else:
            print(f"error: {args.prime} does not divide {n}", file=sys.stderr)
        return EXIT_ERROR
    if args.fmt == "json":
        print(_json_dumps({"n": decomposition.n, "per_prime": entries}))
        return EXIT_OK
    for entry in entries:
        print(_prime_line(entry))
    return EXIT_OK


def _run_witness(args) -> int:
    for p, n, arcs in product_type_witness(args.instance):
        if args.fmt == "dot":
            lines = dot_lines(n, arcs, name=f"tower_p{p}")
        else:
            print(f"# p={p}")
            lines = edge_list_lines(n, arcs)
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return EXIT_OK


def _run_generate(args) -> int:
    n, members = tower_connection_set(args.p, args.layers)
    s = ConnectionSet(n, members)
    if args.fmt == "json":
        print(_json_dumps({"n": n, "S": sorted(members)}))
    else:
        print(s.text())
    return EXIT_OK


def _capacity_exit(exc: CapacityError, strict: bool, where: str = "") -> int:
    """Report a tripped cap, prefixed by ``where`` (a batch line), and its exit code."""
    print(f"capacity: {where}{exc}", file=sys.stderr)
    return EXIT_CAPACITY if strict else EXIT_ERROR


def _verdict_exit(verdicts: list[str], strict: bool, failure_exit: int) -> int:
    """The exit code of a verify run: a mismatch first, then a capped verdict
    under --strict, then the worst exit of a line that failed."""
    if any(v == MISMATCH for v in verdicts):
        return EXIT_MISMATCH
    if strict and any(v == ORACLE_CAPPED for v in verdicts):
        return EXIT_CAPACITY
    return failure_exit


def _report_line(report, fmt: str) -> str:
    if fmt == "json":
        return _json_dumps(report.to_json_dict())
    actual = "-" if report.actual is None else f"[{', '.join(report.actual)}]"
    predicted = f"[{', '.join(report.predicted)}]"
    return f"n={report.n} S={list(report.s)} predicted={predicted} actual={actual} verdict={report.verdict}"


def _run_verify(args) -> int:
    if (args.instance is None) == (args.batch is None):
        print("error: verify needs exactly one of an instance literal or --batch", file=sys.stderr)
        return EXIT_ERROR
    instances = [("", args.instance)]  # (where, instance); a batch line's instance is its text
    if args.batch is not None:
        try:
            with open(args.batch, encoding="utf-8-sig", errors="replace") as handle:
                lines = list(enumerate(map(str.strip, handle), start=1))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        instances = [(f"{args.batch}:{k}: ", text) for k, text in lines if text and not text.startswith("#")]
    verdicts = []
    # a line that is malformed, trips a cap or cannot be decided is reported,
    # and the lines after it still run; a cap under --strict (3) outranks an error (1)
    failure_exit = EXIT_OK
    for where, instance in instances:
        try:
            if isinstance(instance, str):
                instance, messages = _parse_literal(instance)
                for message in messages:
                    print(f"warning: {where}{message}", file=sys.stderr)
            report = cross_validate(instance, cap=args.cap, vertex_cap=args.vertex_cap)
        except CapacityError as exc:
            failure_exit = max(failure_exit, _capacity_exit(exc, args.strict, where))
        except ValueError as exc:
            print(f"error: {where}{exc}", file=sys.stderr)
            failure_exit = max(failure_exit, EXIT_ERROR)
        else:
            verdicts.append(report.verdict)
            print(_report_line(report, args.fmt))
    return _verdict_exit(verdicts, args.strict, failure_exit)


def _run_poset(args) -> int:
    groups = enumerate_abelian(args.n)
    pairs = list(_cover_pairs(groups))
    texts = [g.text() for g in groups]
    if args.fmt == "json":
        payload = {
            "n": args.n,
            "groups": texts,
            "cover_pairs": [[texts[i], texts[j]] for i, j in pairs],
        }
        print(_json_dumps(payload))
    elif args.fmt == "dot":
        lines = [f"digraph poset_{args.n} {{"]
        lines.extend(f'  g{i} [label="{text}"];' for i, text in enumerate(texts))
        lines.extend(f"  g{i} -> g{j};" for i, j in pairs)
        lines.append("}")
        print("\n".join(lines))
    else:
        print(f"{len(texts)} abelian groups of order {args.n}:")
        for text in texts:
            print(f"  {text}")
        print(f"{len(pairs)} cover pairs:")
        for i, j in pairs:
            print(f"  {texts[i]} < {texts[j]}")
    return EXIT_OK


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # A call that names a subcommand is parsed by that subcommand's parser,
    # as the full parser would hand it on.  Every other call, and one that
    # leaves an argument over, goes to the full parser, which answers it (or
    # reports the leftover) exactly as it always has.
    name = argv[0] if argv else None
    if name in commands:
        args, leftover = commands[name].parse_known_args(argv[1:])
    if name not in commands or leftover:
        args = parser.parse_args(argv)
    try:
        if getattr(args, "instance", None) is not None:
            args.instance, messages = _parse_literal(args.instance)
            for message in messages:
                print(f"warning: {message}", file=sys.stderr)
        return args.run(args)
    except CapacityError as exc:
        return _capacity_exit(exc, getattr(args, "strict", False))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
