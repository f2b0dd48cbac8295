"""Command-line front end: analyze, decompose, witness, generate, verify, poset."""

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from itertools import chain

from .abelian import _cover_pairs, _covers, enumerate_abelian
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
def build_parser() -> tuple[argparse.ArgumentParser, dict[tuple, Callable]]:
    """The parser for every subcommand and the scripted shapes, built on the
    first call and reused.  Each subcommand's parser sets its runner as the
    ``run`` default.

    A scripted shape is ``COMMAND LITERAL`` or ``COMMAND LITERAL --format
    F`` for a command that takes a literal; it is keyed by its argv without
    the literal, and its value is a function that returns the parser's
    namespace for that argv with a placeholder literal, parsed on the shape's
    first use and kept, so a process that makes one call runs one parse, as
    argparse alone would.
    argparse stores a positional that does not start with ``-`` unchanged,
    and nothing else in the namespace depends on it, so that namespace with
    the literal swapped in equals ``parser.parse_args(argv)``.
    `main` copies the namespace it uses, and no default is mutable, so
    nothing carries over from one call to the next.
    """
    parser = _Parser(prog="circulant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    shapes = []  # (name, --format choices) of each command that takes a literal

    def instance_command(name, run, help, other_format, nargs=None):
        p = command(name, run, help)
        p.add_argument("instance", nargs=nargs, help='connection set literal, e.g. "n=45;S=0,1,15,30"')
        fmt = p.add_argument("--format", dest="fmt", choices=["text", other_format], default="text")
        shapes.append((name, fmt.choices))
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
    scripted = {
        (name, *flags): functools.cache(functools.partial(parser.parse_args, [name, "LITERAL", *flags]))
        for name, choices in shapes
        for flags in [(), *(("--format", choice) for choice in choices)]
    }
    return parser, scripted


def _prime_line(entry: dict) -> str:
    return f"p = {entry['p']}^{entry['a']}: valid levels {entry['valid_levels']}, layers {entry['layers']}"


def _run_analyze(args) -> int:
    report = analysis_report(_read_literal(args.instance))
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
    decomposition = decompose(_read_literal(args.instance))
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
    for p, n, arcs in product_type_witness(_read_literal(args.instance)):
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


def _read_literal(text: str, where: str = "") -> ConnectionSet:
    """The connection set ``text`` names; each reduction warning is printed,
    prefixed by ``where`` (a batch line)."""
    instance, messages = _parse_literal(text)
    for message in messages:
        print(f"warning: {where}{message}", file=sys.stderr)
    return instance


def _batch(path: str):
    """(where, text) for each line of the corpus at ``path`` that is neither
    blank nor a comment, read one line at a time."""
    with open(path, encoding="utf-8-sig", errors="replace") as handle:
        for k, text in enumerate(map(str.strip, handle), start=1):
            if text and not text.startswith("#"):
                yield f"{path}:{k}: ", text


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
    # (where, text): the literal, or each batch line's text, answered before the next is read
    texts = [("", args.instance)] if args.batch is None else _batch(args.batch)
    # a line that is malformed, trips a cap or cannot be decided is reported, and
    # the lines after it still run; a mismatch (2) outranks everything, and a cap
    # or capped verdict under --strict (3) outranks an error (1)
    mismatch, failure_exit = False, EXIT_OK
    try:
        for where, text in texts:
            try:
                report = cross_validate(_read_literal(text, where), cap=args.cap, vertex_cap=args.vertex_cap)
            except CapacityError as exc:
                failure_exit = max(failure_exit, _capacity_exit(exc, args.strict, where))
            except ValueError as exc:
                print(f"error: {where}{exc}", file=sys.stderr)
                failure_exit = max(failure_exit, EXIT_ERROR)
            else:
                print(_report_line(report, args.fmt))
                mismatch |= report.verdict == MISMATCH
                if args.strict and report.verdict == ORACLE_CAPPED:
                    failure_exit = EXIT_CAPACITY
    except BrokenPipeError:
        raise  # a closed stdout, which main answers
    except OSError as exc:  # the batch could not be opened or read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_MISMATCH if mismatch else failure_exit


def _run_poset(args) -> int:
    groups = enumerate_abelian(args.n)
    texts = [g.text() for g in groups]
    if args.fmt == "json":
        # _json_dumps's bytes for the whole object, keys sorted, one cover pair at a time
        pairs = (_json_dumps([texts[i], texts[j]]) for i, j in _cover_pairs(groups))
        lines = chain(
            ['{"cover_pairs":[', next(pairs, "")],
            ("," + pair for pair in pairs),
            [f'],"groups":{_json_dumps(texts)},"n":{_json_dumps(args.n)}}}\n'],
        )
    elif args.fmt == "dot":
        lines = chain(
            [f"digraph poset_{args.n} {{"],
            (f'  g{i} [label="{text}"];' for i, text in enumerate(texts)),
            (f"  g{i} -> g{j};" for i, j in _cover_pairs(groups)),
            ["}"],
        )
    else:
        # _cover_pairs pairs a group with each cover of one prime's partition, so the pairs are counted unlisted
        count = sum(len(_covers(parts)) for g in groups for _, parts in g.sylow)
        lines = chain(
            [f"{len(texts)} abelian groups of order {args.n}:"],
            (f"  {text}" for text in texts),
            [f"{count} cover pairs:"],
            (f"  {texts[i]} < {texts[j]}" for i, j in _cover_pairs(groups)),
        )
    end = "" if args.fmt == "json" else "\n"
    sys.stdout.writelines(f"{line}{end}" for line in lines)
    return EXIT_OK


def main(argv=None) -> int:
    parser, scripted = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # routes: a scripted shape, else the full parser
    template = scripted.get((argv[0], *argv[2:])) if len(argv) > 1 and argv[1][:1] != "-" else None
    if template is None:
        args = parser.parse_args(argv)
    else:
        args = argparse.Namespace(**vars(template()))
        args.instance = argv[1]
    try:
        return args.run(args)
    except CapacityError as exc:  # verify answers its own, --strict included
        return _capacity_exit(exc, False)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader closed stdout; devnull takes what is still buffered, so the exit flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
