"""Command-line surface: single-graph checks, batch scans, structure dumps,
mate search, and exhaustive verification.

Each command accepts only the options it reads. `batch` always reads graph6
and writes JSONL, so it has no --format or --output; `spectrum` does not
factor, so it has no --effort; `mates` and `verify-theorem` read graph6
pools, so they have no --format, and `mates` has no --effort either. A
WALKSPEC_* default applies only to the commands that have its flag.

Exit codes: 0 certified (or clean report), 1 arithmetic/singular failure or
verification counterexample, 2 excluded/small/undecided, 64 usage, I/O or
parse errors, a rejected pool or an unfactorable alpha denominator; a
stdout closed by its reader exits 64 too, without a message. All
JSON output carries "schema": 1 and renders big integers as decimal strings.

`check`, `batch` and `verify-theorem` factor alpha's denominator once per
command, up front; every graph's criterion reads the odd primes kept on
the parsed alpha.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain, islice
from typing import Iterator

from . import numtheory
from .criterion import (AlphaParam, Verdict, _key_json, criterion_check,
                        report_to_json, spectrum_key, walk_matrix)
from .graphs import (ENUMERATION_CAP, Graph, GraphParseError, encode_graph6,
                     enumerate_graphs, parse_edge_list, parse_graph6)
from .linalg import smith_divisors
from .oracle import (PoolError, find_mate_classes, verification_to_json,
                     verify_theorem)

EXIT_CERTIFIED = 0
EXIT_FAILED = 1
EXIT_LIMITED = 2
EXIT_USAGE = 64

_VERDICT_EXIT = {
    Verdict.CERTIFIED_DGAS: EXIT_CERTIFIED,
    Verdict.FAILS_ARITHMETIC: EXIT_FAILED,
    Verdict.SINGULAR_WALK_MATRIX: EXIT_FAILED,
    Verdict.EXCLUDED_CASE: EXIT_LIMITED,
    Verdict.SMALL_ORDER: EXIT_LIMITED,
    Verdict.UNDECIDED_FACTORIZATION: EXIT_LIMITED,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError on bad arguments, so main prints it
    and owns the exit code."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _env(name: str, fallback: str | None = None) -> str | None:
    """WALKSPEC_<name>, or fallback when it is unset or empty."""
    return os.environ.get(f"WALKSPEC_{name}") or fallback


# argparse checks choices only on command-line values, not on the
# WALKSPEC_* defaults, so _config checks these
_CHOICES = {"fmt": ("FORMAT", ("graph6", "edgelist")),
            "output": ("OUTPUT", ("json", "table"))}


def _options() -> _Parser:
    return _Parser(add_help=False)


def _build_parser() -> _Parser:
    parser = _Parser(prog="walkspec",
                     description="Exact arithmetic tests for determination "
                                 "by the generalized alpha-spectrum.")
    sub = parser.add_subparsers(dest="command", required=True)

    alpha = _options()
    alpha.add_argument("--alpha", default=_env("ALPHA"),
                       required=_env("ALPHA") is None,
                       help="rational alpha as p/q in [0, 1), e.g. 3/4")
    fmt = _options()
    fmt.add_argument("--format", dest="fmt", choices=_CHOICES["fmt"][1],
                     default=_env("FORMAT", "graph6"),
                     help="input format (default graph6)")
    output = _options()
    output.add_argument("--output", choices=_CHOICES["output"][1],
                        default=_env("OUTPUT", "table"),
                        help="report rendering (default table)")
    # default None: _config reads WALKSPEC_EFFORT, so only commands with
    # --effort parse it
    effort = _options()
    effort.add_argument("--effort", type=int,
                        help="factorization effort cap, in rho steps; an ECM "
                             "curve is charged by its multiplications")
    graph = _options()
    graph.add_argument("input", nargs="?", help="input file ('-' for stdin)")
    graph.add_argument("--graph", dest="inline",
                       help="inline graph6 text instead of a file")
    pool = _options()
    pool.add_argument("input", nargs="?", help="graph6 file, one graph per line")
    pool.add_argument("--n", type=int, dest="order",
                      help=f"enumerate all graphs of this order (1..{ENUMERATION_CAP})")
    pool.add_argument("--connected-only", action="store_true",
                      help="restrict enumeration to connected graphs")
    batch = _options()
    batch.add_argument("input", help="graph6 file, one graph per line")

    for name, run, options, text in (
        ("check", cmd_check, (fmt, output, effort, graph),
         "criterion verdict for one graph"),
        ("batch", cmd_batch, (effort, batch),
         "criterion verdicts for a graph6 file, JSONL"),
        ("snf", cmd_snf, (fmt, output, effort, graph),
         "Smith divisors of the normalized walk matrix"),
        ("spectrum", cmd_spectrum, (fmt, output, graph),
         "characteristic polynomials of graph and complement"),
        ("mates", cmd_mates, (output, pool), "group graphs by shared spectrum key"),
        ("verify-theorem", cmd_verify_theorem, (output, effort, pool),
         "exhaustive verdict/mate cross-check with certificates"),
    ):
        sub.add_parser(name, parents=[alpha, *options], help=text).set_defaults(run=run)
    return parser


def _config(ns: argparse.Namespace) -> None:
    """Parse --alpha in place, and factor its denominator for the commands
    that read its odd primes; check the --format and --output defaults, and
    default and check --effort, where they exist."""
    try:
        ns.alpha = AlphaParam.parse(ns.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --alpha {ns.alpha!r}: {exc}") from None
    if ns.command in ("check", "batch", "verify-theorem"):
        try:
            ns.alpha.odd_primes
        except numtheory.FactorizationBudgetError:
            raise UsageError(f"bad --alpha {ns.alpha}: cannot factor its "
                             "denominator") from None
    for dest, (name, choices) in _CHOICES.items():
        value = getattr(ns, dest, choices[0])
        if value not in choices:
            raise UsageError(f"bad WALKSPEC_{name} {value!r}: "
                             f"choose from {', '.join(choices)}")
    if "effort" in ns:
        if ns.effort is None:  # unset or empty WALKSPEC_EFFORT: the default
            text = _env("EFFORT")
            try:
                ns.effort = int(text) if text else numtheory.DEFAULT_FACTOR_EFFORT
            except ValueError:
                raise UsageError(
                    f"bad WALKSPEC_EFFORT {text!r}: not an integer") from None
        if ns.effort < 0:
            raise UsageError("--effort must be nonnegative")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as f:
            return f.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphParseError(
            f"{path}: undecodable byte 0x{exc.object[exc.start]:02x} at byte "
            f"offset {exc.start}") from None


# the line boundaries of str.splitlines
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _lines(text: str) -> Iterator[str]:
    """The lines of text.splitlines(), one at a time, without the list."""
    start = 0
    for end in _LINE_END.finditer(text):
        yield text[start:end.start()]
        start = end.end()
    if start < len(text):
        yield text[start:]


def _load_graph(ns: argparse.Namespace) -> Graph:
    if ns.inline is not None:
        if ns.input is not None:
            raise UsageError("give either an input file or --graph, not both")
        if ns.fmt != "graph6":
            raise UsageError("--graph accepts graph6 text only")
        return parse_graph6(ns.inline)
    if ns.input is None:
        raise UsageError("no input: give a file path, '-', or --graph")
    text = _read_text(ns.input)
    if ns.fmt == "graph6":
        line = next((ln for ln in _lines(text) if ln.strip()), None)
        if line is None:
            raise GraphParseError("no graph6 line in input")
        return parse_graph6(line)
    return parse_edge_list(text)


def _load_pool(ns: argparse.Namespace) -> list[Graph]:
    if (ns.order is None) == (ns.input is None):
        raise UsageError("give exactly one of --n or an input file")
    if ns.order is not None:
        if not 1 <= ns.order <= ENUMERATION_CAP:
            raise UsageError(
                f"--n must be in 1..{ENUMERATION_CAP}; larger orders need a file")
        return list(enumerate_graphs(ns.order, connected_only=ns.connected_only))
    if ns.connected_only:
        raise UsageError("--connected-only restricts --n, not an input file")
    text = _read_text(ns.input)
    return [parse_graph6(ln) for ln in _lines(text) if ln.strip()]


class _Items(list):
    """An iterator that the encoder reads as a nonempty list."""

    def __init__(self, items: Iterator):
        self._items = items

    def __iter__(self) -> Iterator:
        return self._items

    def __bool__(self) -> bool:
        return True


def _default(obj: object) -> list:
    """The encoder's default: an iterator as a list ([] when it is empty, as
    the encoder writes "[" before it reads an item), else the TypeError."""
    if not isinstance(obj, Iterator):
        return json.JSONEncoder.default(_JSON, obj)
    for first in obj:
        return _Items(chain((first,), obj))
    return []


# iterencode runs the pure-Python encoder, which reads lists by __iter__
_JSON = json.JSONEncoder(indent=2, default=_default)
# chunks per write, none empty: a write per chunk was 14-44 % slower at n = 8
_CHUNKS_PER_WRITE = 1024


def _emit(obj: dict, output: str) -> None:
    if output == "json":
        # json.dump(obj, indent=2), holding neither its text nor its payload
        chunks = _JSON.iterencode(obj)
        for text in iter(lambda: "".join(islice(chunks, _CHUNKS_PER_WRITE)), ""):
            sys.stdout.write(text)
        sys.stdout.write("\n")
    else:
        for key, val in obj.items():
            if isinstance(val, list):
                val = json.dumps(val)
            print(f"{key}: {val}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    report = criterion_check(g, ns.alpha, factor_effort=ns.effort)
    _emit(report_to_json(report), ns.output)
    return _VERDICT_EXIT[report.verdict]


# lines per batch of batch's worker map: a random order-8 to order-11 line
# at --effort 10000 takes 0.1-0.7 ms, so 16 of them are about a fork's
# worth (3 ms) or more
_BATCH_LINES = 16


def cmd_batch(ns: argparse.Namespace) -> int:
    text = _read_text(ns.input)

    def record(item: tuple[int, str]) -> tuple[str | None, str]:
        """(the line's verdict, or None for an error record; its JSON line)"""
        lineno, line = item
        try:
            rec = report_to_json(
                criterion_check(parse_graph6(line), ns.alpha,
                                factor_effort=ns.effort))
        except ValueError as exc:
            rec = {"schema": 1, "line": lineno, "error": str(exc)}
            verdict = None
        else:
            rec["line"] = lineno
            verdict = rec["verdict"]
        return verdict, json.dumps(rec, separators=(",", ":"))

    lines = ((lineno, line) for lineno, line in enumerate(_lines(text), 1)
             if line.strip())
    counts: dict[str | None, int] = {}
    results = numtheory._ordered_map(record, lines, "batch", _BATCH_LINES)
    try:
        for verdict, out in results:
            counts[verdict] = counts.get(verdict, 0) + 1
            print(out)
    finally:
        results.close()
    errors = counts.pop(None, 0)
    summary = {"schema": 1, "summary": True,
               "total": errors + sum(counts.values()), "errors": errors,
               "verdicts": {k: counts[k] for k in sorted(counts)}}
    print(json.dumps(summary, separators=(",", ":")))
    return EXIT_FAILED if errors else EXIT_CERTIFIED


def cmd_snf(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    n = g.n
    divisors = smith_divisors(walk_matrix(g, ns.alpha))
    singular = divisors[-1] == 0
    out: dict = {
        "schema": 1,
        "n": n,
        "alpha": str(ns.alpha),
        "divisors": [str(d) for d in divisors],
        "singular": singular,
    }
    ones = (n + 1) // 2
    twos = n // 2 - 1
    shape = (not singular and n >= 2
             and all(d == 1 for d in divisors[:ones])
             and all(d == 2 for d in divisors[ones:ones + twos])
             and divisors[-1] % 2 == 0 and divisors[-1] // 2 % 2 == 1)
    out["shape_holds"] = shape
    if shape:
        b = divisors[-1] // 2
        out["B"] = str(b)
        try:
            witness = numtheory.factorize(b, effort=ns.effort).square_witness
            out["B_square_free"] = witness is None
            if witness is not None:
                out["B_square_witness"] = str(witness)
        except numtheory.FactorizationBudgetError:
            out["B_square_free"] = None
    _emit(out, ns.output)
    return EXIT_CERTIFIED


def cmd_spectrum(ns: argparse.Namespace) -> int:
    g = _load_graph(ns)
    _emit({
        "schema": 1,
        "n": g.n,
        "alpha": str(ns.alpha),
        **_key_json(spectrum_key(g, ns.alpha)),
    }, ns.output)
    return EXIT_CERTIFIED


def cmd_mates(ns: argparse.Namespace) -> int:
    pool = _load_pool(ns)
    classes = find_mate_classes(pool, ns.alpha)
    nontrivial = [c for c in classes if c.nontrivial]
    if ns.output == "table":
        print(f"graphs: {len(pool)}")
        print(f"classes: {len(classes)}")
        print(f"nontrivial: {len(nontrivial)}")
        for c in nontrivial:
            print("mates: " + " ".join(encode_graph6(g) for g in c.members))
    else:
        _emit({
            "schema": 1,
            "alpha": str(ns.alpha),
            "graph_count": len(pool),
            "class_count": len(classes),
            "nontrivial_count": len(nontrivial),
            "classes": ({
                "members": [encode_graph6(g) for g in c.members],
                **_key_json(c.key),
            } for c in nontrivial),
        }, ns.output)
    return EXIT_CERTIFIED


def cmd_verify_theorem(ns: argparse.Namespace) -> int:
    pool = _load_pool(ns)
    report = verify_theorem(pool, ns.alpha, factor_effort=ns.effort)
    if ns.output == "table":
        print(f"graphs: {report.graph_count}")
        print(f"classes: {len(report.classes)}")
        print(f"certified: {len(report.certified)}")
        print(f"nontrivial: {len(report.nontrivial_classes)}")
        print(f"pair_checks: {len(report.pair_checks)}")
        print(f"skipped_singular_pairs: {report.skipped_singular_pairs}")
        print(f"counterexamples: {len(report.counterexamples)}")
        for c in report.counterexamples:
            print("counterexample: " + c)
        print(f"ok: {str(report.ok).lower()}")
    else:
        _emit(verification_to_json(report), ns.output)
    return EXIT_CERTIFIED if report.ok else EXIT_FAILED


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        _config(ns)
        code = ns.run(ns)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except SystemExit as exc:  # argparse printed help and exited
        return exc.code
    except BrokenPipeError:  # the reader closed stdout: nothing to report
        # point stdout at devnull, so the interpreter's final flush of what
        # is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (UsageError, GraphParseError, PoolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
