"""Command-line surface: single-graph checks, batch scans, structure dumps,
mate search, and exhaustive verification.

Exit codes: 0 certified (or clean report), 1 arithmetic/singular failure or
verification counterexample, 2 excluded/small/undecided, 64 usage, I/O, or
parse errors. All JSON output carries "schema": 1 and renders big integers
as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import numtheory
from .criterion import (AlphaParam, Verdict, criterion_check, report_to_json,
                        spectrum_key, walk_matrix)
from .graphs import (ENUMERATION_CAP, Graph, GraphParseError, enumerate_graphs,
                     parse_edge_list, parse_graph6)
from .linalg import smith_divisors
from .oracle import find_mate_classes, verification_to_json, verify_theorem

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


class _ParserExit(Exception):
    """argparse finished early (e.g. after printing help) with this status."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main owns the exit code."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)

    def exit(self, status: int = 0, message: str | None = None):  # noqa: A003
        if message:
            self._print_message(message, sys.stderr)
        raise _ParserExit(status)


@dataclass
class RunConfig:
    alpha: AlphaParam
    input_path: str | None
    inline_graph: str | None
    fmt: str
    output: str
    effort: int
    seed: int | None
    order: int | None = None
    connected_only: bool = False


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(f"WALKSPEC_{name}", fallback)


def _env_int(name: str, fallback: int | None) -> int | None:
    """Integer default from WALKSPEC_<name>; unset or empty gives fallback."""
    text = _env(name)
    if not text:
        return fallback
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad WALKSPEC_{name} {text!r}: not an integer") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="walkspec",
                     description="Exact arithmetic tests for determination "
                                 "by the generalized alpha-spectrum.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, needs_alpha: bool = True) -> None:
        p.add_argument("--alpha", default=_env("ALPHA"),
                       required=needs_alpha and _env("ALPHA") is None,
                       help="rational alpha as p/q in [0, 1), e.g. 3/4")
        p.add_argument("--format", dest="fmt",
                       choices=("graph6", "edgelist"),
                       default=_env("FORMAT", "graph6"),
                       help="input format (default graph6)")
        p.add_argument("--output", choices=("json", "table"),
                       default=_env("OUTPUT", "table"),
                       help="report rendering (default table)")
        p.add_argument("--effort", type=int,
                       default=_env_int("EFFORT", numtheory.DEFAULT_FACTOR_EFFORT),
                       help="factorization effort cap (rho iterations)")
        p.add_argument("--threads", type=int, default=_env_int("THREADS", 1),
                       help="worker count (reserved; every command runs in "
                            "one thread)")
        p.add_argument("--seed", type=int, default=_env_int("SEED", None),
                       help="random seed (reserved; all commands are "
                            "deterministic)")

    def add_graph_input(p: _Parser) -> None:
        p.add_argument("input", nargs="?",
                       help="input file ('-' for stdin)")
        p.add_argument("--graph", dest="inline",
                       help="inline graph6 text instead of a file")

    p = sub.add_parser("check", parents=[], help="criterion verdict for one graph")
    common(p)
    add_graph_input(p)

    p = sub.add_parser("batch", help="criterion verdicts for a graph6 file, JSONL")
    common(p)
    p.add_argument("input", help="graph6 file, one graph per line")

    p = sub.add_parser("snf", help="Smith divisors of the normalized walk matrix")
    common(p)
    add_graph_input(p)

    p = sub.add_parser("spectrum", help="characteristic polynomials of graph and complement")
    common(p)
    add_graph_input(p)

    p = sub.add_parser("mates", help="group graphs by shared spectrum key")
    common(p)
    p.add_argument("input", nargs="?", help="graph6 file, one graph per line")
    p.add_argument("--n", type=int, dest="order",
                   help=f"enumerate all graphs of this order (1..{ENUMERATION_CAP})")
    p.add_argument("--connected-only", action="store_true",
                   help="restrict enumeration to connected graphs")

    p = sub.add_parser("verify-theorem",
                       help="exhaustive verdict/mate cross-check with certificates")
    common(p)
    p.add_argument("input", nargs="?", help="graph6 file, one graph per line")
    p.add_argument("--n", type=int, dest="order",
                   help=f"enumerate all graphs of this order (1..{ENUMERATION_CAP})")
    p.add_argument("--connected-only", action="store_true",
                   help="restrict enumeration to connected graphs")
    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    try:
        alpha = AlphaParam.parse(ns.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --alpha {ns.alpha!r}: {exc}") from None
    if ns.threads < 1:
        raise UsageError("--threads must be at least 1")
    if getattr(ns, "effort", 0) < 0:
        raise UsageError("--effort must be nonnegative")
    return RunConfig(
        alpha=alpha,
        input_path=getattr(ns, "input", None),
        inline_graph=getattr(ns, "inline", None),
        fmt=ns.fmt,
        output=ns.output,
        effort=ns.effort,
        seed=ns.seed,
        order=getattr(ns, "order", None),
        connected_only=getattr(ns, "connected_only", False),
    )


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


def _load_graph(cfg: RunConfig) -> Graph:
    if cfg.inline_graph is not None:
        if cfg.input_path is not None:
            raise UsageError("give either an input file or --graph, not both")
        if cfg.fmt != "graph6":
            raise UsageError("--graph accepts graph6 text only")
        return parse_graph6(cfg.inline_graph)
    if cfg.input_path is None:
        raise UsageError("no input: give a file path, '-', or --graph")
    text = _read_text(cfg.input_path)
    if cfg.fmt == "graph6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise GraphParseError("no graph6 line in input")
        return parse_graph6(lines[0])
    return parse_edge_list(text)


def _load_pool(cfg: RunConfig) -> list[Graph]:
    if (cfg.order is None) == (cfg.input_path is None):
        raise UsageError("give exactly one of --n or an input file")
    if cfg.order is not None:
        if not 1 <= cfg.order <= ENUMERATION_CAP:
            raise UsageError(
                f"--n must be in 1..{ENUMERATION_CAP}; larger orders need a file")
        return list(enumerate_graphs(cfg.order, connected_only=cfg.connected_only))
    text = _read_text(cfg.input_path)
    return [parse_graph6(ln) for ln in text.splitlines() if ln.strip()]


def _emit(obj: dict, cfg: RunConfig) -> None:
    if cfg.output == "json":
        print(json.dumps(obj, indent=2))
    else:
        for key, val in obj.items():
            if isinstance(val, list):
                val = json.dumps(val)
            print(f"{key}: {val}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    report = criterion_check(g, cfg.alpha, factor_effort=cfg.effort)
    _emit(report_to_json(report), cfg)
    return _VERDICT_EXIT[report.verdict]


def cmd_batch(cfg: RunConfig) -> int:
    text = _read_text(cfg.input_path)
    counts: dict[str, int] = {}
    total = errors = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        total += 1
        try:
            rec = report_to_json(
                criterion_check(parse_graph6(line), cfg.alpha,
                                factor_effort=cfg.effort))
        except (GraphParseError, ValueError) as exc:
            rec = {"schema": 1, "line": lineno, "error": str(exc)}
            errors += 1
        else:
            rec["line"] = lineno
            counts[rec["verdict"]] = counts.get(rec["verdict"], 0) + 1
        print(json.dumps(rec, separators=(",", ":")))
    summary = {"schema": 1, "summary": True, "total": total,
               "errors": errors,
               "verdicts": {k: counts[k] for k in sorted(counts)}}
    print(json.dumps(summary, separators=(",", ":")))
    return EXIT_FAILED if errors else EXIT_CERTIFIED


def cmd_snf(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    n = g.n
    divisors = smith_divisors(walk_matrix(g, cfg.alpha))
    singular = divisors[-1] == 0
    out: dict = {
        "schema": 1,
        "n": n,
        "alpha": str(cfg.alpha),
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
            free, witness = numtheory.is_square_free(b, effort=cfg.effort)
            out["B_square_free"] = free
            if witness is not None:
                out["B_square_witness"] = str(witness)
        except numtheory.FactorizationBudgetError:
            out["B_square_free"] = None
    _emit(out, cfg)
    return EXIT_CERTIFIED


def cmd_spectrum(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    key = spectrum_key(g, cfg.alpha)
    _emit({
        "schema": 1,
        "n": g.n,
        "alpha": str(cfg.alpha),
        "poly": [str(c) for c in key.poly],
        "poly_complement": [str(c) for c in key.poly_complement],
    }, cfg)
    return EXIT_CERTIFIED


def cmd_mates(cfg: RunConfig) -> int:
    pool = _load_pool(cfg)
    classes = find_mate_classes(pool, cfg.alpha)
    from .graphs import encode_graph6
    payload = {
        "schema": 1,
        "alpha": str(cfg.alpha),
        "graph_count": len(pool),
        "class_count": len(classes),
        "nontrivial_count": sum(1 for c in classes if c.nontrivial),
        "classes": [{
            "members": [encode_graph6(g) for g in c.members],
            "poly": [str(x) for x in c.key.poly],
            "poly_complement": [str(x) for x in c.key.poly_complement],
        } for c in classes if c.nontrivial],
    }
    if cfg.output == "table":
        print(f"graphs: {payload['graph_count']}")
        print(f"classes: {payload['class_count']}")
        print(f"nontrivial: {payload['nontrivial_count']}")
        for c in payload["classes"]:
            print("mates: " + " ".join(c["members"]))
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_CERTIFIED


def cmd_verify_theorem(cfg: RunConfig) -> int:
    pool = _load_pool(cfg)
    report = verify_theorem(pool, cfg.alpha, factor_effort=cfg.effort)
    payload = verification_to_json(report)
    if cfg.output == "table":
        print(f"graphs: {payload['graph_count']}")
        print(f"classes: {payload['class_count']}")
        print(f"certified: {len(payload['certified'])}")
        print(f"nontrivial: {len(payload['nontrivial_classes'])}")
        print(f"pair_checks: {len(payload['pair_checks'])}")
        print(f"skipped_singular_pairs: {payload['skipped_singular_pairs']}")
        print(f"counterexamples: {len(payload['counterexamples'])}")
        for c in payload["counterexamples"]:
            print("counterexample: " + c)
        print(f"ok: {str(payload['ok']).lower()}")
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_CERTIFIED if report.ok else EXIT_FAILED


_COMMANDS = {
    "check": cmd_check,
    "batch": cmd_batch,
    "snf": cmd_snf,
    "spectrum": cmd_spectrum,
    "mates": cmd_mates,
    "verify-theorem": cmd_verify_theorem,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        cfg = _config(ns)
        return _COMMANDS[ns.command](cfg)
    except _ParserExit as exc:
        return exc.status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
