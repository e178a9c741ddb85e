"""Output checks that do not use the program's code.

Every expected value is recomputed here: walk matrices by this module's own
arithmetic, determinants, characteristic polynomials, ranks mod p and Smith
invariants by sympy, primality by sympy.isprime, connectivity, isomorphism
and the order-7 graph list by networkx. No check compares against a stored
copy of an earlier output. check_op returns the number of graphs whose
verdict is decided, or raises Failed (the operation did not complete) or
Wrong (it completed with an output these checks reject).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import networkx as nx
import sympy
from sympy import GF, ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from workloads import ORDER7_GRAPHS, Op, decode_graph6

UNDECIDED = "UNDECIDED_FACTORIZATION"
EXIT_CODES = {"CERTIFIED_DGAS": 0, "FAILS_ARITHMETIC": 1, "SINGULAR_WALK_MATRIX": 1,
              "EXCLUDED_CASE": 2, "SMALL_ORDER": 2, UNDECIDED: 2}


class Failed(Exception):
    """The operation raised, or exited without a parseable result."""


class Wrong(Exception):
    """The operation's output disagrees with the independent computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


# ---------------------------------------------------------------------------
# independent arithmetic
# ---------------------------------------------------------------------------


def scaled_matrix(graph, alpha: Fraction) -> list[list[int]]:
    """a*D + b*A for alpha = a/c and b = c - a."""
    n, edges = graph
    a, b = alpha.numerator, alpha.denominator - alpha.numerator
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u][v] = m[v][u] = b
        m[u][u] += a
        m[v][v] += a
    return m


def walk_matrix(graph, alpha: Fraction) -> list[list[int]]:
    """Rows of the normalized walk matrix: columns 1, d, M d, ..., M^(n-2) d,
    where d is the degree vector and M the scaled matrix (M 1 = c d)."""
    n, edges = graph
    m = scaled_matrix(graph, alpha)
    col = [0] * n
    for u, v in edges:
        col[u] += 1
        col[v] += 1
    cols = [[1] * n]
    while len(cols) < n:
        cols.append(col)
        col = [sum(x * y for x, y in zip(row, col)) for row in m]
    return [[c[i] for c in cols] for i in range(n)]


def complement(graph):
    n, edges = graph
    present = set(edges)
    return n, tuple((i, j) for j in range(1, n) for i in range(j)
                    if (i, j) not in present and (j, i) not in present)


def _domain(rows) -> DomainMatrix:
    n = len(rows)
    return DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, len(rows[0])), ZZ)


def det(rows) -> int:
    return int(_domain(rows).det())


def charpoly(rows) -> list[int]:
    """Ascending coefficients of det(xI - rows)."""
    return [int(c) for c in reversed(_domain(rows).charpoly())]


def rank_mod(rows, p: int) -> int:
    return _domain(rows).convert_to(GF(p)).rank()


def last_smith_invariant(rows) -> int:
    return abs(int(invariant_factors(sympy.Matrix(rows), domain=ZZ)[-1]))


@lru_cache(maxsize=None)
def spectrum_key(graph, alpha: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(charpoly(scaled_matrix(graph, alpha))),
            tuple(charpoly(scaled_matrix(complement(graph), alpha))))


@lru_cache(maxsize=None)
def arithmetic(graph, alpha: Fraction) -> dict:
    """Walk determinant, reduced value and ranks mod the odd primes of c."""
    n = graph[0]
    w = walk_matrix(graph, alpha)
    d = det(w)
    reduced = Fraction(d, 2 ** (n // 2))
    integral = reduced.denominator == 1
    c = alpha.denominator
    return {
        "det": d, "reduced": reduced, "integral": integral,
        "odd": integral and reduced.numerator % 2 == 1,
        "ranks": [[str(p), rank_mod(w, p)] for p in sympy.primefactors(c) if p != 2],
        "walk": w,
    }


def expected_verdict(n: int, c: int, facts: dict, square_free: bool | None) -> str:
    """The precedence documented for criterion_check."""
    if n < 5:
        return "SMALL_ORDER"
    if facts["det"] == 0:
        return "SINGULAR_WALK_MATRIX"
    if not facts["odd"]:
        return "FAILS_ARITHMETIC"
    if square_free is None:
        return UNDECIDED
    if not square_free or any(r < n for _, r in facts["ranks"]):
        return "FAILS_ARITHMETIC"
    if n % 2 == 0 and c % 2 == 1 and c >= 3:
        return "EXCLUDED_CASE"
    return "CERTIFIED_DGAS"


def _nx(graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph[0]))
    g.add_edges_from(graph[1])
    return g


def _alpha_text(alpha: Fraction) -> str:
    return f"{alpha.numerator}/{alpha.denominator}"


# ---------------------------------------------------------------------------
# check and batch records
# ---------------------------------------------------------------------------


def check_report(rec: dict, graph, alpha: Fraction) -> str:
    """Check one criterion report against the independent values; return
    its verdict."""
    n = graph[0]
    facts = arithmetic(graph, alpha)
    reduced = facts["reduced"]
    require(rec["n"] == n, f"n {rec['n']} != {n}")
    require(rec["alpha"] == _alpha_text(alpha) and rec["c_alpha"] == alpha.denominator,
            "alpha fields")
    require(rec["det_walk"] == str(facts["det"]),
            f"det_walk {rec['det_walk']} != {facts['det']}")
    require(rec["reduced"] == str(reduced), "reduced value")
    require(rec["reduced_integral"] is facts["integral"], "reduced_integral")
    require(rec["is_odd"] is facts["odd"], "is_odd")
    verdict = rec["verdict"]
    square_free: bool | None = None
    if facts["det"] != 0 and facts["odd"]:
        if verdict == UNDECIDED:
            require(rec["factorization"] is None and rec["factorization_complete"] is False
                    and rec["is_square_free"] is None and rec["square_witness"] is None,
                    "undecided report carries factorization fields")
        else:
            require(rec["factorization"] is not None and rec["factorization_complete"] is True,
                    "decided report lacks its factorization")
            factors = [(int(p), e) for p, e in rec["factorization"]]
            primes = [p for p, _ in factors]
            require(primes == sorted(set(primes)), "factors not ascending and distinct")
            require(all(sympy.isprime(p) for p in primes), "a reported factor is not prime")
            require(all(e >= 1 for _, e in factors), "nonpositive exponent")
            require(prod(p ** e for p, e in factors) == abs(reduced.numerator),
                    "factors do not multiply to |reduced|")
            squared = [p for p, e in factors if e >= 2]
            square_free = not squared
            require(rec["is_square_free"] is square_free, "is_square_free")
            require(rec["square_witness"] == (str(squared[0]) if squared else None),
                    "square witness is not the smallest squared prime")
    else:
        require(rec["factorization"] is None and rec["is_square_free"] is None
                and rec["square_witness"] is None and rec["factorization_complete"] is True,
                "factorization fields without an odd nonzero reduced value")
    require(rec["prime_ranks"] == facts["ranks"], "prime_ranks")
    require(rec["connected"] is nx.is_connected(_nx(graph)), "connected")
    expected = expected_verdict(n, alpha.denominator, facts, square_free)
    require(verdict == expected, f"verdict {verdict}, expected {expected}")
    return verdict


def _check_single(op: Op, rc: int, out: str) -> int:
    rec = json.loads(out)
    verdict = check_report(rec, op.graphs[0], op.alpha)
    require(rc == EXIT_CODES[verdict], f"exit code {rc} for {verdict}")
    return verdict != UNDECIDED


def _check_batch(op: Op, rc: int, out: str) -> int:
    lines = [json.loads(line) for line in out.splitlines()]
    require(len(lines) == len(op.graphs) + 1, "one record per graph plus a summary")
    *records, summary = lines
    counts: Counter = Counter()
    for i, (rec, graph) in enumerate(zip(records, op.graphs)):
        require(rec.pop("line") == i + 1, "line numbers")
        counts[check_report(rec, graph, op.alpha)] += 1
    require(summary == {"schema": 1, "summary": True, "total": len(op.graphs),
                        "errors": 0, "verdicts": dict(sorted(counts.items()))},
            "summary counts differ from the per-line verdicts")
    require(rc == 0, f"exit code {rc}")
    return sum(v for k, v in counts.items() if k != UNDECIDED)


def _check_spectrum(op: Op, rc: int, out: str) -> int:
    rec = json.loads(out)
    poly, poly_complement = spectrum_key(op.graphs[0], op.alpha)
    require(rec["n"] == op.graphs[0][0] and rec["alpha"] == _alpha_text(op.alpha), "header")
    require(rec["poly"] == [str(c) for c in poly], "graph charpoly")
    require(rec["poly_complement"] == [str(c) for c in poly_complement],
            "complement charpoly")
    require(rc == 0, f"exit code {rc}")
    return 0


# ---------------------------------------------------------------------------
# mates and verify-theorem
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def order7_graphs() -> tuple:
    graphs = tuple((7, tuple(sorted(tuple(sorted(e)) for e in g.edges())))
                   for g in nx.graph_atlas_g() if g.number_of_nodes() == 7)
    require(len(graphs) == ORDER7_GRAPHS, f"atlas holds {len(graphs)} order-7 graphs")
    return graphs


def _pool(op: Op) -> tuple:
    return order7_graphs() if op.order == 7 else tuple(op.graphs)


def _check_class(members: list[str], key, alpha: Fraction, groups: Counter) -> list:
    """Members share the reported key, are pairwise non-isomorphic and are
    as many as the independent grouping puts under that key."""
    graphs = [decode_graph6(g6) for g6 in members]
    require(all(spectrum_key(g, alpha) == key for g in graphs),
            "a class member does not have the class polynomials")
    require(len(graphs) == groups[key], "class size differs from the independent grouping")
    nxs = [_nx(g) for g in graphs]
    require(not any(nx.is_isomorphic(nxs[i], nxs[j])
                    for i in range(len(nxs)) for j in range(i + 1, len(nxs))),
            "isomorphic graphs in one class")
    return graphs


def _key_of(cls: dict):
    return (tuple(int(c) for c in cls["poly"]),
            tuple(int(c) for c in cls["poly_complement"]))


def _check_mates(op: Op, rc: int, out: str) -> int:
    rep = json.loads(out)
    pool = _pool(op)
    groups = Counter(spectrum_key(g, op.alpha) for g in pool)
    require(rep["graph_count"] == len(pool), "graph_count")
    require(rep["class_count"] == len(groups), "class_count")
    nontrivial = {k for k, size in groups.items() if size > 1}
    require(rep["nontrivial_count"] == len(nontrivial), "nontrivial_count")
    keys = [_key_of(cls) for cls in rep["classes"]]
    require(sorted(keys) == sorted(nontrivial), "nontrivial classes")
    for cls, key in zip(rep["classes"], keys):
        _check_class(cls["members"], key, op.alpha, groups)
    require(rc == 0, f"exit code {rc}")
    return 0


def check_certificate(pc: dict, alpha: Fraction) -> bool:
    """Exact identities of one pair check; returns source_arithmetic_ok."""
    g, h = decode_graph6(pc["source"]), decode_graph6(pc["target"])
    u = [[Fraction(x) for x in row] for row in pc["matrix"]]
    n = len(u)
    ut = [list(col) for col in zip(*u)]

    def mul(x, y):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]

    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    require(mul(ut, u) == identity, "certificate is not orthogonal")
    require(all(sum(row) == 1 for row in u), "certificate does not fix the all-ones vector")
    require(mul(mul(ut, scaled_matrix(g, alpha)), u) == scaled_matrix(h, alpha),
            "certificate does not conjugate the scaled matrices")
    level = lcm(*(x.denominator for row in u for x in row))
    require(pc["level"] == str(level), "level is not the lcm of the denominators")
    facts = arithmetic(g, alpha)
    last = last_smith_invariant(facts["walk"])
    require(pc["last_divisor"] == str(last), "last Smith divisor")
    require(last % level == 0 and pc["level_divides_last_divisor"] is True,
            "level does not divide the last Smith invariant")
    source_ok = _square_free_verdict(g, alpha, facts)[1]
    require(pc["source_arithmetic_ok"] is source_ok, "source_arithmetic_ok")
    odd_part = level
    while odd_part % 2 == 0:
        odd_part //= 2
    require(pc["no_odd_prime_in_level"] is ((odd_part == 1) if source_ok else None),
            "no_odd_prime_in_level")
    return source_ok


def _square_free_verdict(graph, alpha: Fraction, facts: dict) -> tuple[str, bool]:
    """Verdict and arithmetic_ok, factoring the reduced value with sympy
    (small at the orders mates and verify-theorem accept)."""
    square_free = None
    if facts["det"] != 0 and facts["odd"]:
        square_free = all(e == 1 for e in sympy.factorint(abs(facts["reduced"].numerator)).values())
    ok = bool(square_free) and all(r == graph[0] for _, r in facts["ranks"])
    return expected_verdict(graph[0], alpha.denominator, facts, square_free), ok


def _check_verify(op: Op, rc: int, out: str) -> int:
    rep = json.loads(out)
    alpha = op.alpha
    pool = _pool(op)
    groups = Counter(spectrum_key(g, alpha) for g in pool)
    require(rep["graph_count"] == len(pool), "graph_count")
    require(rep["class_count"] == len(rep["classes"]) == len(groups), "class_count")
    classes = []
    for cls in rep["classes"]:
        key = _key_of(cls)
        classes.append((cls["members"], _check_class(cls["members"], key, alpha, groups)))
    require(len({_key_of(cls) for cls in rep["classes"]}) == len(groups), "duplicate class keys")
    require(rep["nontrivial_classes"] == [i for i, (m, _) in enumerate(classes) if len(m) > 1],
            "nontrivial_classes")

    expected_verdicts = []
    for members, graphs in classes:
        for g6, g in zip(members, graphs):
            verdict, _ = _square_free_verdict(g, alpha, arithmetic(g, alpha))
            expected_verdicts.append([g6, verdict])
            if verdict == "CERTIFIED_DGAS":
                require(len(members) == 1, f"certified graph {g6} has a mate")
    require(rep["verdicts"] == expected_verdicts, "verdicts")
    require(rep["certified"] == [g6 for g6, v in expected_verdicts if v == "CERTIFIED_DGAS"],
            "certified list")

    pairs, skipped = [], 0
    for members, graphs in classes:
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                if (arithmetic(graphs[i], alpha)["det"] == 0
                        or arithmetic(graphs[j], alpha)["det"] == 0):
                    skipped += 1
                else:
                    pairs.append((members[i], members[j]))
    require(rep["skipped_singular_pairs"] == skipped, "skipped_singular_pairs")
    require([(pc["source"], pc["target"]) for pc in rep["pair_checks"]] == pairs,
            "pair checks differ from the nonsingular mate pairs")
    for pc in rep["pair_checks"]:
        check_certificate(pc, alpha)

    by_poly: dict = {}
    for g in pool:
        by_poly.setdefault(spectrum_key(g, alpha)[0], set()).add(spectrum_key(g, alpha))
    plain = sorted((poly, sum(groups[k] for k in keys))
                   for poly, keys in by_poly.items() if len(keys) > 1)
    reported = []
    for grp in rep["plain_only_groups"]:
        polys = {spectrum_key(decode_graph6(g6), alpha)[0] for g6 in grp}
        require(len(polys) == 1, "plain-only group members differ in polynomial")
        reported.append((polys.pop(), len(grp)))
    require(sorted(reported) == plain, "plain_only_groups")

    require(rep["counterexamples"] == [] and rep["ok"] is True, "counterexamples reported")
    require(rc == 0, f"exit code {rc}")
    return sum(v != UNDECIDED for _, v in expected_verdicts)


CHECKS = {"check": _check_single, "batch": _check_batch, "spectrum": _check_spectrum,
          "mates": _check_mates, "verify": _check_verify}


def check_op(op: Op, rc: int | None, out: str, crash: str | None = None) -> int:
    """Judge one operation's result; return its decided-verdict count."""
    if crash is not None or rc is None:
        last = (crash or "no result").strip().splitlines()[-1]
        raise Failed(f"{op.argv[0]} raised: {last}")
    if rc == 64:
        raise Failed(f"{op.argv[0]} exited 64 (usage or input error)")
    try:
        return CHECKS[op.kind](op, rc, out)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise Wrong(f"malformed output: {exc!r}") from None
