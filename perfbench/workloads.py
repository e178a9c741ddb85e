"""Operation lists of the three workloads, generated from the workload seed.

One operation is one CLI command. Each operation carries the argv and stdin
the worker hands to walkspec.cli.main, and the graphs the output checks need.
Graphs are (n, edges) pairs built here; graph6 text is encoded here too, so
the program only ever sees the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

ALPHAS = ("0", "1/2", "2/3", "3/4")
FIXTURE_CHECKS = (("dgas14", "3/4"), ("dgas14", "5/6"),
                  ("dgas13", "2/3"), ("dgas13", "10/11"))
# single: random checks come from this fixed draw, and --seed relabels their
# vertices. A fresh draw per seed puts a seed-dependent number of full-effort
# UNDECIDED_FACTORIZATION checks (3-9 s each, about one draw in eight at these
# orders) into every pass, which moved graphs_per_s by 40-50% between seeds.
SINGLE_BASE_SEED = 0
SINGLE_CHECK_ORDERS = tuple(range(14, 23))
SINGLE_SPECTRUM_ORDERS = (32, 36, 40)
SCAN_ORDERS = (8, 9, 10, 11)
SCAN_POOL = 200
# scan: a many-graph scan bounds the factoring effort per graph. At the
# default effort about one order-11 graph in 1,600 at alpha 3/4 spends 3-4 s
# of rho and ends UNDECIDED_FACTORIZATION, so a seed that draws two of them
# took twice as long per pass as one that draws none.
SCAN_EFFORT = "10000"
SWEEP_POOL = "perfbench/data/mates8_alpha_1-2.g6"
ORDER7_GRAPHS = 1044  # OEIS A000088


@dataclass
class Op:
    """One CLI command plus what the checks need to judge its output."""

    kind: str  # check | batch | spectrum | mates | verify
    argv: list[str]
    alpha: Fraction
    graphs: list[tuple[int, tuple[tuple[int, int], ...]]] = field(default_factory=list)
    stdin: str | None = None
    order: int | None = None  # --n for exhaustive pools

    @property
    def graph_count(self) -> int:
        return ORDER7_GRAPHS if self.order == 7 else len(self.graphs)


def encode_graph6(n: int, edges) -> str:
    """graph6 for n <= 62: order byte, then the upper triangle column by
    column, six bits per byte, each byte offset by 63."""
    if not 1 <= n <= 62:
        raise ValueError("orders 1..62 only")
    adj = set(edges)
    bits = [1 if (i, j) in adj or (j, i) in adj else 0
            for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [n + 63]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = v << 1 | b
        out.append(v + 63)
    return bytes(out).decode("ascii")


def decode_graph6(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Inverse of encode_graph6 (orders 1..62, no header)."""
    data = text.strip().encode("ascii")
    n = data[0] - 63
    bits = [(byte - 63) >> s & 1 for byte in data[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, tuple(sorted(p for p, b in zip(pairs, bits) if b))


def random_graph(rng: random.Random, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Erdos-Renyi graph with edge probability 1/2."""
    return n, tuple((i, j) for j in range(1, n) for i in range(j)
                    if rng.random() < 0.5)


def relabel(rng: random.Random, graph):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{tag}")


def _inline(command: str, graph, alpha: str) -> Op:
    return Op(command, [command, "--alpha", alpha, "--output", "json",
                        "--graph", encode_graph6(*graph)],
              Fraction(alpha), [graph])


def single_ops(seed: int) -> list[Op]:
    ops = []
    for name, alpha in FIXTURE_CHECKS:
        path = f"fixtures/{name}.g6"
        with open(path, encoding="ascii") as f:
            graph = decode_graph6(f.readline())
        ops.append(Op("check", ["check", "--alpha", alpha, "--output", "json", path],
                      Fraction(alpha), [graph]))
    base = random.Random(SINGLE_BASE_SEED)
    shuffle = _rng("single", seed, "relabel")
    for k, n in enumerate(SINGLE_CHECK_ORDERS):
        graph = relabel(shuffle, random_graph(base, n))
        ops.append(_inline("check", graph, ALPHAS[k % len(ALPHAS)]))
    for k, n in enumerate(SINGLE_SPECTRUM_ORDERS):
        graph = random_graph(_rng("single", seed, f"spectrum{n}"), n)
        ops.append(_inline("spectrum", graph, ALPHAS[(k + 1) % len(ALPHAS)]))
    return ops


def scan_ops(seed: int) -> list[Op]:
    ops = []
    for n in SCAN_ORDERS:
        for alpha in ALPHAS:
            rng = _rng("scan", seed, f"{n}/{alpha}")
            pool = [random_graph(rng, n) for _ in range(SCAN_POOL)]
            text = "".join(encode_graph6(*g) + "\n" for g in pool)
            ops.append(Op("batch", ["batch", "--alpha", alpha, "--effort", SCAN_EFFORT, "-"],
                          Fraction(alpha), pool, stdin=text))
    return ops


def sweep_ops(seed: int) -> list[Op]:
    """Exhaustive pools: the seed changes nothing here."""
    with open(SWEEP_POOL, encoding="ascii") as f:
        pool = [decode_graph6(line) for line in f if line.strip()]
    return [
        Op("verify", ["verify-theorem", "--n", "7", "--alpha", "1/2",
                      "--output", "json"], Fraction(1, 2), order=7),
        Op("mates", ["mates", "--n", "7", "--alpha", "0", "--output", "json"],
           Fraction(0), order=7),
        Op("verify", ["verify-theorem", "--alpha", "1/2", "--output", "json",
                      SWEEP_POOL], Fraction(1, 2), pool),
    ]


WORKLOADS = {"single": single_ops, "scan": scan_ops, "sweep": sweep_ops}
