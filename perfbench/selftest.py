"""Show that the output checks reject corrupted copies of real outputs.

    python3 perfbench/selftest.py

Run from the repository root. Three real operations run through
walkspec.cli.main in this process: `check` of the 13-vertex fixture at
alpha 2/3, `batch` of the same graph, and `verify-theorem` of one order-8
mate class that has a nonsingular pair. Each genuine output must pass the
checks of checks.py, and each corrupted copy must be rejected. Exits 1
otherwise.
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from checks import Wrong, check_op  # noqa: E402
from workloads import Op, decode_graph6, encode_graph6  # noqa: E402

import walkspec.cli as cli  # noqa: E402

MATE_PAIR = ("G@PSP[", "GC?jQw")  # one class of the order-8 pool at alpha 1/2


def run(op: Op) -> tuple[int, str]:
    sys.stdin = io.StringIO(op.stdin or "")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(op.argv)
    sys.stdin = sys.__stdin__
    return rc, out.getvalue()


def flip_verdict(rec: dict) -> None:
    rec["verdict"] = "FAILS_ARITHMETIC"


def wrong_product(rec: dict) -> None:
    rec["factorization"][0][1] += 1


def composite_prime(rec: dict) -> None:
    (p, _), (q, _), *rest = rec["factorization"]
    merged = [str(int(p) * int(q)), 1]
    rec["factorization"] = sorted([merged] + rest, key=lambda f: int(f[0]))


def not_orthogonal(rep: dict) -> None:
    row = rep["pair_checks"][0]["matrix"][0]
    row[0] = str(Fraction(row[0]) + 1)


def main() -> int:
    path = "fixtures/dgas13.g6"
    with open(path, encoding="ascii") as f:
        g6 = f.readline().strip()
    graph = decode_graph6(g6)
    pair = [decode_graph6(g) for g in MATE_PAIR]
    ops = {
        "check": Op("check", ["check", "--alpha", "2/3", "--output", "json", path],
                    Fraction(2, 3), [graph]),
        "batch": Op("batch", ["batch", "--alpha", "2/3", "-"], Fraction(2, 3), [graph],
                    stdin=encode_graph6(*graph) + "\n"),
        "verify": Op("verify", ["verify-theorem", "--alpha", "1/2", "--output", "json", "-"],
                     Fraction(1, 2), pair, stdin="\n".join(MATE_PAIR) + "\n"),
    }
    cases = [("check", flip_verdict), ("check", wrong_product), ("check", composite_prime),
             ("batch", flip_verdict), ("verify", not_orthogonal)]

    ok = True
    outputs = {}
    for name, op in ops.items():
        rc, out = run(op)
        outputs[name] = (rc, out)
        check_op(op, rc, out)  # a genuine output must pass
        print(f"genuine {name}: accepted")
    for name, corrupt in cases:
        rc, out = outputs[name]
        lines = [json.loads(line) for line in out.splitlines()] if name == "batch" \
            else [json.loads(out)]
        bad = copy.deepcopy(lines)
        corrupt(bad[0])
        text = "\n".join(json.dumps(x) for x in bad)
        try:
            check_op(ops[name], rc, text)
        except Wrong as exc:
            print(f"{corrupt.__name__} in {name}: rejected ({exc})")
        else:
            print(f"{corrupt.__name__} in {name}: NOT rejected")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
