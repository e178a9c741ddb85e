"""Benchmark of the walkspec command line, driven in-process.

    python3 perfbench/run.py --workload single|scan|sweep --seed N \
        --seconds S --trace 0|1

Run from the repository root. Every pass runs the workload's operations in
a fresh interpreter (perfbench/worker.py) through walkspec.cli.main. Passes
repeat while the next one is expected to end within --seconds; at least one
runs. A few extra interpreters only do the set-up, for setup_s. Outputs are
checked after the passes, never while an operation is timed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
one more pass runs with the per-layer wrappers of tracing.py installed, and
the metrics are the per-layer ones. The result, and with --trace 1 every
wrapped function's statistics, are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Op

SETUP_SPAWNS = 5
PASS_TIMEOUT_S = 170
RESULTS = os.path.join("perfbench", "results")

# per-layer metrics: (function, statistic) pairs read from the traced pass
LAYER_STATS = (
    ("numtheory.factorize", ("calls", "self_s", "budget_exhausted")),
    ("numtheory.is_probable_prime", ("calls", "self_s")),
    ("linalg.charpoly", ("calls", "self_s")),
    ("linalg.IntMatrix", ("new",)),
    ("criterion.spectrum_key", ("calls", "per_graph")),
    ("graphs.complement", ("calls",)),
    ("graphs.canonical_form", ("calls", "self_s")),
    ("graphs.encode_graph6", ("calls",)),
    ("oracle.find_mate_classes", ("self_s",)),
    ("oracle.verify_theorem", ("self_s",)),
    ("oracle.build_U", ("calls", "self_s")),
    ("oracle.plain_cospectral_only_classes", ("total_s",)),
    ("linalg.rational_inverse", ("self_s",)),
    ("linalg.smith_divisors", ("calls", "self_s")),
    ("criterion.walk_matrix", ("calls", "self_s", "per_graph")),
    ("criterion.alpha_matrix", ("self_s",)),
    ("criterion.criterion_check", ("self_s",)),
    ("linalg.det_bareiss", ("calls", "self_s", "per_graph")),
    ("linalg.rank_mod_p", ("self_s",)),
    ("graphs.parse_graph6", ("self_s",)),
    ("criterion.report_to_json", ("self_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "new": "count", "budget_exhausted": "count",
         "self_s": "s", "total_s": "s", "per_graph": "calls/graph"}


class Pass:
    """One worker's results: set-up time, per-op results, peak memory."""

    def __init__(self, ops: list[Op], trace: bool) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("WALKSPEC_")}
        env["PYTHONHASHSEED"] = "0"
        request = json.dumps({"trace": trace, "ops": [
            {"argv": op.argv, "stdin": op.stdin} for op in ops]})
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True)
        try:
            out, err = proc.communicate(request, timeout=PASS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        reply = json.loads(out)
        self.setup_s = reply["ready"] - start
        self.results = reply["ops"]
        self.seconds = sum(r["seconds"] for r in self.results)
        self.graphs = sum(op.graph_count for op in ops)
        self.peak_rss_mb = reply["peak_rss_mb"]
        self.trace = reply.get("trace")


def check_passes(ops: list[Op], passes: list[Pass]) -> tuple[int, int, bool, list[int]]:
    """Check every result once per distinct output; return attempted,
    failed, correct and the decided count of each pass."""
    from checks import Failed, Wrong, check_op

    judged: dict[tuple, tuple[str, int]] = {}
    failed, correct, decided = 0, True, []
    for p in passes:
        decided.append(0)
        for i, (op, res) in enumerate(zip(ops, p.results)):
            key = (i, res["rc"], res["stdout"], res["crash"])
            if key not in judged:
                try:
                    judged[key] = ("ok", check_op(op, res["rc"], res["stdout"], res["crash"]))
                except Failed as exc:
                    judged[key] = ("failed", 0)
                    print(f"failed: {' '.join(op.argv[:3])}: {exc}", file=sys.stderr)
                except Wrong as exc:
                    judged[key] = ("wrong", 0)
                    print(f"wrong output: {' '.join(op.argv[:3])}: {exc}", file=sys.stderr)
            status, count = judged[key]
            failed += status == "failed"
            correct &= status != "wrong"
            decided[-1] += count
    return sum(len(p.results) for p in passes), failed, correct, decided


def layer_metrics(traced: Pass, untraced: list[Pass]) -> dict:
    stats = traced.trace
    metrics = {}
    for name, wanted in LAYER_STATS:
        s = stats.get(name, {})
        for stat in wanted:
            if stat == "budget_exhausted":
                value = s.get("raised", {}).get("FactorizationBudgetError", 0)
            elif stat == "per_graph":
                value = s.get("calls", 0) / traced.graphs
            else:
                value = s.get(stat, 0)
            metrics[f"{name}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    overhead = traced.seconds - statistics.median(p.seconds for p in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "walkspec", "cli.py")):
        print("error: run from the repository root; src/walkspec is missing",
              file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    setups = [Pass([], False).setup_s for _ in range(SETUP_SPAWNS)]
    passes: list[Pass] = []
    measured = 0.0
    while not passes or measured + passes[-1].seconds <= args.seconds:
        passes.append(Pass(ops, False))
        measured += passes[-1].seconds
    traced = Pass(ops, True) if args.trace else None

    attempted, failed, correct, decided = check_passes(
        ops, passes + ([traced] if traced else []))
    if traced:
        metrics = layer_metrics(traced, passes)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [p.setup_s for p in passes]),
                        "unit": "s"},
            "graphs_per_s": {"value": statistics.median(p.graphs / p.seconds for p in passes),
                             "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(r["seconds"] for p in passes
                                                    for r in p.results), "unit": "s"},
            "decided_count": {"value": statistics.median(decided[:len(passes)]),
                              "unit": "count"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in passes),
                            "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="ascii") as f:
        json.dump({"passes": len(passes), "pass_seconds": [p.seconds for p in passes],
                   **result}, f, indent=1)
    if traced:
        with open(stem + "-spans.json", "w", encoding="ascii") as f:
            json.dump(traced.trace, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
