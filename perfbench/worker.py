"""One workload pass in a fresh interpreter.

Reads a JSON request on stdin: {"ops": [{"argv": [...], "stdin": str|null}],
"trace": bool}. Imports walkspec.cli from ./src, finishes its first-use
set-up (the prime sieve), then runs every operation through
walkspec.cli.main with stdout and stderr captured, timing each call. Writes
one JSON object to the real stdout: the set-up end time on the shared
monotonic clock, and per operation the exit code, wall time and captured
output. With "trace", the wrappers of tracing.py are installed after set-up
and their statistics are returned too.
"""

import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

SRC = os.path.join(os.getcwd(), "src")


def peak_rss_mb() -> float:
    """VmHWM, the high-water mark of this process image. ru_maxrss is not
    used: it keeps the parent's resident size from before exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, SRC)
    import walkspec.cli as cli
    from walkspec import numtheory

    if not cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"walkspec imported from {cli.__file__}, not from {SRC}")
    numtheory.factorize(2)  # first use builds the 10^6 sieve
    ready = time.perf_counter()

    tracer = None
    if request.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    results = []
    for op in request["ops"]:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(op.get("stdin") or "")
        crash = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(op["argv"])
        except Exception:  # an operation that raises is counted as failed
            rc = None
            crash = traceback.format_exc()
        seconds = time.perf_counter() - start
        sys.stdin = sys.__stdin__
        results.append({"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "crash": crash})

    reply = {"ready": ready, "ops": results, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        reply["trace"] = tracer.stats()
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
