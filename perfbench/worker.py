"""Run one iteration of a benchmark workload in this (fresh) process.

Usage: python3 perfbench/worker.py --workload NAME --inputs DIR --out DIR [--trace spans|mem]

Prints one JSON object: wall and CPU seconds of the user-facing calls,
the process's peak RSS, each call's exit code, and with ``--trace`` the
per-layer metrics of the traced calls. fgfusion is imported from the
``src`` directory of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, steps  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(workload_name: str, inputs: Path, out: Path, trace: str | None) -> dict:
    workload = WORKLOADS[workload_name]
    import fgfusion.cli

    tracer = None
    if trace:
        tracer = Tracer(mem=trace == "mem")
        bindings = tracer.install()
    calls = steps(workload, inputs, out)
    out.mkdir(parents=True, exist_ok=True)
    ops = []
    cpu_start = _cpu_seconds()
    started = time.perf_counter()
    root = tracer.open("worker.iteration") if tracer else None
    for name, argv in calls:
        error = None
        code = None
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = fgfusion.cli.main(argv)
            if code != 0:
                error = err.getvalue().strip()
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"name": name, "exit": code, "error": error})
    wall = time.perf_counter() - started
    if tracer:
        tracer.close(root)
        wall = tracer.spans[root].end - tracer.spans[root].start
    cpu = _cpu_seconds() - cpu_start
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "trace": None,
    }
    if tracer:
        result["trace"] = {
            "metrics": layer_metrics(tracer.spans, tracer.counters, tracer.values, wall),
            "missing_spans": sorted(set(workload.expected_spans)
                                    - {span.name for span in tracer.spans}),
            "unbound": sorted(name for name, count in bindings.items() if count == 0),
        }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", choices=("spans", "mem"), default=None,
                        help="time spans, or record tracemalloc peaks of memory-flagged spans")
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.inputs, args.out, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
