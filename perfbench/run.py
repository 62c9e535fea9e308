"""fgfusion benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train-bound --seed 0 --seconds 50 --trace 0

The run writes the workload's inputs from ``--seed``, measures set-up time
(fresh interpreter + ``import fgfusion``), cross-checks ``build_ejg``
against a set-arithmetic oracle, then runs the workload's user-facing calls
in a fresh worker process per iteration until ``--seconds`` would be
exceeded, checking every iteration's outputs. The last stdout line is the
result JSON: end-to-end metrics with ``--trace 0``, per-layer metrics from
traced iterations with ``--trace 1``. The line before it holds the
environment and the per-iteration figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import STAGED_DIM, STAGED_K, STAGED_REPEATS, WORKLOADS, stage_inputs  # noqa: E402

SETUP_REPEATS = 9
# A median of three ignores one slow iteration; a traced run needs one of each mode.
MIN_ITERATIONS = 3
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORACLE_FIXTURE = (4, 10)  # classes, per class: n = 40
ORACLE_K = (5, 6, 4)  # k, k1, k2


def child_env() -> dict:
    """Environment for child processes: fgfusion from this checkout's src and
    no more BLAS/OpenMP threads than the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


def environment(seed: int, env: dict) -> dict:
    import numpy as np

    try:
        # the ceiling keeps git from finding a repository above the checkout
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def measure_setup(env: dict) -> list[float]:
    """Wall seconds of fresh interpreters that only ``import fgfusion``."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import fgfusion"], env=env, cwd=ROOT)
        # wait(timeout=...) polls in steps of up to 50 ms, which would quantize
        # the measurement; block in wait() and let a timer kill a hung child
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - started)
        if code != 0:
            raise RuntimeError(f"import fgfusion exited {code}")
    return times


def oracle_problems(seed: int) -> list[list[str]]:
    """build_ejg against the set-arithmetic oracle, both weight modes and metrics."""
    from fgfusion.dataset import synth_multimodal
    from fgfusion.ejgraph import build_ejg
    from fgfusion.knn import build_index

    mat, _, _ = synth_multimodal(*ORACLE_FIXTURE, 0.25, 1.0, seed)
    k, k1, k2 = ORACLE_K
    out = []
    for mode in ("literal", "jaccard-scaled"):
        for metric in ("euclidean", "cosine"):
            graph = build_ejg(build_index(mat, metric), k, k1, k2, mode=mode)
            oracle = checks.oracle_ejg(mat.data, k, k1, k2, metric, mode)
            out.append([f"oracle {mode}/{metric}: {p}"
                        for p in checks.check_ejg_against_oracle(graph, oracle)])
    return out


def run_worker(workload: str, inputs: Path, out: Path, env: dict, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--out", str(out)]
    if mode != "plain":
        cmd += ["--trace", mode]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_outputs(workload, out: Path, result: dict) -> tuple[dict, dict, float | None]:
    """Per-operation problems and output digests, and the fused accuracy."""
    problems: dict[str, list[str]] = {}
    for op in result["ops"]:
        problems[op["name"]] = (
            [] if op["exit"] == 0 else [f"exit {op['exit']}: {op['error']}"]
        )
    digests: dict[str, str] = {}
    acc = None
    n = workload.n

    def table(op, path, methods, repeats):
        data = path.read_bytes()
        text = data.decode("utf-8")
        problems[op] += checks.check_table(text, methods, repeats)
        digests[op] = _digest(data)
        return text

    if workload.kind == "pipeline":
        if not problems["pipeline"]:
            cfg = workload.config
            cells = len(cfg["k"]) * len(cfg["d"])
            methods = ["modality_a", "modality_b", "joint"] + ["fgf"] * cells
            text = table("pipeline", out / "results.csv", methods, cfg["repeats"])
            if not problems["pipeline"]:
                acc = checks.fused_mean(text)
                if workload.gain_check:
                    problems["pipeline"] += checks.check_gain(text)
        return problems, digests, acc

    for op, name in (("build-graph-a", "graph_a.csv"), ("build-graph-b", "graph_b.csv")):
        if not problems[op]:
            problems[op] += checks.check_graph_csv(out / name, n, STAGED_K)
            digests[op] = _digest((out / name).read_bytes())
    if not problems["fuse"]:
        blob = (out / "affinity.bin").read_bytes()
        problems["fuse"] += checks.check_affinity(blob, n)
        digests["fuse"] = _digest(blob)
    if not problems["embed"]:
        blob = (out / "fused.bin").read_bytes()
        problems["embed"] += checks.check_embeddings(blob, n, STAGED_DIM)
        digests["embed"] = _digest(blob)
    if not problems["eval-features"]:
        table("eval-features", out / "eval_features.csv", ["modality_a"], STAGED_REPEATS)
    if not problems["eval-fused"]:
        text = table("eval-fused", out / "eval_fused.csv", ["fused"], STAGED_REPEATS)
        if not problems["eval-fused"]:
            acc = checks.fused_mean(text, "fused")
    return problems, digests, acc


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    env = child_env()
    detail = {"environment": environment(seed, env), "workload": workload.name}
    inputs = work / "inputs"
    stage_inputs(workload, seed, inputs)
    setup = measure_setup(env)

    failures: list[str] = []
    attempted = failed = 0
    for problems in oracle_problems(seed):
        attempted += 1
        failed += bool(problems)
        failures += problems

    # A traced run alternates untraced, span-timed and tracemalloc iterations.
    modes = ("plain", "spans", "mem") if trace else ("plain",)
    iterations = []
    reference: dict[str, str] = {}  # op -> digest of its first checked output
    accs = []
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        started = time.perf_counter()
        mode = modes[len(iterations) % len(modes)]
        out = work / f"out{len(iterations)}"
        try:
            result = run_worker(workload.name, inputs, out, env, mode)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            result = {"mode": mode, "ops": [], "trace": None, "crash": str(exc)}
        if "crash" in result:
            problems, digests, acc = {"worker": [result["crash"]]}, {}, None
        else:
            problems, digests, acc = check_outputs(workload, out, result)
        shutil.rmtree(out, ignore_errors=True)
        for op, digest in digests.items():
            if reference.setdefault(op, digest) != digest:
                problems[op].append("output differs from the first iteration of this seed")
        if result["trace"] is not None:
            missing = result["trace"]["missing_spans"] + result["trace"]["unbound"]
            problems["trace-coverage"] = [f"spans missing or unbound: {missing}"] if missing else []
        for op, found in problems.items():
            attempted += 1
            failed += bool(found)
            failures += [f"iteration {len(iterations)} {op}: {p}" for p in found]
        if acc is not None:
            accs.append(acc)
        result["mode"] = mode
        iterations.append(result)
        durations.append(time.perf_counter() - started)
        now = time.perf_counter()
        if len(iterations) >= MIN_ITERATIONS and now + statistics.median(durations) > deadline:
            break

    ran = [it for it in iterations if "crash" not in it]
    plain = [it for it in ran if it["mode"] == "plain"]
    wall = statistics.median(it["wall_s"] for it in plain) if plain else 0.0
    detail.update({
        "iterations": [{"mode": it["mode"], "wall_s": it["wall_s"], "cpu_s": it["cpu_s"],
                        "peak_rss_mb": it["peak_rss_mb"]} for it in ran],
        "setup_s": setup,
        "failures": failures[:20],
    })
    if trace:
        def median_of(mode, key):
            got = [it["trace"]["metrics"][key] for it in ran if it["mode"] == mode]
            return statistics.median(got) if got else 0.0

        # allocation peaks come from the tracemalloc iterations, the rest from timed ones
        values = {key: median_of("mem" if key.endswith("peak_alloc_mb") else "spans", key)
                  for key in LAYER_METRICS}
        values["trace.untraced_wall_s"] = wall
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain) if plain else 0.0,
            "cpu_s": statistics.median(it["cpu_s"] for it in plain) if plain else 0.0,
            "fgf_acc": accs[0] if accs else 0.0,
            "ok_frac": (attempted - failed) / attempted,
        }
    summary = {"attempted": attempted, "failed": failed, "values": values}
    return summary, detail


def load_units(trace: bool) -> dict:
    """Metric name -> unit for the run's kind, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fgfusion benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fgfusion" / "__init__.py").is_file():
        print(f"error: no fgfusion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fgfusion

    if Path(fgfusion.__file__).resolve().parent != SRC / "fgfusion":
        print(f"error: imported fgfusion from {fgfusion.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units = load_units(bool(args.trace))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        summary, detail = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    if set(summary["values"]) != set(units):
        print(f"error: measured metrics {sorted(summary['values'])} differ from "
              f"BENCHMARK.json's {sorted(units)}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in summary["values"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
