"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload tower|powers|corpus --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Every process it starts is a fresh worker (worker.py).  With --trace 0,
SETUP_RUNS workers each time one set-up, and setup_s is their median.
Then run.py generates the seeded request list with its expectations,
writes it and its --file documents to bench/.work/<pid>, and starts one
worker per pass over the list until the next pass would overrun
--seconds.  Each pass starts at another request.  With --trace 1 traced
and untraced passes alternate.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  With --workload
all it runs every workload both ways and prints a table of every metric,
fail_ratio included, before that line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("tower", "powers", "corpus")
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 120


def worker(*args: str, cwd: Path = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},  # same dict layouts in every worker
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(passes: list[dict], key: str = "scaled") -> dict:
    """Rate from whole passes; latencies from each request's median over the passes.

    A pass's rate is its number of requests over the summed time of all
    of them, so every request's full cost counts.  req_per_s is the
    median of the pass rates.
    """
    rates = [len(p[key]) / sum(p[key]) for p in passes]
    times = [statistics.median(slot) for slot in zip(*(p[key] for p in passes))]
    return {
        "req_per_s": statistics.median(rates),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1],
    }


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict[int, list[dict]]:
    """Passes, each in a fresh worker, keyed by trace flag, until time is up."""
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        requests = workloads.generate(workload, seed)
        for req in requests:
            for name, doc in req["files"].items():
                (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        (workdir / "requests.json").write_text(json.dumps(requests), encoding="utf-8")
        passes: dict[int, list[dict]] = {0: [], 1: []}
        start = perf_counter()
        while True:
            # each pass starts at another request, spread by the golden ratio
            offset = int(len(passes[0]) * 0.618034 * len(requests))
            for flag in (0, 1) if trace else (0,):
                passes[flag].append(worker(
                    "pass", "--workload", workload, "--requests", "requests.json",
                    "--offset", str(offset), "--trace", str(flag), cwd=workdir))
            done = len(passes[0])
            if (perf_counter() - start) * (done + 1) / done > seconds:
                return passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    setups = [] if trace else [
        worker("setup", "--workload", workload, "--seed", str(seed))["setup_s"]
        for _ in range(SETUP_RUNS)]
    passes = measure(workload, seed, seconds, trace)
    plain = summarize(passes[0])
    if trace:
        traced = passes[1]
        metrics = {name: {"value": statistics.median(p["metrics"][name]["value"] for p in traced),
                          "unit": metric["unit"]}
                   for name, metric in traced[0]["metrics"].items()}
        metrics["bench.trace_overhead_ratio"] = {
            "value": plain["req_per_s"] / summarize(traced)["req_per_s"], "unit": "ratio"}
    else:
        units = {"req_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **{k: {"value": v, "unit": units[k]} for k, v in plain.items()},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes[0]),
                            "unit": "MB"},
        }
    every = passes[0] + passes[1]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    wall = summarize(passes[0], "wall")
    print(f"{workload}: fail_ratio {failed / attempted:.4g} ({failed}/{attempted}), "
          f"{len(every)} passes; unscaled wall time: {wall['req_per_s']:.4g} req/s, "
          f"p50 {wall['latency_p50_ms']:.4g} ms, p90 {wall['latency_p90_ms']:.4g} ms",
          file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(results: dict) -> None:
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in results))
    for name in ["fail_ratio"] + names:
        cells, unit = [], "ratio"
        for r in results.values():
            if name == "fail_ratio":
                cells.append(f"{r['failed'] / r['attempted']:12.4g}")
            elif name in r["metrics"]:
                unit = r["metrics"][name]["unit"]
                cells.append(f"{r['metrics'][name]['value']:12.4g}")
            else:
                cells.append(f"{'-':>12s}")
        print(f"{name:34s} {unit:6s} " + " ".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description="ghk CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ghk" / "__init__.py").is_file():
        print(f"run.py: no ghk source tree at {ROOT / 'src' / 'ghk'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
            return 0
        results = {}
        for w in WORKLOADS:
            plain = run_workload(w, args.seed, args.seconds, 0)
            traced = run_workload(w, args.seed, args.seconds, 1)
            results[w] = {
                "correct": plain["correct"] and traced["correct"],
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "metrics": {**plain["metrics"], **traced["metrics"]},
            }
        print_table(results)
        print(json.dumps(results))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: worker failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
