"""One fresh benchmark process: a timed set-up, or one pass over a request list.

    python3 bench/worker.py setup --workload W --seed N
    python3 bench/worker.py pass --workload W --requests FILE [--offset K] [--trace 0|1]

setup times, from just after the machine's speed is first sampled, what
a fresh process does before its first request: import ghk, generate the seeded requests
(without their expectations, which are the benchmark's own work), write
their --file documents into a scratch directory bench/.work/<pid> and run
a small fixed warm-up list.

pass runs in the directory that holds FILE, a request list with its
expectations that run.py wrote there with the --file documents.  After
the same warm-up, one client sends every request once in a closed loop,
each through ghk.cli.run_command with stdout and stderr captured; then
every report is checked.  The pass starts at request K and wraps
around.  Garbage collections fall at the same point of every process's
life, so passes that start at different requests keep one request from
taking a collection in every pass.  Every pass is a fresh process,
so no request can reuse what an earlier pass computed.  With --trace 1
the layer tracer is installed for the pass.

The last stdout line is one JSON object.
"""

import gc
from time import perf_counter


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel, with garbage collection off.

    The kernel builds small tuples, fills a set and does integer
    arithmetic, the same kind of work ghk does, so it slows down with
    the machine the way a request does.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    seen, total = set(), 0
    for i in range(300):
        pair = (i * 7 % 13, i * 3 % 11)
        total += pair[0] * pair[1] // 3
        seen.add(pair)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


# the machine's speed just before set-up; setup() scales by it and the speed after
KERNEL_BEFORE_S = sorted(calibrate() for _ in range(21))[10]
SETUP_START = perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"
# calibrate() takes this long at the reference speed; every reported time
# is scaled to that speed
REFERENCE_KERNEL_S = 60e-6


def import_ghk():
    """Import ghk from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ghk.cli

    if Path(ghk.__file__).resolve().parent != src / "ghk":
        raise SystemExit(f"ghk was imported from {ghk.__file__}, not from {src}")
    return ghk.cli


def run_one(cli, argv: list[str]) -> tuple[float, object, str]:
    """(seconds from argv to captured report, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run_command(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception:  # noqa: BLE001 - counted as a failed request
            code = None
            print(traceback.format_exc(), file=sys.__stderr__)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


def read_svg(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run_pass(cli, requests: list, tracer=None) -> dict:
    """Send every request once, then check every report.

    The machine's speed drifts by a third within seconds, so every time
    is scaled to the reference speed: the calibration kernel runs
    between requests, and a request's wall time is multiplied by
    REFERENCE_KERNEL_S over the mean kernel time on its two sides.
    """
    results, scaled = [], []
    before = calibrate()
    for req in requests:
        if tracer is not None:
            tracer.begin_request()
        results.append(run_one(cli, req["argv"]))
        after = calibrate()
        scaled.append(results[-1][0] * 2 * REFERENCE_KERNEL_S / (before + after))
        before = after
    failed = 0
    for req, (_, code, out) in zip(requests, results):
        if not workloads.check(req, code, out, read_svg):
            failed += 1
            print(f"wrong output for {req['argv']}: exit {code}", file=sys.stderr)
        if tracer is not None:
            tracer.add("cli.report_bytes", len(out.encode()))
    return {"scaled": scaled, "wall": [elapsed for elapsed, _, _ in results],
            "attempted": len(requests), "failed": failed}


def warm_up(cli, workload: str) -> None:
    for argv in workloads.warmup(workload):
        run_one(cli, argv)


def setup(workload: str, seed: int) -> float:
    """Set-up time of this process, scaled to the reference speed."""
    workdir = WORK / str(os.getpid())
    try:
        cli = import_ghk()
        requests = workloads.generate(workload, seed, expect=False)
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        for req in requests:
            for name, doc in req["files"].items():
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
        warm_up(cli, workload)
        setup_s = perf_counter() - SETUP_START
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    kernel_s = (KERNEL_BEFORE_S + statistics.median(calibrate() for _ in range(21))) / 2
    return setup_s * REFERENCE_KERNEL_S / kernel_s


def one_pass(workload: str, request_file: str, offset: int, trace: int) -> dict:
    """One pass starting at request offset; times are in list order."""
    from tracer import Tracer, patched_bindings  # here, so that set-up does not import it

    with open(request_file, encoding="utf-8") as fh:
        requests = json.load(fh)
    offset %= len(requests)
    requests = requests[offset:] + requests[:offset]
    os.chdir(Path(request_file).resolve().parent)
    cli = import_ghk()
    warm_up(cli, workload)
    if patched_bindings():
        raise RuntimeError("ghk is patched before the pass")
    if not trace:
        result = run_pass(cli, requests)
        if patched_bindings():
            raise RuntimeError("the untraced pass left ghk patched")
    else:
        tracer = Tracer()
        tracer.install()
        try:
            result = run_pass(cli, requests, tracer)
        finally:
            tracer.uninstall()
        if patched_bindings():
            raise RuntimeError("the tracer left ghk patched")
        # self times to the reference speed, by the pass's own scaling
        speed = sum(result["scaled"]) / sum(result["wall"])
        result["metrics"] = tracer.metrics()
        for name, metric in result["metrics"].items():
            if name.endswith(".self_ms"):
                metric["value"] *= speed
    for key in ("scaled", "wall"):
        result[key] = result[key][-offset:] + result[key][:-offset]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--requests")
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        result = {"setup_s": setup(args.workload, args.seed)}
    else:
        result = one_pass(args.workload, args.requests, args.offset, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
