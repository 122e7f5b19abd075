"""Fixed-work benchmark of the cabee package.

    python3 perfbench/run.py --workload {search,cluster,learn,catalog} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Every repetition of a workload's fixed operation list runs
in a fresh process (`worker.py`), as cold as a `cabee run`.

With `--trace 0`, repetitions continue until `--seconds` of wall time have
been measured (at least one), and the last line of standard output is a
JSON object with the medians of `setup_s`, `run_s` and `peak_rss_mb`.  Times
are rescaled to a reference processor speed (`speed.py`).  With `--trace 1`,
one untraced and two traced processes run, and the last line holds the
per-layer metrics; outputs and counts must agree across the processes.

`correct` is false when any check fails.  The exit code is not 0, and no
result is printed, when the workload cannot run at all.  `NOTES.md` explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("search", "cluster", "learn", "catalog")
SETUP_SAMPLES = 5  # set-up is timed in at least this many processes; the median is reported
MAX_RUNS = 15  # untraced processes per run, however fast the workload gets
TRACED_RUNS = 2  # traced processes per run, whose counts must agree
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def start_worker(args, deadline: float, trace: int = 0, setup_only: bool = False):
    """Run one worker; return (set-up seconds at the reference speed, its JSON result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=CHECKOUT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed or passed the {TIME_LIMIT_S} s limit (exit code {proc.returncode})")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    return setup_s * res["setup_scale"], res


def measure(args, deadline: float):
    """Start the workers of one run: (set-up samples, untraced results, traced results)."""
    if args.trace:
        plain = [start_worker(args, deadline)[1]]
        traced = [start_worker(args, deadline, trace=1)[1] for _ in range(TRACED_RUNS)]
        return [], plain, traced
    setups, plain = [], []
    while True:
        started = time.monotonic()
        setup_s, res = start_worker(args, deadline)
        setups.append(setup_s)
        plain.append(res)
        enough = sum(r["wall_s"] for r in plain) >= args.seconds or len(plain) >= MAX_RUNS
        if enough or time.monotonic() + (time.monotonic() - started) > deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(start_worker(args, deadline, setup_only=True)[0])
    return setups, plain, []


def cross_checks(plain, traced) -> list[str]:
    """Outputs must repeat across processes with one seed, and so must counts."""
    notes = []
    runs = plain + traced
    if any((r["input_digest"], r["digests"]) != (runs[0]["input_digest"], runs[0]["digests"]) for r in runs):
        notes.append("inputs or outputs differ between processes with one seed: "
                     + "; ".join(f"{r['input_digest']} {r['digests']}" for r in runs))
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in traced]
    if any(c != counts[0] for c in counts):
        notes.append(f"per-layer counts differ between traced runs with one seed: {counts}")
    return notes


def declared_metrics(trace: int) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = CHECKOUT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time; the fixed operation list repeats until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        setups, plain, traced = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs = plain + traced
    notes = [n for r in runs for n in r["notes"]] + cross_checks(plain, traced)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    if args.trace:
        metrics = {}
        for name, (value, unit) in traced[0]["layers"].items():
            if name.endswith("_s"):  # times are averaged over the traced runs
                value = statistics.fmean(r["layers"][name][0] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        traced_s = statistics.fmean(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = {"value": traced_s - plain[0]["wall_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MiB"},
        }
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"error: BENCHMARK.json declares {sorted(declared)}, the run measures {sorted(metrics)}",
              file=sys.stderr)
        return 1

    for note in notes:
        print("check:", note, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: inputs {runs[0]['input_digest']}, "
          f"output digests {runs[0]['digests']}")
    print("wall seconds per process: " + " ".join(f"{r['wall_s']:.4f}" for r in runs)
          + (" (first untraced, then traced)" if traced else ""))
    print("run_s at the reference speed: " + " ".join(f"{r['run_s']:.4f}" for r in plain))
    if setups:
        print("setup_s per process: " + " ".join(f"{s:.4f}" for s in setups))
    print(f"fail_ratio {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
