"""One repetition of a workload, in a process of its own.

`run.py` starts this script once per repetition, so that every repetition
starts as cold as a `cabee run` does.  It prints `READY` once the package is
imported and the inputs are drawn from the seed (the end of set-up), runs
the workload's operations once, with or without tracing, checks their
outputs outside the timed window, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
PACKAGE_DIR = BENCH_DIR.parent / "src" / "cabee"
OUT_DIR = BENCH_DIR / "out"
COVERAGE_TOL_S = 1e-6


def import_package():
    """Import the package from this checkout's source tree, nowhere else."""
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import cabee

    if Path(cabee.__file__).resolve().parent != PACKAGE_DIR:
        raise ImportError(f"cabee imported from {cabee.__file__}, not from {PACKAGE_DIR}")


def run_once(wl, tracer=None):
    """Run the workload's operations once.

    Returns (outputs, wall seconds, seconds at the reference speed, crashed
    operations).  Untraced, the wall time is sampled by `speed.Sampler`;
    traced, it is the benchmark's root span and is not rescaled (None).
    """
    outputs: list = []
    crashed: list[int] = []

    def body():
        for index, op in enumerate(wl.operations()):
            try:
                outputs.append(op())
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc()
                crashed.append(index)
                outputs.append(None)

    if tracer is None:
        with speed.Sampler() as sampler:
            body()
        wall_s, run_s = sampler.seconds()
        return outputs, wall_s, run_s, crashed
    tracer.install()
    try:
        _, wall_s = tracer.root(body)
    finally:
        tracer.uninstall()
    return outputs, wall_s, None, crashed


def check_all(wl, outputs, crashed):
    """Problems per operation and output digests, outside the timed window."""
    problems, digests = [], []
    for index, out in enumerate(outputs):
        if index in crashed:
            problems.append([f"operation {index} raised"])
            digests.append(None)
            continue
        try:
            found, dig = wl.check(index, out)
        except Exception as exc:  # a check that cannot read the output fails it
            traceback.print_exc()
            found, dig = [f"operation {index}: check raised {exc!r}"], None
        problems.append(found)
        digests.append(dig)
    return problems, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, OUT_DIR / args.workload)
    print("READY", flush=True)
    setup_scale = speed.scale()
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    outputs, wall_s, run_s, crashed = run_once(wl, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, digests = check_all(wl, outputs, crashed)
    notes = [msg for p in problems for msg in p]
    if args.workload != "catalog":
        other = workloads.make(args.workload, args.seed + 1, OUT_DIR / args.workload)
        if workloads.digest(other.inputs) == workloads.digest(wl.inputs):
            notes.append("the next seed draws the same inputs")
    result = {
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "digests": digests,
        "input_digest": workloads.digest(wl.inputs),
        "notes": notes,
    }
    if tracer is not None:
        covered = sum(tracer.self_times().values())
        if abs(covered - wall_s) > COVERAGE_TOL_S:
            notes.append(f"self times add up to {covered} s, the traced run took {wall_s} s")
        result["layers"] = tracer.metrics()
        for key, value in tracing.src_lines(PACKAGE_DIR).items():
            result["layers"][key] = (value, "lines")
        tracer.write(OUT_DIR / f"{args.workload}.spans.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
