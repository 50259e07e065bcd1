#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench/e2e/README.md).

Usage, from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py                    # every workload, one process each
    python3 bench/e2e/run.py --smoke            # every output check, ~10 s
    python3 bench/e2e/run.py --seed 1 --repeat 5 --out runs/a   # for compare.py

The benchmark is built from source on first use (CMake, Release) into
.bench_build/e2e under the repository root. Each workload runs in its own
slc_benchmark process; its `name value unit` lines are passed through. With
one workload the last line printed is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
With --out DIR every run's full host-stamped JSON is also saved in DIR.

Exit status: 0 when every run passed its output checks, 1 when a check
failed or the build or a run did not complete (then no result line is
printed).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "slc_benchmark"
WORKLOADS = ("fig7_sweep", "serve_compress", "serve_decide_fresh", "serve_decide_dup")
RUN_TIMEOUT_S = 175


def default_seconds():
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 15.0


def build():
    """Configures (once) and builds slc_benchmark; False on failure."""
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():  # also re-runs after a failed configure
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "slc_benchmark",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its JSON or None."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd.append(f"--trace={traces / f'{workload}.json'}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {workload}: {e}", file=sys.stderr)
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(f"run.py: {workload} exited {done.returncode} without a result", file=sys.stderr)
        return None
    if done.returncode not in (0, 1):
        print(f"run.py: {workload} exited {done.returncode}", file=sys.stderr)
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", default="1", help="seed, or comma-separated seeds")
    ap.add_argument("--seconds", type=float, default=default_seconds(),
                    help="measurement window per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--out", type=pathlib.Path, help="save each run's full JSON here")
    ap.add_argument("--smoke", action="store_true", help="run every output check, ~10 s")
    args = ap.parse_args()

    if not build():
        return 1
    if args.smoke:
        return subprocess.run([str(BINARY), "--smoke"], timeout=RUN_TIMEOUT_S).returncode

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = [int(s) for s in args.seed.split(",")]
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    results = []
    for workload in workloads:
        for seed in seeds:
            for rep in range(args.repeat):
                result = run_one(workload, seed, args.seconds, args.trace)
                if result is None:
                    return 1
                print(json.dumps(result))
                if args.out:
                    name = f"{workload}-seed{seed}-run{rep}{'-trace' if args.trace else ''}.json"
                    (args.out / name).write_text(json.dumps(result, indent=1) + "\n")
                results.append(result)

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[-1]["metrics"] if len(results) == 1 else {
            f"{r['workload']}/{name}": m for r in results for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
