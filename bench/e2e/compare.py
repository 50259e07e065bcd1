#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (bench/e2e/README.md).

Usage:
    compare.py BASE NEW [--benchmark BENCHMARK.json]
    compare.py --self-test

BASE and NEW are each a directory of run JSON files (run.py --out DIR) or a
single such file. For every (end-to-end metric, workload) pair the tool
prints each side's median and quartiles (statistics.quantiles, n=4) and a
verdict against the metric's bound from BENCHMARK.json:

    ok           NEW's median is no worse than BASE's by more than the bound
    REGRESSED    NEW's median is worse by more than the bound
    improved     NEW's median is better by more than the bound
    unresolved   a side's spread (q3 - q1) / median exceeds the bound, and
                 NEW's runs do not all read better than all of BASE's

Per-layer metrics carry no bound; they are printed (median per side) for the
traced runs present. Runs whose host stamps differ in core count, SIMD
level, compiler or build type are not compared: the tool refuses and exits 2.

Exit status: 0 when every pair is ok or improved, 1 when any pair regressed,
is unresolved or a run failed its output checks, 2 on unusable input.
"""

import argparse
import json
import pathlib
import statistics
import sys

HOST_KEYS = ("nproc", "simd", "compiler", "build_type")
DEFAULT_BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class InputError(Exception):
    pass


def load_runs(path):
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise InputError(f"{path}: no run files")
    runs = []
    for f in files:
        try:
            run = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise InputError(f"cannot read {f}: {e}")
        for key in ("workload", "host", "metrics", "correct", "traced"):
            if key not in run:
                raise InputError(f"{f}: not a run file (no '{key}')")
        runs.append(run)
    return runs


def host_class(run):
    return tuple(run["host"].get(k) for k in HOST_KEYS)


def check_hosts(base, new):
    """Raises InputError unless every run shares one host class."""
    classes = {host_class(r) for r in base + new}
    if len(classes) > 1:
        lines = [", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, c)) for c in sorted(classes, key=str)]
        raise InputError("runs come from different host classes; refusing to compare:\n  "
                         + "\n  ".join(lines))


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / q[1] if q[1] else 0.0}


def verdict(base_vals, new_vals, better, bound):
    """Returns (verdict, relative change of NEW's median, oriented so > 0 is worse)."""
    b, n = summary(base_vals), summary(new_vals)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    if b["spread"] > bound or n["spread"] > bound:
        all_better = (max(new_vals) < min(base_vals) if better == "lower"
                      else min(new_vals) > max(base_vals))
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "REGRESSED", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def values_by(runs, traced):
    """{(workload, metric): [values]} over runs of one kind (traced or not)."""
    out = {}
    for r in runs:
        if r["traced"] != traced:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(float(m["value"]))
    return out


def compare(base, new, bench, out=sys.stdout):
    """Prints the comparison; returns the exit status."""
    check_hosts(base, new)
    status = 0
    failed = [r for r in base + new if not r["correct"]]
    if failed:
        print(f"{len(failed)} run(s) failed their output checks", file=out)
        status = 1
    bvals, nvals = values_by(base, False), values_by(new, False)
    print(f"{'workload':<20} {'metric':<18} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict", file=out)
    for workload in sorted({w for w, _ in bvals} | {w for w, _ in nvals}):
        for m in bench["end_to_end"]:
            key = (workload, m["name"])
            if key not in bvals or key not in nvals:
                print(f"{workload:<20} {m['name']:<18} missing on one side", file=out)
                status = 1
                continue
            v, worse = verdict(bvals[key], nvals[key], m["better"], m["bound"])
            b, n = summary(bvals[key]), summary(nvals[key])
            cell = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
            print(f"{workload:<20} {m['name']:<18} {cell(b):>32} {cell(n):>32} "
                  f"{worse:>+8.2%} {m['bound']:>6.0%}  {v}", file=out)
            if v in ("REGRESSED", "unresolved"):
                status = 1
    btr, ntr = values_by(base, True), values_by(new, True)
    if btr and ntr:
        print("\nper-layer (traced runs, no bound): base median -> new median", file=out)
        for key in sorted(set(btr) & set(ntr)):
            print(f"{key[0]:<20} {key[1]:<28} {statistics.median(btr[key]):>14.6g} -> "
                  f"{statistics.median(ntr[key]):<14.6g}", file=out)
    return status


def self_test():
    import io
    bench = {"end_to_end": [{"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    host = {"nproc": 4, "simd": "avx2", "compiler": "gcc 12", "build_type": "Release"}

    def runs(t_values, rate_values, host=host, correct=True):
        return [{"workload": "w", "host": host, "traced": False, "correct": correct,
                 "metrics": {"t_ms": {"value": t, "unit": "ms"},
                             "rate": {"value": r, "unit": "1/s"}}}
                for t, r in zip(t_values, rate_values)]

    def status(base, new):
        return compare(base, new, bench, out=io.StringIO())

    steady = runs([10.0, 10.1, 9.9, 10.0, 10.05], [100, 101, 99, 100, 100])
    assert status(steady, steady) == 0, "identical sets must agree"
    slower = runs([12.0, 12.1, 11.9, 12.0, 12.05], [100, 101, 99, 100, 100])
    assert status(steady, slower) == 1, "a 20% slower median must regress"
    assert verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", 0.1)[0] == "REGRESSED"
    assert verdict([100, 101, 99], [80, 81, 79], "higher", 0.1)[0] == "REGRESSED"
    assert verdict([100, 101, 99], [130, 131, 129], "higher", 0.1)[0] == "improved"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert verdict(noisy, [10.0] * 5, "lower", 0.1)[0] == "unresolved"
    assert verdict(noisy, [1.0, 1.1, 1.2], "lower", 0.1)[0] == "improved", \
        "all-better runs resolve a noisy metric"
    assert status(steady, runs([10.0] * 5, [100] * 5, correct=False)) == 1
    other = dict(host, nproc=1)
    try:
        status(steady, runs([10.0] * 5, [100] * 5, host=other))
        raise AssertionError("host classes differing in nproc must be refused")
    except InputError:
        pass
    print("compare.py self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--benchmark", type=pathlib.Path, default=DEFAULT_BENCHMARK)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        ap.error("BASE and NEW are required")
    try:
        bench = json.loads(args.benchmark.read_text())
        return compare(load_runs(args.base), load_runs(args.new), bench)
    except (OSError, json.JSONDecodeError, InputError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
