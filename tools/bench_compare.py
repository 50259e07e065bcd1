#!/usr/bin/env python3
"""Diff two BENCH_*.json files and fail on throughput regressions.

The JSON files are written by the bench drivers' --json mode
(bench/codec_throughput, bench/engine_throughput); every measurement row
carries (scheme, kernel, path) plus blocks_per_sec / gbps / p50_ms / p99_ms /
speedup. This tool joins the two files on (scheme, kernel, path) and exits
non-zero when the chosen metric regressed by more than the threshold on any
row — the machine-readable perf gate CI runs against a committed baseline.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--metric M] [--threshold T]
    bench_compare.py --self-test

    --metric     blocks_per_sec (default) | gbps | speedup | p50_ms | p99_ms
    --threshold  allowed relative regression, default 0.15 (= 15%)
    --self-test  run the built-in sanity suite (CI invokes this so a broken
                 gate tool can never silently wave regressions through)

Every malformed-input failure exits non-zero and names the offending file:
missing or unparsable JSON, a non-object top level, a missing 'measurements'
array, non-object measurement rows, duplicate (scheme, kernel, path) keys,
and non-numeric metric values are all hard errors, never silent skips.

Metric semantics: for rate-like metrics (blocks_per_sec, gbps, speedup)
lower-than-baseline is a regression; for latency metrics (p50_ms, p99_ms)
higher-than-baseline is a regression. Rows whose baseline value is 0 are
skipped (e.g. `speedup` on scalar-path rows, where it is not applicable).
Rows present in only one of the two files — a measurement added to a driver
before the baseline refresh, or vice versa — are *reported* but do not fail
the comparison, so adding bench rows never breaks the gate; pass
--require-all to turn baseline rows missing from the current file back into
a failure. The same applies to a metric field present in only one side of a
joined row: reported, skipped, never a spurious 100% regression.

Host stamp: bench drivers stamp each file's "meta" with the host and build
that produced it (hardware_concurrency, compiler, build_type, plus git_sha).
When the baseline's hardware_concurrency, compiler or build_type differs
from the current file's, or only one side carries them, the tool prints a
warning naming each differing field. git_sha is printed but not compared,
since a baseline is meant to come from another commit.

Scaling rows across host classes: a row whose path is `threads=N` measures
N workers on the host's cores, so it means something else on a host with
another core count. When the two files' hardware_concurrency differ (or
only one side carries it), every such row whose baseline value of the
gated metric is non-zero is refused: the tool names each one and exits 2,
whatever the other rows read. A zeroed baseline is skipped as usual, so a
report-only scaling row never trips it. Otherwise the stamp warning never
changes the verdict.

Notes for CI: absolute rates are machine-dependent, so gating a committed
baseline from a different machine on blocks_per_sec is noise — gate on
--metric speedup (batch kernel vs scalar loop on the *same* machine/run),
which transfers across hosts. Refresh the committed baseline from a CI
artifact, not a laptop, when kernels legitimately change.
"""

import argparse
import json
import re
import sys

LATENCY_METRICS = {"p50_ms", "p99_ms"}
# meta fields that name the host class; git_sha is deliberately not one.
HOST_STAMP_KEYS = ("hardware_concurrency", "compiler", "build_type")
METRICS = ("blocks_per_sec", "gbps", "speedup", "p50_ms", "p99_ms")
# A (scheme, kernel, path) row measuring N engine workers.
SCALING_PATH = re.compile(r"threads=\d+")


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if not isinstance(doc, dict):
        sys.exit(f"error: {path}: top-level JSON is {type(doc).__name__}, "
                 f"expected an object with a 'measurements' array")
    rows = doc.get("measurements")
    if not isinstance(rows, list):
        sys.exit(f"error: {path} has no 'measurements' array")
    out = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            sys.exit(f"error: {path}: measurements[{i}] is "
                     f"{type(row).__name__}, expected an object")
        key = (row.get("scheme", "?"), row.get("kernel", "?"), row.get("path", "?"))
        if key in out:
            sys.exit(f"error: {path} has duplicate measurement {key}")
        out[key] = row
    meta = doc.get("meta")
    return doc.get("bench", "?"), out, meta if isinstance(meta, dict) else {}


def metric_value(path, row, name, metric):
    v = row.get(metric, 0.0)
    try:
        return float(v)
    except (TypeError, ValueError):
        sys.exit(f"error: {path}: measurement {name} has non-numeric "
                 f"{metric!r}: {v!r}")


def fmt_meta(meta):
    return ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))


def stamp_differences(base_meta, cur_meta):
    """Host-stamp fields on which the two files disagree, as readable
    'field: baseline vs current' strings (a missing field reads 'unstamped')."""
    out = []
    for key in HOST_STAMP_KEYS:
        b, c = base_meta.get(key), cur_meta.get(key)
        if b != c:
            show = lambda v: "unstamped" if v is None else repr(v)
            out.append(f"{key}: {show(b)} vs {show(c)}")
    return out


def self_test():
    """Exercises the gate end-to-end in subprocesses: the pass/fail verdicts
    and every malformed-input error path (exit code + file named in the
    message). Returns 0 when all cases behave, 1 otherwise."""
    import os
    import subprocess
    import tempfile

    def run(argv):
        p = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                           capture_output=True, text=True)
        return p.returncode, p.stdout + p.stderr

    def row(bps=100.0, speedup=2.0):
        return {"scheme": "S", "kernel": "k", "path": "p",
                "blocks_per_sec": bps, "speedup": speedup}

    def stamped(meta):
        return json.dumps({"bench": "t", "meta": meta, "measurements": [row()]})

    def scaling_row(bps):
        return dict(row(bps=bps), path="threads=2")

    def scaling(meta, bps, extra=()):
        return json.dumps({"bench": "t", "meta": meta,
                           "measurements": [scaling_row(bps)] + list(extra)})

    host = {"hardware_concurrency": "4", "compiler": "gcc 12.2.0",
            "build_type": "Release", "git_sha": "aaaaaaaaaaaa"}

    failures = 0
    with tempfile.TemporaryDirectory() as td:
        def write(name, content):
            path = os.path.join(td, name)
            with open(path, "w") as f:
                f.write(content)
            return path

        good = write("good.json", json.dumps({"bench": "t", "measurements": [row()]}))
        cases = [
            ("identical files pass",
             [good, good], 0, "OK: no"),
            ("regression beyond threshold fails",
             [good, write("slow.json",
                          json.dumps({"bench": "t", "measurements": [row(bps=50.0)]}))],
             1, "REGRESSION"),
            ("small regression within threshold passes",
             [good, write("near.json",
                          json.dumps({"bench": "t", "measurements": [row(bps=95.0)]})),
              "--threshold", "0.15"], 0, "OK: no"),
            ("baseline row missing from current fails under --require-all",
             [good, write("empty.json", json.dumps({"bench": "t", "measurements": []})),
              "--require-all"], 1, "missing"),
            ("missing file is a named error",
             [good, os.path.join(td, "absent.json")], "nonzero", "absent.json"),
            ("unparsable JSON names the file",
             [good, write("bad.json", "{not json")], "nonzero", "bad.json"),
            ("non-object top level rejected",
             [good, write("arr.json", "[1, 2]")], "nonzero", "expected an object"),
            ("non-object measurement row rejected",
             [good, write("rows.json", json.dumps({"measurements": [42]}))],
             "nonzero", "measurements[0]"),
            ("non-numeric metric value is a named error",
             [good, write("nan.json",
                          json.dumps({"bench": "t",
                                      "measurements": [dict(row(), blocks_per_sec="fast")]}))],
             "nonzero", "non-numeric"),
            ("duplicate measurement keys rejected",
             [good, write("dup.json", json.dumps({"bench": "t",
                                                  "measurements": [row(), row()]}))],
             "nonzero", "duplicate"),
            ("host stamp differing only in git_sha does not warn",
             [write("host_a.json", stamped(host)),
              write("host_a2.json", stamped(dict(host, git_sha="bbbbbbbbbbbb")))],
             0, "OK: no", "warning: host stamp"),
            ("host stamp difference warns but still passes",
             [write("host_b.json", stamped(host)),
              write("host_c.json", stamped(dict(host, hardware_concurrency="1",
                                                build_type="Debug")))],
             0, "hardware_concurrency: '4' vs '1'"),
            ("unstamped baseline warns but still passes",
             [good, write("host_d.json", stamped(host))],
             0, "compiler: unstamped vs 'gcc 12.2.0'"),
            ("scaling row across core counts is refused with exit 2",
             [write("scale_4.json", scaling(host, bps=100.0)),
              write("scale_8.json", scaling(dict(host, hardware_concurrency="8"), bps=100.0))],
             2, "S/k/threads=2"),
            ("scaling row against an unstamped baseline is refused",
             [write("scale_u.json", json.dumps({"bench": "t",
                                                "measurements": [scaling_row(bps=100.0)]})),
              write("scale_4b.json", scaling(host, bps=100.0))],
             2, "REFUSED"),
            ("refusal wins over a regression on another row",
             [write("scale_4c.json", scaling(host, bps=100.0, extra=[row()])),
              write("scale_8c.json", scaling(dict(host, hardware_concurrency="8"), bps=100.0,
                                             extra=[row(bps=10.0)]))],
             2, "REFUSED"),
            ("zeroed scaling baseline across core counts is skipped",
             [write("scale_4z.json", scaling(host, bps=0.0)),
              write("scale_8z.json", scaling(dict(host, hardware_concurrency="8"), bps=100.0))],
             0, "OK: no", "REFUSED"),
            ("scaling row on the same core count is gated",
             [write("scale_4d.json", scaling(host, bps=100.0)),
              write("scale_4e.json", scaling(dict(host, compiler="clang 16"), bps=40.0))],
             1, "REGRESSION", "REFUSED"),
        ]
        for desc, argv, want_code, want_text, *absent in cases:
            code, out = run(argv)
            code_ok = (code != 0) if want_code == "nonzero" else (code == want_code)
            unwanted = [t for t in absent if t in out]
            if code_ok and want_text in out and not unwanted:
                print(f"PASS  {desc}")
            else:
                failures += 1
                print(f"FAIL  {desc}: exit={code} (wanted {want_code}), "
                      f"output missing {want_text!r} or containing {unwanted!r}:\n{out}")
    if failures:
        print(f"\nself-test FAILED: {failures} case(s)")
        return 1
    print("\nself-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--metric", choices=METRICS, default="blocks_per_sec")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative regression (default 0.15 = 15%%)")
    ap.add_argument("--require-all", action="store_true",
                    help="fail when a baseline row is missing from the "
                         "current file (default: report and continue)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in sanity suite and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("baseline and current files are required (or use --self-test)")

    base_name, base, base_meta = load(args.baseline)
    cur_name, cur, cur_meta = load(args.current)
    if base_name != cur_name:
        print(f"warning: comparing different benches: {base_name!r} vs {cur_name!r}")

    regressions, missing, one_sided, refused, skipped = [], [], [], [], 0
    width = max((len("/".join(k)) for k in base), default=10)
    print(f"bench: {cur_name}   metric: {args.metric}   "
          f"threshold: {args.threshold:.0%}")
    # Host/kernel-variant provenance (simd_compiled, cpu_avx2, simd_active,
    # force_scalar_env, ...): which code path produced each file. A speedup
    # diff between an AVX2 baseline and a scalar current run (or vice versa)
    # is a variant change, not a regression — this line is how you tell.
    if base_meta:
        print(f"baseline meta: {fmt_meta(base_meta)}")
    if cur_meta:
        print(f"current  meta: {fmt_meta(cur_meta)}")
    stamp_diff = stamp_differences(base_meta, cur_meta)
    other_cores = base_meta.get("hardware_concurrency") != cur_meta.get("hardware_concurrency")
    if stamp_diff:
        print(f"warning: host stamp differs ({'; '.join(stamp_diff)}): the baseline "
              f"may come from another host class"
              + ("; threads=N rows are not gated" if other_cores else "; gating is unchanged"))
    print(f"{'measurement':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}")
    for key in sorted(base):
        name = "/".join(key)
        if key not in cur:
            missing.append(name)
            print(f"{name:<{width}}  {'-':>12}  {'MISSING':>12}  {'-':>8}")
            continue
        if (args.metric in base[key]) != (args.metric in cur[key]):
            # The metric exists on only one side of the join: comparing it
            # against an implicit 0 would read as a total regression (or a
            # free pass). Report and move on.
            one_sided.append(name)
            side = "baseline" if args.metric in base[key] else "current"
            print(f"{name:<{width}}  metric {args.metric!r} only in {side}; skipped")
            continue
        b = metric_value(args.baseline, base[key], name, args.metric)
        c = metric_value(args.current, cur[key], name, args.metric)
        if b == 0.0:
            skipped += 1
            continue
        if other_cores and SCALING_PATH.fullmatch(key[2]):
            refused.append(name)
            print(f"{name:<{width}}  {b:>12.3f}  {c:>12.3f}  {'-':>8}  << REFUSED")
            continue
        if args.metric in LATENCY_METRICS:
            delta = (c - b) / b          # higher latency = worse
        else:
            delta = (b - c) / b          # lower rate = worse
        flag = ""
        if delta > args.threshold:
            regressions.append((name, b, c, delta))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {b:>12.3f}  {c:>12.3f}  {delta:>7.1%}{flag}")

    extra = sorted("/".join(k) for k in cur if k not in base)
    if extra:
        print(f"note: {len(extra)} measurement(s) only in current: {', '.join(extra)}")
    if skipped:
        print(f"note: {skipped} row(s) skipped (baseline {args.metric} is 0 / not applicable)")
    if one_sided:
        print(f"note: {len(one_sided)} row(s) carry {args.metric!r} on only one side: "
              f"{', '.join(one_sided)}")

    if refused:
        print(f"\nREFUSED: {len(refused)} threads=N row(s) with a non-zero {args.metric} "
              f"baseline cannot be gated across hardware_concurrency "
              f"{base_meta.get('hardware_concurrency', 'unstamped')!r} vs "
              f"{cur_meta.get('hardware_concurrency', 'unstamped')!r}: {', '.join(refused)}")
        return 2
    if missing:
        verdict = "FAIL" if args.require_all else "note"
        print(f"\n{verdict}: {len(missing)} baseline measurement(s) missing from current: "
              f"{', '.join(missing)}")
        if args.require_all:
            return 1
    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond {args.threshold:.0%} "
              f"on {args.metric}:")
        for name, b, c, delta in regressions:
            print(f"  {name}: {b:.3f} -> {c:.3f} ({delta:+.1%})")
        return 1
    print(f"\nOK: no {args.metric} regression beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
