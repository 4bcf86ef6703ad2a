#!/usr/bin/env python3
"""Tolerance-band perf-regression gate over BENCH_*.json artifacts.

Compares the bench JSON files a CI run just produced against the committed
baselines under bench/baselines/. Every baseline row is matched to a current
row by its configuration key — (bench, backend) plus whatever sweep
dimensions the table carries (batch, clients, max_batch, replicas, queue_cap,
admission, simulator, ...) — and each throughput/latency metric is checked
against a relative tolerance band:

  * throughput (samples/s, reqs/s) regresses when it drops more than
    --tolerance (default 15%) below baseline;
  * tail latency (p95 ms, us/sample) regresses when it rises more than
    --latency-tolerance (default 60%: quantiles on shared CI runners are far
    noisier than throughput) above baseline;
  * derived ratios ("speedup vs batch 1", rendered like "3.4x") regress when
    they drop more than --ratio-tolerance (default 15%) below baseline. Ratios
    divide out absolute runner speed, so batch-scaling losses fail the gate
    even when raw samples/s drifts with the machine;
  * percentages (shed %, reject %, error %) regress when they rise more than
    --abs-tolerance (default 2.0) points above baseline, and per-sample page
    fault counts (minflt/sample) when they rise more than FAULT_TOLERANCE
    (20) faults above it: absolute bands, since both are healthy at or
    near 0.

A baseline row or file with no current counterpart is a failure too — a bench
that silently stops running is a lost regression signal, not a pass
(--allow-missing downgrades exactly these to notes for runs that
intentionally skip benches; metric regressions still fail). Exits
nonzero on any regression; the markdown report goes to stdout and, when
--summary is given, is appended there ($GITHUB_STEP_SUMMARY in CI).

Refreshing baselines after an intentional perf change:

  tools/bench_compare.py --baseline bench/baselines --current . --write-baseline

which copies the current BENCH_*.json set over the committed one (review the
diff like any other code change).
"""

import argparse
import json
import os
import shutil
import sys
from glob import glob

# Metric columns and their good direction: +1 = higher is better (throughput),
# -1 = lower is better (latency). Columns not listed here and not in
# DIMENSIONS (derived ratios, percentiles we do not gate on) are ignored.
METRICS = {
    "samples/s": +1,
    "reqs/s": +1,
    "Mops/s": +1,
    "p95 ms": -1,
    "us/sample": -1,
}

# Derived-ratio columns ("3.4x" strings) and their good direction. Gated with
# their own --ratio-tolerance band: a ratio of two same-run measurements
# cancels absolute machine speed, so it can be held much more firmly than raw
# throughput — a batch-64 run that stops scaling over batch-1 fails here even
# if every absolute samples/s number is inside its (noise-sized) band.
RATIO_METRICS = {
    "speedup vs batch 1": +1,
}

# Percentage-valued columns gated on ABSOLUTE percentage-point drift
# (--abs-tolerance), not relative drift: their healthy baseline is usually
# 0.0, where a relative band is meaningless (anything/0) and where the
# interesting regression is "the wire server started shedding at a load it
# used to absorb". -1 = lower is better. A current value within
# baseline + abs_tolerance points passes; improvements always pass.
ABS_METRICS = {
    "shed %": -1,
    "reject %": -1,
    "error %": -1,
}

# Per-sample count columns gated on ABSOLUTE drift (FAULT_TOLERANCE) for
# the same reason: the event simulator's healthy minor-fault count per
# single-sample run is ~0 once trace storage is recycled, and the regression
# worth catching is per-sample trace allocation coming back (~80 faults per
# sample on the hot-path bench's VGG stack). -1 = lower is better.
COUNT_METRICS = {
    "minflt/sample": -1,
}

# Absolute rise in minflt/sample that fails the gate. Well under the ~80
# faults a sample pays when its trace is allocated fresh, and well over the
# few faults a runner's allocator may add on its own to a 0 baseline.
FAULT_TOLERANCE = 20.0

# Configuration columns that identify a row across runs. Everything else that
# is not a METRIC (speedup strings, mean batch, p50, refused counts) is
# informational and takes no part in matching or gating.
DIMENSIONS = (
    "backend",
    "simulator",
    "batch",
    "max_batch",
    "clients",
    "replicas",
    "queue_cap",
    "admission",
    "models",
    "model",
    "connections",
    "workload",
    "case",
    "n",
    "layer",
    "tier",
)


def load(path):
    with open(path) as f:
        return json.load(f)


def row_key(row):
    return tuple((d, str(row[d])) for d in DIMENSIONS if d in row)


def fmt_key(bench, key):
    dims = " ".join(f"{d}={v}" for d, v in key)
    return f"{bench} [{dims}]" if dims else bench


def to_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def to_ratio(value):
    """Parses a derived-ratio cell like "3.4x" (plain floats also accepted)."""
    if isinstance(value, str) and value.endswith("x"):
        value = value[:-1]
    return to_float(value)


def compare_file(bench, base, cur, tolerance, latency_tolerance, ratio_tolerance,
                 abs_tolerance):
    """Yields (status, detail_row) per gated metric; status in
    {ok, regressed, missing}."""
    current_rows = {}
    for row in cur.get("rows", []):
        current_rows.setdefault(row_key(row), row)
    for brow in base.get("rows", []):
        key = row_key(brow)
        crow = current_rows.get(key)
        if crow is None:
            yield "missing", (fmt_key(bench, key), "(row)", "-", "missing", "-", "MISSING ROW")
            continue
        gated = [
            (metric, direction, to_float,
             tolerance if direction > 0 else latency_tolerance)
            for metric, direction in METRICS.items()
        ] + [
            (metric, direction, to_ratio, ratio_tolerance)
            for metric, direction in RATIO_METRICS.items()
        ]
        for metric, direction, parse, tol in gated:
            bval = parse(brow.get(metric))
            cval = parse(crow.get(metric))
            if bval is None or bval == 0.0:
                continue  # metric absent in this table (or degenerate baseline)
            if cval is None:
                yield "missing", (fmt_key(bench, key), metric, f"{bval:g}", "missing", "-",
                                  "MISSING METRIC")
                continue
            delta = (cval - bval) / bval
            regressed = (direction > 0 and delta < -tol) or (direction < 0 and delta > tol)
            band = f"-{tol:.0%}" if direction > 0 else f"+{tol:.0%}"
            status = "REGRESSED" if regressed else "ok"
            yield ("regressed" if regressed else "ok"), (
                fmt_key(bench, key), metric, f"{bval:g}", f"{cval:g}", f"{delta:+.1%} ({band})",
                status)
        absolute = [(metric, direction, abs_tolerance, "pp")
                    for metric, direction in ABS_METRICS.items()] + [
                    (metric, direction, FAULT_TOLERANCE, "")
                    for metric, direction in COUNT_METRICS.items()]
        for metric, direction, tol, unit in absolute:
            bval = to_float(brow.get(metric))
            if bval is None:
                continue  # metric absent in this table (0.0 baselines DO gate)
            cval = to_float(crow.get(metric))
            if cval is None:
                yield "missing", (fmt_key(bench, key), metric, f"{bval:g}", "missing", "-",
                                  "MISSING METRIC")
                continue
            delta = cval - bval  # absolute drift, not relative
            regressed = (direction < 0 and delta > tol) or (direction > 0 and delta < -tol)
            band = (f"+{tol:g}{unit}" if direction < 0 else f"-{tol:g}{unit}")
            status = "REGRESSED" if regressed else "ok"
            yield ("regressed" if regressed else "ok"), (
                fmt_key(bench, key), metric, f"{bval:g}", f"{cval:g}",
                f"{delta:+.2f}{unit} ({band})", status)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="bench/baselines",
                    help="directory holding the committed BENCH_*.json baselines")
    ap.add_argument("--current", default=".",
                    help="directory holding the freshly produced BENCH_*.json files")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="relative throughput drop that fails the gate (default 0.15)")
    ap.add_argument("--latency-tolerance", type=float, default=0.60,
                    help="relative tail-latency rise that fails the gate (default 0.60)")
    ap.add_argument("--ratio-tolerance", type=float, default=0.15,
                    help="relative drop in a derived-ratio column (speedup vs batch 1) "
                         "that fails the gate (default 0.15)")
    ap.add_argument("--abs-tolerance", type=float, default=2.0,
                    help="absolute percentage-point rise in a percentage column "
                         "(shed %%, reject %%) that fails the gate (default 2.0); "
                         "absolute so a 0%% baseline still gates")
    ap.add_argument("--summary", default=os.environ.get("GITHUB_STEP_SUMMARY"),
                    help="file to append the markdown report to (defaults to "
                         "$GITHUB_STEP_SUMMARY when set)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="downgrade missing files/rows/metrics from failures to notes — an "
                         "escape hatch for runs that intentionally skip benches (a sweep "
                         "behind a flag, a partial rerun); genuine metric regressions still "
                         "fail")
    ap.add_argument("--write-baseline", action="store_true",
                    help="instead of comparing, copy current BENCH_*.json over the baselines")
    args = ap.parse_args()

    baseline_files = sorted(glob(os.path.join(args.baseline, "BENCH_*.json")))

    if args.write_baseline:
        os.makedirs(args.baseline, exist_ok=True)
        current_files = sorted(glob(os.path.join(args.current, "BENCH_*.json")))
        if not current_files:
            print(f"no BENCH_*.json under {args.current} to adopt", file=sys.stderr)
            return 1
        for path in current_files:
            dest = os.path.join(args.baseline, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baseline <- {path}")
        return 0

    if not baseline_files:
        print(f"no baselines under {args.baseline}; commit them with --write-baseline",
              file=sys.stderr)
        return 1

    details = []
    regressions = 0
    missing = 0
    checks = 0
    for bpath in baseline_files:
        name = os.path.basename(bpath)
        bench = name[len("BENCH_"):-len(".json")]
        cpath = os.path.join(args.current, name)
        if not os.path.exists(cpath):
            details.append((bench, "(file)", "-", "missing", "-", "MISSING FILE"))
            missing += 1
            continue
        for status, row in compare_file(bench, load(bpath), load(cpath),
                                        args.tolerance, args.latency_tolerance,
                                        args.ratio_tolerance, args.abs_tolerance):
            checks += 1
            details.append(row)
            if status == "regressed":
                regressions += 1
            elif status == "missing":
                missing += 1

    # A baseline with no current counterpart is a lost regression signal, not
    # a pass — it fails the gate unless the caller explicitly opted out.
    failures = regressions + (0 if args.allow_missing else missing)
    allowed_note = (f" ({missing} missing, allowed)"
                    if args.allow_missing and missing else "")
    verdict = ("❌ perf gate: "
               f"{failures} failure(s) across {checks} checks") if failures else (
               f"✅ perf gate: {checks} checks within tolerance{allowed_note}")
    lines = [
        "## Perf regression gate",
        "",
        verdict,
        "",
        "| bench / config | metric | baseline | current | delta (band) | status |",
        "|---|---|---|---|---|---|",
    ]
    lines += [f"| {' | '.join(row)} |" for row in details]
    report = "\n".join(lines) + "\n"
    print(report)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
