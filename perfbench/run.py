#!/usr/bin/env python3
"""The repository benchmark: one workload run, end to end.

    python3 perfbench/run.py --workload sim_float --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

Builds the harness from source (perfbench/CMakeLists.txt, build tree under
.bench_build/), runs the workload in a fresh harness process with the compute
pool pinned, checks every output, and prints the metrics. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer ones, from spans the harness records around each call into a layer
in alternating one-second windows.

Exit status: 0 when every output was correct; 1 on a correctness mismatch
(the result line still prints, with "correct": false) or a build/run error;
3 when an open-loop run fell behind its schedule (no result is reported, the
run is invalid). See perfbench/README.md.
"""

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
HARNESS = BUILD / "perfbench_harness"

WORKLOADS = ("sim_float", "wire_poisson", "serve_churn")
SIM = ("sim_float",)
# Compute-pool threads per workload. The sim fans batches out over a
# 2-worker pool; the servers run each batch inline on their 2 replica
# threads, so busy threads stay within a 4-core host next to the IO thread
# and the load generator.
POOL_THREADS = {"sim_float": 2, "wire_poisson": 0, "serve_churn": 0}
# An open-loop run is invalid when, at any window end, completions trail
# the schedule by more than this many seconds of offered load.
MAX_BACKLOG_S = 0.1
HARNESS_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail("library sources (src/) not found next to perfbench/")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").exists():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"], **quiet)
    if r.returncode != 0 or not HARNESS.exists():
        fail("build failed")


def run_harness(workload, seed, seconds, trace):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    record, spans = stem.with_suffix(".json"), stem.with_suffix(".spans.csv")
    env = dict(os.environ, TTFS_THREADS=str(POOL_THREADS[workload]))
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(record), "--spans", str(spans)]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness timed out")
    if r.returncode not in (0, 2):
        fail(f"{workload}: harness exited with {r.returncode}")
    rec = json.loads(record.read_text())
    span_rows = []
    if trace:
        with spans.open() as f:
            for row in csv.DictReader(f):
                span_rows.append({"id": int(row["id"]), "parent": int(row["parent"]),
                                  "name": row["name"], "t0": int(row["t0_ns"]),
                                  "t1": int(row["t1_ns"])})
    return rec, span_rows, r.returncode == 0


def declared(bench, trace):
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {e["name"]: e["unit"] for e in section}


def pool_check(workload, rec):
    """Exact pool totals against the committed expected values."""
    want = json.loads((HERE / "expected.json").read_text())[workload]
    problems = []
    for key, value in want.items():
        got = rec[f"pool.{key}"]
        if got != value:
            problems.append(f"pool {key}: got {got}, committed {value}")
    return problems


def steal_shares(rec):
    """Steal share (%) of the host's CPU time in each window."""
    total, steal = rec["window.cpu_total"], rec["window.cpu_steal"]
    return [m.steal_pct(total[k], steal[k], total[k + 1], steal[k + 1])
            for k in range(len(total) - 1)]


def run_steal_pct(rec):
    total, steal = rec["window.cpu_total"], rec["window.cpu_steal"]
    return m.steal_pct(total[0], steal[0], total[-1], steal[-1])


def kept_windows(rec):
    """Windows the end-to-end metrics are taken from: those whose steal share
    is at most the run's median window share or 1 %, whichever is higher. A
    neighbour's burst then spoils a window that is left out, and a run the
    host left alone keeps every window."""
    shares = steal_shares(rec)
    limit = max(statistics.median(shares), 1.0)
    return {k for k, x in enumerate(shares) if x <= limit}


def requests(rec, workload):
    """(latency ms, window, traced) of every request. A sim request is one
    batch of 8 through InferenceSession::run and hw::price_trace, placed in
    the window of its midpoint; a serving request in the window it completed
    in."""
    last = int(rec["windows"]) - 1
    if workload in SIM:
        spans = zip(rec["batch.start_s"], rec["batch.end_s"])
        return [((e - s) * 1e3, min(last, int((s + e) / 2 / rec["window_s"])), t)
                for (s, e), t in zip(spans, rec["batch.traced"])]
    return [(lat, min(last, int(done / rec["window_s"])), t)
            for lat, done, t in zip(rec["req.latency_ms"], rec["req.done_s"], rec["req.traced"])]


def throughput(rec, workload, kept):
    """Median over the kept windows of the completion rate."""
    windows, window_s = int(rec["windows"]), rec["window_s"]
    if workload in SIM:
        events = zip(rec["batch.start_s"], rec["batch.end_s"], rec["batch.images"])
        rates = m.window_rates(events, window_s, windows)
    else:
        rates = m.completion_rates(rec["req.done_s"], window_s, windows)
    rates = [r for k, r in enumerate(rates) if k in kept and r > 0]
    return statistics.median(rates), len(rates)


def tail(lat):
    """Nearest-rank p90 of the latencies, and a note with its sample counts
    and the highest percentile with at least 10 samples beyond it (p99 on
    the serving runs). That one is printed, not reported: from run to run it
    follows sparse host preemptions (see README)."""
    n = len(lat)
    q, top, _, above = m.tail_percentile(lat)
    return m.percentile(lat, 90.0), (f"p90 of {n} requests, {m.beyond(n, 90.0)} beyond; "
                                     f"p{q:g} {top:.4g} ms, {above} beyond")


def open_loop_valid(rec):
    """Completions keep pace with the offered schedule at every window end.
    Every scheduled request is offered, so one never answered stays behind."""
    rate, window_s = rec["rate_per_s"], rec["window_s"]
    due, done = sorted(rec["req.sched_s"]), sorted(rec["req.done_s"])
    worst = 0
    for w in range(1, int(rec["windows"]) + 1):
        t = w * window_s
        offered = sum(1 for d in due if d <= t)
        completed = sum(1 for d in done if d <= t)
        worst = max(worst, offered - completed)
    return worst <= MAX_BACKLOG_S * rate, worst


def end_to_end(rec, workload):
    kept = kept_windows(rec)
    lat = [x for x, w, _ in requests(rec, workload) if w in kept]
    thr, windows = throughput(rec, workload, kept)
    p90, p90_note = tail(lat)
    attempted, failed = int(rec["attempted"]), int(rec["failed"])
    where = f"{len(kept)} of {int(rec['windows'])} windows"
    return {
        "throughput_per_s": (thr, "1/s", f"median of {windows} one-second windows"),
        "p50_ms": (statistics.median(lat), "ms", f"{len(lat)} requests in {where}"),
        "p90_ms": (p90, "ms", f"{p90_note} in {where}"),
        "ok_pct": (100.0 * (attempted - failed) / attempted, "%", f"{attempted} attempted"),
        "setup_s": (statistics.median(rec["setup_s"]), "s",
                    f"median of {len(rec['setup_s'])} set-ups"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MiB", "VmHWM of the serving process"),
        "model_energy_uj": (rec["pool.energy_uj"] / rec["pool.items"], "uJ",
                            f"mean over {int(rec['pool.items'])} pool images"),
    }


def per_layer(rec, spans, workload, names):
    reqs = requests(rec, workload)
    lat = [x for x, _, _ in reqs]
    traced = [t for _, _, t in reqs]
    own = m.self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    roots_ns = sum(s["t1"] - s["t0"] for s in spans if s["parent"] == -1) or 1

    def durations(name, scale):
        return [(s["t1"] - s["t0"]) * scale for s in by_name.get(name, [])]

    def share(name):
        return sum(own[s["id"]] for s in by_name.get(name, [])) / roots_ns

    def med(values):
        return statistics.median(values) if values else 0.0

    def p99(values):
        return m.tail_percentile(values)[1] if values else 0.0

    items = rec["pool.items"]
    # Layers a workload does not exercise read 0.
    out = dict.fromkeys(names, 0.0)
    out.update({
        "snn.sops_per_image": rec["pool.sops"] / items,
        "snn.spikes_per_image": rec["pool.spikes"] / items,
        "hw.cycles_per_image": rec["pool.hw_cycles"] / items,
        "cat.quantize_ms": med(rec.get("setup.quantize_ms", [])),
        "host.steal_pct": run_steal_pct(rec),
        "trace.coverage_pct": 100.0 * m.coverage_share(spans),
    })
    # Tracing overhead: traced windows against untraced ones of the same run.
    plain = [x for x, t in zip(lat, traced) if not t]
    with_spans = [x for x, t in zip(lat, traced) if t]
    out["trace.overhead_pct"] = (100.0 * (med(with_spans) / med(plain) - 1.0)
                                 if plain and with_spans else 0.0)

    if workload in SIM:
        run_ns = sum(s["t1"] - s["t0"] for s in by_name.get("snn.run", []))
        sops = sum(x for x, t in zip(rec["batch.sops"], traced) if t)
        out.update({
            "snn.run_ms_p50": med(durations("snn.run", 1e-6)),
            "snn.busy_share": share("snn.run"),
            "snn.ns_per_sop": run_ns / sops if sops else 0.0,
            "snn.setup_ms": med(rec["setup.snn_ms"]),
            "hw.price_us_p50": med(durations("hw.price", 1e-3)),
            "hw.busy_share": share("hw.price"),
        })
        return out

    server = rec["req.server_ms"]
    hits, misses = rec["registry.hits"], rec["registry.misses"]
    out.update({
        "serve.server_ms_p50": med(server),
        "serve.server_ms_p99": p99(server),
        "serve.mean_batch": rec["serve.mean_batch"],
        "registry.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "registry.misses": misses,
        "registry.evictions": rec["registry.evictions"],
        "registry.swaps": rec["registry.swaps"],
    })
    if workload == "serve_churn":
        out.update({
            "serve.submit_us_p50": med(durations("serve.submit", 1e-3)),
            "serve.submit_us_p99": p99(durations("serve.submit", 1e-3)),
            "serve.wake_ms_p50": med([c - s for c, s in zip(lat, server)]),
            "registry.load_ms_p50": med(rec["registry.load_ms"]),
        })
    else:
        overhead = [c - g - s for c, g, s in zip(lat, rec["req.lag_ms"], server)]
        out.update({
            "net.overhead_ms_p50": med(overhead),
            "net.overhead_ms_p99": p99(overhead),
            "net.bytes_per_req": rec["net.bytes"] / max(1, rec["net.requests"]),
            "net.read_pauses": rec["net.read_pauses"],
            "net.protocol_errors": rec["net.protocol_errors"],
            "gen.offered_per_s": rec["offered"] / (rec["windows"] * rec["window_s"]),
            "gen.lag_ms_p99": p99(rec["req.lag_ms"]),
        })
    return out


def run_one(bench, workload, seed, seconds, trace):
    rec, spans, matched = run_harness(workload, seed, seconds, trace)
    problems = [] if matched else [rec.get("error") or "output mismatch"]
    problems += pool_check(workload, rec)
    if workload == "wire_poisson":
        valid, backlog = open_loop_valid(rec)
        if not valid:
            fail(f"INVALID run: completions trailed the open-loop schedule by {backlog} "
                 f"requests at a window end (limit {MAX_BACKLOG_S * rec['rate_per_s']:g})", 3)

    units = declared(bench, trace)
    notes = {}
    if trace:
        values = per_layer(rec, spans, workload, units)
        result = {k: {"value": v, "unit": units.get(k, "?")} for k, v in values.items()}
    else:
        values = end_to_end(rec, workload)
        result = {k: {"value": v[0], "unit": v[1]} for k, v in values.items()}
        notes = {k: v[2] for k, v in values.items()}
    bad = m.validate_metrics(result, units)
    if bad:
        fail(f"{workload}: " + "; ".join(bad))

    if trace:
        own = m.self_time_by_name(spans)
        total = sum(own.values()) or 1
        print(f"{workload:>12}  self time: " + ", ".join(
            f"{k} {100.0 * v / total:.2f}%" for k, v in sorted(own.items(), key=lambda kv: -kv[1])))
    for name, entry in result.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:>12}  {name:<22} {entry['value']:>14.6g} {entry['unit']:<6}{note}")
    diagnostics = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "TTFS_THREADS": POOL_THREADS[workload],
        "pool_threads": rec["pool_threads"], "idle_spinners": rec["idle_spinners"],
        "replicas": rec["replicas"],
        "connections": rec["connections"],
        "steal_pct": run_steal_pct(rec),
        "window_steal_pct": [round(x, 1) for x in steal_shares(rec)],
        "first_request_s": rec["first_request_s"], "problems": problems,
    }
    if "quant.spike_timing_diff_images" in rec:
        # Pool images whose quantized spike trains differ in timing from the
        # float event sim (counts and priced cost agree; see README).
        diagnostics["quant_spike_timing_diff_images"] = rec["quant.spike_timing_diff_images"]
    print("run record: " + json.dumps(diagnostics))
    for p in problems:
        print(f"perfbench: {workload}: MISMATCH: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": int(rec["attempted"]),
            "failed": max(int(rec["failed"]), 1 if problems else 0), "metrics": result}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.exists():
        fail("BENCHMARK.json not found at the repository root")
    bench = json.loads(bench_path.read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if seconds < 2:
        fail("--seconds must be at least 2")
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(bench, w, args.seed, seconds, args.trace) for w in workloads]
    for r in results:
        print(json.dumps(r))
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
