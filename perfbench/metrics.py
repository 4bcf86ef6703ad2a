"""Arithmetic of the benchmark: percentiles, window medians, span self-times
and metric-name validation. Pure functions over raw samples, so run.py stays
thin and test_metrics.py can check every rule on hand-made inputs."""

import math
import re

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def percentile(values, q):
    """Nearest-rank q-th percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond
    it. Returns (q, value, n, beyond); when even the median lacks MIN_BEYOND
    samples beyond it, the median is returned with its smaller count."""
    n = len(values)
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q, percentile(values, q), n, beyond(n, q)
    q = TAIL_LADDER[-1]
    return q, percentile(values, q), n, beyond(n, q)


def window_rates(events, window_s, windows):
    """Per-window completion rate. `events` are (start_s, end_s, units);
    each is assigned to the window holding its midpoint, and a window's
    rate is its units over the busy seconds of its events (for a sequential
    loop that is the window's own length, without the error of cutting
    events at the boundary). A window without events reads 0."""
    units = [0.0] * windows
    busy = [0.0] * windows
    for start, end, n in events:
        w = min(windows - 1, max(0, int((start + end) / 2.0 / window_s)))
        units[w] += n
        busy[w] += end - start
    return [u / b if b > 0 else 0.0 for u, b in zip(units, busy)]


def completion_rates(done_s, window_s, windows):
    """Completions per second in each window of the timed phase."""
    counts = [0] * windows
    for t in done_s:
        w = int(t / window_s)
        if 0 <= w < windows:
            counts[w] += 1
    return [c / window_s for c in counts]


def covered(interval, children):
    """Length of the part of `interval` covered by the union of children."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a))
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover. `spans` are dicts with id, parent, name, t0, t1.
    Returns {id: self_time}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {s["id"]: (s["t1"] - s["t0"]) - covered((s["t0"], s["t1"]), children.get(s["id"], []))
            for s in spans}


def self_time_by_name(spans):
    """Summed self time per span name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0) + own[s["id"]]
    return totals


def coverage_share(spans):
    """Share of the request roots' time covered by the self time of the
    layer spans below them: 1 - (roots' own self time / roots' duration).
    A request root is a root span with children; childless roots (a
    registry load between requests) are layer work of their own."""
    own = self_times(spans)
    parents = {s["parent"] for s in spans}
    roots = [s for s in spans if s["parent"] == -1 and s["id"] in parents]
    total = sum(s["t1"] - s["t0"] for s in roots)
    if total <= 0:
        return 0.0
    return 1.0 - sum(own[s["id"]] for s in roots) / total


def steal_pct(total0, steal0, total1, steal1):
    """Steal share of all CPU time between two /proc/stat readings."""
    dt = total1 - total0
    return 100.0 * (steal1 - steal0) / dt if dt > 0 else 0.0


def validate_metrics(metrics, declared):
    """Every emitted metric must be declared, and every declared one
    emitted, with a well-formed name and a finite number. Returns a list of
    problems (empty when valid). `declared` maps name -> unit."""
    problems = []
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"malformed metric name {name!r}")
        elif name not in declared:
            problems.append(f"metric {name!r} is not declared in BENCHMARK.json")
        elif entry["unit"] != declared[name]:
            problems.append(f"metric {name!r} has unit {entry['unit']!r}, declared {declared[name]!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name!r} has a non-finite or non-numeric value")
    for name in declared:
        if name not in metrics:
            problems.append(f"declared metric {name!r} was not emitted")
    return problems

