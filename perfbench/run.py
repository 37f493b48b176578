#!/usr/bin/env python3
"""tcw benchmark: build the driver, run one workload, check its outputs and
print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fig7 --seed 20261983 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones (measured on untraced passes); with `--trace 1`
they are the per-layer ones, from the traced passes of the same run. The
line before it is the full record, with provenance.

`--repeat N` runs the workload N times, at seeds seed, seed+1, ..., and
prints each metric's median and quartiles instead; it is how the bounds
in BENCHMARK.json were set.

The driver (perfbench/driver.cpp) is built with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Scratch outputs go
to .bench_work and are removed after the checks; the span trace of the
last traced run stays at .bench_work/<workload>.trace.json (Chrome trace
JSON, loadable in Perfetto).
"""

import argparse
import csv
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, "results")
WORKLOADS = ("fig7", "studies_cold")
DEFAULT_SEED = 20261983
FIG7_PANELS = ("fig7_rho25_m25", "fig7_rho25_m100", "fig7_rho50_m25",
               "fig7_rho50_m100", "fig7_rho75_m25", "fig7_rho75_m100")
# Columns of a Figure-7 CSV that come from the analytic model alone and
# so must not depend on the simulation seed.
FIG7_ANALYTIC_COLUMNS = ("K", "K_over_M", "ctrl_analytic", "fcfs_analytic",
                         "lcfs_analytic")
# Largest |controlled analytic - controlled simulated| p_loss accepted at
# any of the 60 Figure-7 points. EXPERIMENTS.md records a worst gap of
# 0.023 at the default seed; the margin covers other seeds.
LOSS_GAP_TOLERANCE = 0.05

# End-to-end metrics: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("shards_per_s", "1/s"),
)

# Span name -> per-layer self-time metric. The pass root's self time is
# the part no layer call covers: unaccounted_s.
SPAN_METRICS = {
    "bench.setup": "bench.setup_s",
    "analysis.controlled": "analysis.controlled_s",
    "analysis.lcfs": "analysis.lcfs_s",
    "analysis.fcfs": "analysis.fcfs_s",
    "net.enqueue": "net.enqueue_s",
    "exec.scheduler.run": "exec.scheduler.wall_s",
    "net.reduce": "net.reduce_s",
    "bench.schedule": "bench.schedule_s",
    "bench.render": "bench.render_s",
    "exec.cache.open": "exec.cache.open_s",
    "exec.cache.close": "exec.cache.close_s",
}
ROOT_SPAN = "pass"

PER_LAYER_UNITS = {
    **{m: "s" for m in SPAN_METRICS.values()},
    "analysis.fixpoint_iters": "count",
    "analysis.loss_gap_max": "p",
    "bench.schedule_max_s": "s",
    "exec.scheduler.busy_s": "s",
    "exec.scheduler.idle_s": "s",
    "exec.scheduler.utilization": "frac",
    "exec.scheduler.stolen_frac": "frac",
    "net.probes": "count",
    "net.probes_per_s": "1/s",
    "net.success_frac": "frac",
    "net.collision_frac": "frac",
    "exec.cache.inserts": "count",
    "exec.cache.store_bytes": "bytes",
    "unaccounted_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not run (build failure, missing sources...)."""


class Checks:
    """Output checks of one run; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self):
        return len(self.failures)


# ------------------------------------------------------------- provenance

OPTIMIZING_FLAG = re.compile(r"(^|\s)-O([1-3]|s|fast)(\s|$)")


def parse_provenance(driver, seed, pool, nproc, describe):
    """Provenance of one result: the driver's build facts plus the run's.

    A result is comparable with another only when the driver was built
    with optimization and with NDEBUG; anything else is marked so.
    """
    for key in ("build_type", "ndebug", "compiler", "cxx_flags"):
        if key not in driver:
            raise BenchError("driver provenance lacks %r" % key)
    optimized = bool(OPTIMIZING_FLAG.search(driver["cxx_flags"]))
    return {
        "build_type": driver["build_type"],
        "ndebug": bool(driver["ndebug"]),
        "compiler": driver["compiler"],
        "cxx_flags": driver["cxx_flags"].strip(),
        "optimized": optimized,
        "comparable": optimized and bool(driver["ndebug"]),
        "git_describe": describe,
        "nproc": nproc,
        "pool_threads": pool,
        "seed": seed,
    }


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--dirty", "--always"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=20)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def nproc():
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------- spans

def span_tree(events):
    """Group Chrome-trace complete events by pass: {run: [span, ...]}.

    Each span is a dict with name, begin, end (seconds), id and parent.
    """
    runs = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e["args"]
        begin = e["ts"] * 1e-6
        runs.setdefault(args["run"], []).append({
            "name": e["name"], "id": args["id"], "parent": args["parent"],
            "begin": begin, "end": begin + e["dur"] * 1e-6})
    return runs


def covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. Returns {span id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["begin"], s["end"]))
    return {s["id"]: (s["end"] - s["begin"]) -
            covered(s["begin"], s["end"], children.get(s["id"], []))
            for s in spans}


def breakdown(spans):
    """One traced pass: (wall, {metric: self seconds}, unaccounted).

    The root span is the pass; its own self time is what no layer call
    covers. A span name without a metric is an error: every measured call
    must be accounted to a layer.
    """
    roots = [s for s in spans if s["parent"] == -1]
    if len(roots) != 1 or roots[0]["name"] != ROOT_SPAN:
        raise BenchError("a traced pass needs exactly one root span")
    own = self_times(spans)
    parts = {m: 0.0 for m in SPAN_METRICS.values()}
    for s in spans:
        if s is roots[0]:
            continue
        if s["name"] not in SPAN_METRICS:
            raise BenchError("span %r has no layer metric" % s["name"])
        parts[SPAN_METRICS[s["name"]]] += own[s["id"]]
    root = roots[0]
    return root["end"] - root["begin"], parts, own[root["id"]]


def parts_sum_to_wall(wall, parts, unaccounted, rel_tol=1e-6):
    """The bookkeeping rule: layer self times plus unaccounted_s make up
    the traced wall time."""
    return abs(sum(parts.values()) + unaccounted - wall) <= rel_tol * wall


# ------------------------------------------------------------- output checks

def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def same_bytes(path, expected):
    with open(path, "rb") as a, open(expected, "rb") as b:
        return a.read() == b.read()


def analytic_columns(path):
    rows = read_csv(path)
    idx = [rows[0].index(c) for c in FIG7_ANALYTIC_COLUMNS]
    return [[row[i] for i in idx] for row in rows]


def check_fig7(pass_dir, seed, results, checks):
    for panel in FIG7_PANELS:
        out = os.path.join(pass_dir, panel + ".csv")
        ref = os.path.join(results, panel + ".csv")
        if not checks.expect(os.path.isfile(out), panel + ": CSV written"):
            continue
        if seed == DEFAULT_SEED:
            checks.expect(same_bytes(out, ref),
                          panel + ": byte-identical to results/")
        checks.expect(analytic_columns(out) == analytic_columns(ref),
                      panel + ": analytic columns identical to results/")


def check_studies(csv_dir, results, checks):
    """Every study CSV with a committed counterpart matches it byte for
    byte. Returns the names compared."""
    names = sorted(n for n in os.listdir(csv_dir)
                   if os.path.isfile(os.path.join(results, n)))
    for n in names:
        checks.expect(same_bytes(os.path.join(csv_dir, n),
                                 os.path.join(results, n)),
                      n + ": byte-identical to results/")
    return names


def check_outputs(record, checks, results=RESULTS):
    workload = record["workload"]
    passes = record["passes"]
    for p in passes:
        checks.attempted += p["checks"]["attempted"]
        checks.failures += p["checks"]["failures"]
    if workload == "fig7":
        for p in passes:
            check_fig7(p["dir"], record["seed"], results, checks)
            checks.expect(p["loss_gap_max"] <= LOSS_GAP_TOLERANCE,
                          "controlled analytic and simulated loss agree "
                          "within %g" % LOSS_GAP_TOLERANCE)
    else:
        for p in passes:
            compared = check_studies(os.path.join(p["dir"], "csv"), results,
                                     checks)
            checks.expect(len(compared) >= 6, "committed study CSVs found")


# ------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def probes(counters):
    return sum(v for k, v in counters.items()
               if re.fullmatch(r"net\.[a-z_]+\.probe_slots", k))


def end_to_end(record):
    passes = [p for p in record["passes"] if not p["traced"]]
    med = lambda key: statistics.median(p[key] for p in passes)
    values = {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(record["setup_samples"]),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "shards_per_s": statistics.median(p["shards"] / p["wall_s"]
                                          for p in passes),
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(record, events, checks):
    traced = [p for p in record["passes"] if p["traced"]]
    untraced = [p for p in record["passes"] if not p["traced"]]
    runs = span_tree(events)
    n = len(traced)
    mean = lambda xs: sum(xs) / n
    v = {m: 0.0 for m in PER_LAYER_UNITS}

    # Self times: the mean over traced passes keeps the parts additive.
    walls, unaccounted = [], []
    for run, spans in sorted(runs.items()):
        wall, parts, rest = breakdown(spans)
        checks.expect(parts_sum_to_wall(wall, parts, rest),
                      "pass %d: layer self times sum to the traced wall" % run)
        walls.append(wall)
        unaccounted.append(rest)
        for m, s in parts.items():
            v[m] += s / n
    checks.expect(len(walls) == n, "one span tree per traced pass")
    v["unaccounted_s"] = mean(unaccounted)
    v["traced_wall_s"] = mean(walls)
    base = statistics.median(p["wall_s"] for p in untraced)
    v["trace_overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) - base) / base

    v["analysis.fixpoint_iters"] = mean(p["fixpoint_iters"] for p in traced)
    v["analysis.loss_gap_max"] = statistics.median(
        p["loss_gap_max"] for p in traced)
    v["bench.schedule_max_s"] = mean(
        max(p["schedule_s"].values(), default=0.0) for p in traced)

    sched = [p["scheduler"] for p in traced if "scheduler" in p]
    if sched:
        busy = sum(s["busy_s"] for s in sched)
        capacity = sum(s["threads"] * s["wall_s"] for s in sched)
        v["exec.scheduler.busy_s"] = busy / n
        v["exec.scheduler.idle_s"] = (capacity - busy) / n
        v["exec.scheduler.utilization"] = ratio(busy, capacity)

    counters = {}
    for p in traced:
        for k, c in p["counters"].items():
            counters[k] = counters.get(k, 0) + c
    get = lambda k: counters.get(k, 0)
    stolen = get("exec.scheduler.shards_stolen")
    v["exec.scheduler.stolen_frac"] = ratio(
        stolen, stolen + get("exec.scheduler.shards_home"))
    total_probes = probes(counters)
    v["net.probes"] = total_probes / n
    v["net.probes_per_s"] = ratio(total_probes,
                                  sum(p["wall_s"] for p in traced))
    v["net.success_frac"] = ratio(
        get("net.aggregate.successes") + get("net.network.successes"),
        total_probes)
    v["net.collision_frac"] = ratio(
        get("net.aggregate.collisions") + get("net.network.collisions"),
        total_probes)
    v["exec.cache.inserts"] = get("exec.shard_cache.inserts") / n
    v["exec.cache.store_bytes"] = mean(p["store_bytes"] for p in traced)
    return {m: metric(v[m], PER_LAYER_UNITS[m]) for m in PER_LAYER_UNITS}


# ------------------------------------------------------------- running

def build_driver():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no tcw sources under %s/src" % ROOT)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench_driver",
                  "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(build, "perfbench_driver")


def run_once(driver, workload, seed, seconds, trace):
    """One driver run; returns (record, checks, metrics)."""
    work_root = os.path.join(ROOT, ".bench_work")
    tag = "%s-%d" % (workload, os.getpid())
    work = os.path.join(work_root, tag)
    result = work + ".json"
    trace_out = os.path.join(work_root, workload + ".trace.json")
    os.makedirs(work_root, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(nproc()),
           "--work", work, "--result", result]
    if trace:
        cmd += ["--trace-out", trace_out]
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=seconds + 100)
        if proc.returncode != 0:
            raise BenchError("driver exited with %d" % proc.returncode)
        with open(result) as f:
            record = json.load(f)
        checks = Checks()
        check_outputs(record, checks)
        if trace:
            with open(trace_out) as f:
                events = json.load(f)["traceEvents"]
            metrics = per_layer(record, events, checks)
        else:
            metrics = end_to_end(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(result):
            os.remove(result)
    record["provenance"] = parse_provenance(
        record["provenance"], seed, record["provenance"]["pool_threads"],
        nproc(), git_describe())
    return record, checks, metrics


def units_of_work(record):
    return sum(p["shards"] for p in record["passes"])


def summary_line(record, checks, metrics):
    return {
        "workload": record["workload"],
        "provenance": record["provenance"],
        "passes": len(record["passes"]),
        "traced_passes": sum(p["traced"] for p in record["passes"]),
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures[:20]},
        "metrics": metrics,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(driver, args):
    runs = []
    for i in range(args.repeat):
        record, checks, metrics = run_once(driver, args.workload,
                                           args.seed + i, args.seconds,
                                           args.trace)
        runs.append((record, checks, metrics))
        print("run %d seed %d: %s" % (i, args.seed + i, json.dumps(
            {k: m["value"] for k, m in metrics.items()})), file=sys.stderr)
    names = list(runs[0][2])
    table = {}
    for name in names:
        values = [m[name]["value"] for _, _, m in runs]
        q1, med, q3 = quartiles(values)
        table[name] = {"unit": runs[0][2][name]["unit"], "median": med,
                       "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else None,
                       "values": values}
    return {"workload": args.workload, "runs": args.repeat,
            "seeds": [args.seed, args.seed + args.repeat - 1],
            "seconds": args.seconds, "trace": args.trace,
            "provenance": runs[0][0]["provenance"],
            "failed": sum(c.failed for _, c, _ in runs),
            "metrics": table}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N times at consecutive seeds; print each "
                         "metric's median and quartiles")
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    try:
        driver = build_driver()
        if args.repeat > 0:
            print(json.dumps(repeat(driver, args)))
            return 0
        record, checks, metrics = run_once(driver, args.workload, args.seed,
                                           args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    attempted = checks.attempted + units_of_work(record)
    print(json.dumps(summary_line(record, checks, metrics)))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
