#!/usr/bin/env bash
# Observability overlay smoke: prove every overlay is observation-only and
# that its artifacts are reproducible across execution modes. Legs:
#   (a) a quick study suite four times -- plain and with every overlay on
#       (--trace-out --manifest-out --progress --flight-out --series-out)
#       at 1 and N threads -- and require
#         - every CSV byte-identical across all four legs,
#         - the trace's span count equal to the scheduler report's job
#           count, a manifest registry snapshot with nonzero probe and
#           collision counters, and a nonempty sweep list with seeds,
#         - a progress line on stderr of the overlay legs,
#         - the flight report and series CSV byte-identical between the
#           1- and N-thread overlay legs (deterministic hash sampling),
#           with sampled events and attribution rows whose three
#           categories sum exactly to discards,
#   (b) kernel_bench --quick --verify, whose event-skip conformance loop
#       asserts the per-slot and event-skip steppers render bit-identical
#       SlotSeries rows (and that captures perturb no metrics),
#   (c) a 4-worker distributed run merged with --flight-out/--series-out
#       at a sub-unity sample rate: the merged CSV, flight report, and
#       series CSV must equal the single-process run byte for byte,
# plus BENCH_JSON schema validation on every leg's log.
# Usage: overlay_smoke.sh <study_tool-binary> <kernel_bench-binary> <scratch-dir>.
set -euo pipefail

tool=$(realpath "$1")
kbench=$(realpath "$2")
scratch=$3
checker=$(realpath "$(dirname "$0")/check_bench_json.py")
study=ablation_window_size

rm -rf "$scratch"
mkdir -p "$scratch"
cd "$scratch"

run_leg() { # <leg-dir> [extra flags...]
  local leg=$1
  shift
  mkdir -p "$leg"
  (cd "$leg" && "$tool" --suite "$study" --quick "$@" \
      >run.log 2>stderr.log)
}

overlays=(--trace-out=trace.json --manifest-out=manifest.json --progress
          --flight-out=flight.json --series-out=series.csv)

echo "-- overlay smoke: plain legs (no overlays), threads 1 and N"
run_leg plain_t1 --threads=1
run_leg plain_tn --threads=0

echo "-- overlay smoke: overlay legs (${overlays[*]})"
run_leg obs_t1 --threads=1 "${overlays[@]}"
run_leg obs_tn --threads=0 "${overlays[@]}"

echo "-- overlay smoke: CSVs byte-identical across every leg"
csvs=$(cd plain_t1 && ls ./*.csv)
for csv in $csvs; do
  for leg in plain_tn obs_t1 obs_tn; do
    cmp "plain_t1/$csv" "$leg/$csv"
  done
done

echo "-- overlay smoke: flight/series artifacts thread-count invariant"
cmp obs_t1/flight.json obs_tn/flight.json
cmp obs_t1/series.csv obs_tn/series.csv

echo "-- overlay smoke: trace spans, manifest counters, flight report"
for leg in obs_t1 obs_tn; do
  python3 - "$leg" <<'EOF'
import json
import sys

leg = sys.argv[1]
with open("%s/trace.json" % leg) as f:
    trace = json.load(f)
with open("%s/manifest.json" % leg) as f:
    manifest = json.load(f)
with open("%s/flight.json" % leg) as f:
    report = json.load(f)

spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
jobs = manifest["scheduler_report"]["jobs"]
if len(spans) != jobs:
    sys.exit("%s: %d trace spans != %d scheduler jobs"
             % (leg, len(spans), jobs))

counters = manifest["registry"]["counters"]
for name in ("net.aggregate.probe_slots", "net.aggregate.collisions"):
    if counters.get(name, 0) <= 0:
        sys.exit("%s: counter %s missing or zero" % (leg, name))

if not manifest["sweeps"]:
    sys.exit("%s: manifest sweep list is empty" % leg)
for sweep in manifest["sweeps"]:
    if not sweep["seeds"]:
        sys.exit("%s: sweep %s has no derived seeds"
                 % (leg, sweep["name"]))

if report["format"] != "tcw-flight-report-v1":
    sys.exit("%s: unexpected flight report format %r"
             % (leg, report["format"]))
flight = report["flight"]
if not flight["segments"]:
    sys.exit("%s: flight report has no segments" % leg)
recorded = sum(s["recorded"] for s in flight["segments"])
if recorded == 0:
    sys.exit("%s: flight recorder captured no events" % leg)
rows = report["attribution"]
if not rows:
    sys.exit("%s: attribution table is empty" % leg)
for row in rows:
    total = (row["admission_starved"] + row["collision_killed"]
             + row["queue_expired"])
    if total != row["discards"]:
        sys.exit("%s: attribution categories sum %d != discards %d in %r"
                 % (leg, total, row["discards"], row["sweep"]))
print("%s: %d spans == %d jobs, %d sweeps, probes=%d collisions=%d, "
      "%d flight segments, %d events, %d attribution rows"
      % (leg, len(spans), jobs, len(manifest["sweeps"]),
         counters["net.aggregate.probe_slots"],
         counters["net.aggregate.collisions"], len(flight["segments"]),
         recorded, len(rows)))
EOF
done

echo "-- overlay smoke: progress line on stderr of the overlay legs"
for leg in obs_t1 obs_tn; do
  grep -q "progress:" "$leg/stderr.log" || {
    echo "overlay smoke FAILED: no progress line in $leg/stderr.log" >&2
    exit 1
  }
done

echo "-- overlay smoke: per-slot vs event-skip SlotSeries (kernel_bench --verify)"
"$kbench" --quick --verify --csv=kb_verify.csv >kb_verify.log 2>&1
grep -q "slot series" kb_verify.log

echo "-- overlay smoke: single-process reference with recorder (rate 0.25)"
"$tool" "$study" --quick --csv=single.csv --flight-out=single_flight.json \
    --series-out=single_series.csv --flight-sample-rate=0.25 \
    >single.log 2>&1

echo "-- overlay smoke: 4 concurrent workers + merge with recorder"
pids=()
for i in 0 1 2 3; do
  "$tool" --worker $i/4 --cache-dir=dist --quick "$study" \
      >"dist_w${i}.log" 2>&1 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
"$tool" --merge --cache-dir=dist --quick --csv=merged.csv \
    --flight-out=merged_flight.json --series-out=merged_series.csv \
    --flight-sample-rate=0.25 "$study" >merge.log 2>&1

echo "-- overlay smoke: merged artifacts byte-identical to single-process"
cmp single.csv merged.csv
cmp single_flight.json merged_flight.json
cmp single_series.csv merged_series.csv

echo "-- overlay smoke: BENCH_JSON schema (attribution sums) on every leg"
python3 "$checker" plain_t1/run.log plain_tn/run.log obs_t1/run.log \
    obs_tn/run.log single.log merge.log

echo "overlay smoke OK: CSVs byte-identical with every overlay on/off at" \
     "1/N threads, trace/manifest/flight artifacts consistent, per-slot ==" \
     "event-skip series, distributed merge reproduces the single-process" \
     "flight report byte for byte"
