#!/usr/bin/env bash
# Study smoke: for each named study, at --quick scale,
#   (a) run it standalone with a shard store and inside a
#       `study_tool --suite` run, and require the two CSVs byte-identical
#       (the standalone-vs-suite determinism contract: seed folding keeps
#       every kernel's random streams independent of suite composition),
#   (b) truncate the shard store to half (an interrupted run), resume,
#       and require the resumed CSV byte-identical to the standalone one
#       with a cached-shard count > 0 in the resume leg's BENCH_JSON.
# Legs land in <scratch-dir>/<study>/{standalone,suite,resume}.log.
# Usage: study_smoke.sh <study_tool-binary> <scratch-dir> <study>...
set -euo pipefail

tool=$(realpath "$1")
scratch=$2
shift 2

rm -rf "$scratch"
mkdir -p "$scratch"
cd "$scratch"

for study in "$@"; do
  mkdir -p "$study/suite"
  cd "$study"

  echo "-- study smoke [$study]: standalone run with a shard store"
  "$tool" "$study" --quick --cache-dir=cache --csv=standalone.csv \
      >standalone.log 2>&1

  echo "-- study smoke [$study]: inside a --suite run"
  (cd suite && "$tool" --suite --quick "$study" >../suite.log 2>&1)
  cmp standalone.csv "suite/$study.csv"

  store="cache/$study.shards"
  size=$(wc -c <"$store")
  echo "-- study smoke [$study]: truncating the store" \
       "($size -> $((size / 2)) bytes), resuming"
  truncate -s $((size / 2)) "$store"
  "$tool" "$study" --quick --cache-dir=cache --resume --csv=resume.csv \
      >resume.log 2>&1
  cmp standalone.csv resume.csv

  cached=$(sed -n 's/.*"cached_shards":\([0-9]*\).*/\1/p' resume.log)
  if [ -z "$cached" ] || [ "$cached" -eq 0 ]; then
    echo "study smoke FAILED [$study]: no cached shards on the resume" \
         "leg" >&2
    grep BENCH_JSON resume.log >&2 || true
    exit 1
  fi
  echo "study smoke [$study] OK: standalone, suite and resumed CSVs" \
       "byte-identical; $cached shard(s) served from the store"
  cd ..
done
