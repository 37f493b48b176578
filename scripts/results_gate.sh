#!/usr/bin/env bash
# Results gate (study leg): run every registered study at committed scale
# as one `study_tool --suite` job graph and require each CSV it writes to
# be byte-identical to the committed copy under results/. A study without
# a committed CSV fails the gate too.
# Usage: results_gate.sh <study_tool-binary> <scratch-dir> [results-dir]
set -euo pipefail

tool=$(realpath "$1")
scratch=$2
results=$(realpath "${3:-$(dirname "$0")/../results}")

rm -rf "$scratch"
mkdir -p "$scratch"
cd "$scratch"

"$tool" --suite >suite.log 2>&1

studies=$("$tool" --list | wc -l)
written=0
failed=0
for csv in *.csv; do
  written=$((written + 1))
  if [ ! -f "$results/$csv" ]; then
    echo "results gate FAILED: $csv has no committed copy in $results" >&2
    failed=1
  elif ! cmp "$csv" "$results/$csv"; then
    echo "results gate FAILED: $csv differs from $results/$csv" >&2
    failed=1
  fi
done
if [ "$written" -ne "$studies" ]; then
  echo "results gate FAILED: $studies studies registered, $written CSVs" \
       "written" >&2
  failed=1
fi
[ "$failed" -eq 0 ]
echo "results gate OK: $written study CSVs byte-identical to $results"
