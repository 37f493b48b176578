#!/usr/bin/env bash
# Results gate: regenerate the committed results/*.csv at committed scale
# and require each to be byte-identical to its committed copy. Legs:
#   - suite: every registered study as one `study_tool --suite` job graph;
#   - fig7: all six Figure-7 panels as one `fig7_all` job graph;
#   - model_validation: the eq. 4.7 limits and fixpoint diagnostics;
#   - smdp_cost: the SMDP cost sweep, with its wall-clock build_ms and
#     solve_ms columns masked on both sides before the cmp.
# A CSV a leg writes without a committed copy fails the gate, and so does
# a committed CSV no leg writes.
# Usage: results_gate.sh <bench-binary-dir> <scratch-dir> [results-dir]
set -euo pipefail

bench=$(realpath "$1")
scratch=$2
results=$(realpath "${3:-$(dirname "$0")/../results}")

rm -rf "$scratch"
mkdir -p "$scratch"/suite "$scratch"/fig7 "$scratch"/single
cd "$scratch"

failed=0
fail() {
  echo "results gate FAILED: $*" >&2
  failed=1
}

# Columns 4 and 5 of smdp_cost.csv are build_ms and solve_ms.
mask_timings() {
  awk -F, 'BEGIN { OFS = "," } NR > 1 { $4 = "-"; $5 = "-" } { print }' "$1"
}

check() {  # check <written-csv>
  local csv=$1 name
  name=$(basename "$csv")
  checked+=" $name"
  if [ ! -f "$results/$name" ]; then
    fail "$name has no committed copy in $results"
  elif [ "$name" = smdp_cost.csv ]; then
    cmp <(mask_timings "$csv") <(mask_timings "$results/$name") \
      || fail "$name differs from $results/$name outside build_ms/solve_ms"
  elif ! cmp "$csv" "$results/$name"; then
    fail "$name differs from $results/$name"
  fi
}

(cd suite && "$bench/study_tool" --suite >suite.log 2>&1)
studies=$("$bench/study_tool" --list | wc -l)
(cd fig7 && "$bench/fig7_all" --csv-dir . >fig7_all.log 2>&1)
(cd single && "$bench/model_validation" >model_validation.log 2>&1)
(cd single && "$bench/smdp_cost" >smdp_cost.log 2>&1)

checked=""
written=$(ls suite/*.csv | wc -l)
[ "$written" -eq "$studies" ] \
  || fail "$studies studies registered, $written CSVs written"
for csv in suite/*.csv fig7/*.csv single/*.csv; do check "$csv"; done

for committed in "$results"/*.csv; do
  name=$(basename "$committed")
  case " $checked " in
    *" $name "*) ;;
    *) fail "$name is committed but no leg writes it" ;;
  esac
done

[ "$failed" -eq 0 ]
echo "results gate OK:$checked byte-identical to $results"
