#!/usr/bin/env bash
# Tier-1 verification: full -Werror build + full test suite, then
# end-to-end smokes:
#   - fig7_all --quick, the whole Figure-7 job graph;
#   - kernel_bench --verify, bit-comparing the fast per-slot kernels
#     against their retained reference paths;
#   - results_gate.sh: `study_tool --suite`, `fig7_all`, `model_validation`
#     and `smdp_cost` at committed scale must write every committed CSV
#     byte-identical to results/ (smdp_cost's wall-clock columns masked);
#   - study_smoke.sh over ablation_window_size, ablation_adaptive_width
#     (whose adaptive arms are gated on the SMDP solve job),
#     ablation_discard (two arms on common random numbers), policy_grid,
#     large_n and multichannel: standalone vs --suite, and truncated-store
#     resume, must write byte-identical CSVs;
#   - overlay_smoke.sh: every observability overlay (trace, manifest,
#     progress, flight recorder, slot series) on/off at 1 and N threads
#     leaves every CSV byte-identical, its artifacts are consistent and
#     thread-count invariant, and a distributed merge reproduces the
#     single-process flight report byte for byte;
#   - dist_smoke.sh: multi-process workers over a shared shard store;
#     merged CSVs must be byte-identical to single-process, including
#     after a SIGKILLed worker;
# a BENCH_JSON schema check over the smoke logs, the concurrency and
# kernel tests (including the SMDP kernel estimated in independent blocks
# of (state, width) pairs on several threads, the LCFS curve on four
# threads at once, and both kernels' golden tables) rebuilt and re-run
# under ThreadSanitizer, and the
# numeric-kernel tests (SMDP kernel estimation, samplers, analytic golden
# tables, M/G/1 and its run-compressed renewal kernel against the dense
# oracle, the busy-period kernel, the loss-model fixpoint, the analytic
# contracts on K and ProtocolModelConfig), the finite-station kernel
# tests (network, its golden table, multichannel, event-skip, fast path)
# and the aggregate kernel's golden table rebuilt and re-run under
# AddressSanitizer + UBSan. Both sanitizer trees build with -Werror, as
# the main tree does. Kernel speed is measured by perfbench (see
# BENCHMARK.json), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full test suite =="
cmake -B build -S . -DTCW_WERROR=ON >/dev/null
cmake --build build -j
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build/CMakeCache.txt)
case "${build_type:-}" in
  Release|RelWithDebInfo) ;;
  *)
    echo "WARNING: CMAKE_BUILD_TYPE='${build_type:-<unset>}' -- benches" \
         "are unoptimized; do not quote kernel_bench numbers from this" \
         "build (use Release or RelWithDebInfo)." >&2
    ;;
esac
(cd build && ctest --output-on-failure -j)

echo "== tier-1: fig7_all suite smoke =="
cmake --build build --target suite_smoke

echo "== tier-1: kernel fast-path vs reference smoke =="
cmake --build build --target kernel_verify_smoke

echo "== tier-1: results gate (suite, fig7, model_validation, smdp_cost vs results/, cmp) =="
scripts/results_gate.sh build/bench build/bench/results_gate

echo "== tier-1: study smoke (standalone vs --suite vs resume, cmp) =="
scripts/study_smoke.sh build/bench/study_tool build/bench/study_smoke \
    ablation_window_size ablation_adaptive_width ablation_discard \
    policy_grid large_n multichannel

echo "== tier-1: observability overlay smoke (CSV bit-equality, artifacts) =="
scripts/overlay_smoke.sh build/bench/study_tool build/bench/kernel_bench \
    build/bench/overlay_smoke

echo "== tier-1: distributed worker/merge smoke (byte-identical CSVs, crash-restart) =="
scripts/dist_smoke.sh build/bench/study_tool build/bench/dist_smoke

echo "== tier-1: BENCH_JSON schema check over the smoke logs =="
python3 scripts/check_bench_json.py \
    build/bench/study_smoke/*/*.log \
    build/bench/overlay_smoke/*.log build/bench/overlay_smoke/*/*.log \
    build/bench/dist_smoke/*.log

echo "== tier-1: concurrency + kernel tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DTCW_SANITIZE=thread -DTCW_WERROR=ON >/dev/null
cmake --build build-tsan -j --target test_thread_pool \
    test_sweep_determinism test_sweep_scheduler test_flat_deque \
    test_kernel_fastpath test_event_skip test_protocol_engines \
    test_multichannel test_shard_cache test_study test_obs test_dist_exec \
    test_flight_recorder test_slot_series test_network_golden \
    test_aggregate_golden test_window_model_golden test_busy_period
(cd build-tsan && ctest --output-on-failure \
    -R 'ThreadPool|ParallelFor|ResolveThreads|SweepDeterminism|SweepTiming|SweepScheduler|SweepTrace|FlatDeque|NetworkKernel|AggregateKernel|KernelWarmupEdge|EventSkip|ProtocolEngine|MultiChannel|PolicyGrid|ShardCache|StudyCache|StudyRunner|StudyRegistry|StudyTrace|Obs|DistLease|DistGate|SharedStore|DistExec|FlightRecorder|SlotSeries|BoundedRing|TraceLog|NetworkGolden|AggregateGolden|WindowModelPass|LcfsConcurrent')
echo "== tier-1: numeric + network kernel tests under AddressSanitizer + UBSan =="
asan_tests="test_window_model test_window_model_golden test_smdp \
    test_sampling test_analytic_golden test_mg1 test_busy_period \
    test_loss_model test_contract test_network \
    test_network_golden test_aggregate_golden test_multichannel \
    test_event_skip test_kernel_fastpath"
cmake -B build-asan -S . -DTCW_SANITIZE=address,undefined -DTCW_WERROR=ON \
    >/dev/null
cmake --build build-asan -j --target $asan_tests
for t in $asan_tests; do
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 "build-asan/tests/$t"
done
echo "tier-1 OK"
