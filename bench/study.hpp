// Declarative study registry: every ablation/extension bench is a Study
// -- named sweeps, grids, policy factories, a CSV schema -- driven by one
// generic runner instead of a hand-rolled main() per binary.
//
// A study's life cycle has three phases, all orchestrated by the runner
// behind `study_tool <study>` and `study_tool --suite`:
//   1. register_flags(): declare the study-specific overrides (the runner
//      registers the common ones: --threads, --quick, --csv, --cache-dir,
//      --resume).
//   2. schedule(): enqueue every sweep on the shared
//      exec::SweepScheduler via the StudyContext helpers, which also bind
//      each sweep to the study's exec::ShardCache shard store when
//      --cache-dir is given -- shards already in the store are decoded
//      into their result slots and never scheduled, making long studies
//      resumable (--resume) with byte-identical CSVs.
//   3. render(): after the scheduler ran, print tables and write the CSV.
//
// study_tool is the one driver: `study_tool <study>` runs one study on
// its own scheduler, and --suite schedules every selected study on ONE
// scheduler/pool, with byte-identical CSVs either way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/experiment.hpp"
#include "obs_support.hpp"
#include "util/flags.hpp"

namespace tcw::exec {
class ShardCache;
class ShardGate;
class SweepScheduler;
struct SchedulerReport;
}  // namespace tcw::exec

namespace tcw::bench {

/// Static description of one registered study.
struct StudySpec {
  std::string name;         ///< registry key == `study_tool <name>`
  std::string summary;      ///< one line, for --list / flags / README
  std::string figure;       ///< the paper claim it probes (README table)
  std::string default_csv;  ///< default CSV output path
};

/// Options the runner owns and every study shares. `trace`/`trace_sweep`
/// have no flag spelling; embedding callers (tests) use them to attach a
/// sim::TraceLog to one named sweep, carried whole as a
/// SweepConfig::TraceRequest.
struct StudyCommonOptions {
  long long threads = 0;  ///< sweep workers; 0 = all hardware threads
  bool quick = false;     ///< shrink run lengths for smoke testing
  std::string csv;        ///< "" = the study's spec().default_csv
  std::string cache_dir;  ///< "" = shard caching disabled
  bool resume = false;    ///< reuse an existing shard store
  net::SweepConfig::TraceRequest trace;
  std::string trace_sweep;  ///< sweep name `trace` targets
  ObsOptions obs;           ///< --trace-out / --manifest-out / --progress
};

/// Result slots of one generic (non-loss-curve) cached sweep: job i's
/// closure returns a payload vector that lands in slot i, either by
/// running or straight from the shard store. Read payloads only after the
/// scheduler's run() returned.
class GenericSweep {
 public:
  std::size_t jobs() const { return payloads_.size(); }
  const std::vector<double>& payload(std::size_t job) const {
    return payloads_[job];
  }
  std::size_t cached_jobs() const { return cached_; }

 private:
  friend class StudyContext;
  std::vector<std::vector<double>> payloads_;
  std::size_t cached_ = 0;
};

/// The scheduling surface handed to Study::schedule(): wraps the shared
/// scheduler plus the study's cache binding and counts cached vs
/// scheduled shards for the runner's consolidated cache report.
class StudyContext {
 public:
  StudyContext(const StudySpec& spec, const StudyCommonOptions& common,
               exec::SweepScheduler& scheduler, exec::ShardCache* cache);

  bool quick() const { return common_.quick; }
  long long threads() const { return common_.threads; }
  const StudyCommonOptions& common() const { return common_; }
  /// The CSV path this run writes: --csv if given, else the default.
  const std::string& csv_path() const { return csv_path_; }
  exec::SweepScheduler& scheduler() { return scheduler_; }
  exec::ShardCache* cache() const { return cache_; }

  /// Enqueue one cached loss-curve sweep as "<study>/<name>"; `name` also
  /// tags its shards in the store, so it must be stable across runs and
  /// unique within the study. Applies the embedding caller's trace
  /// request when `name` matches.
  net::ScheduledSweep sweep(
      const std::string& name, const net::SweepConfig& config,
      const std::function<core::ControlPolicy(double)>& make_policy,
      const std::vector<double>& grid);

  /// Enqueue one cached generic sweep: job i runs `jobs[i]` and stores
  /// the returned payload in slot i. Shard keys derive from
  /// (base_seed, i); `config_text` is the canonical description folded
  /// into the fingerprint (include a payload version and every
  /// result-affecting parameter).
  std::shared_ptr<GenericSweep> generic_sweep(
      const std::string& name, std::uint64_t base_seed,
      const std::string& config_text,
      std::vector<std::function<std::vector<double>()>> jobs);

  /// Bind a work-claim gate (distributed execution): every cacheable
  /// shard of subsequently declared sweeps is offered to `gate`; declined
  /// shards are skipped (slots left empty), so a context with
  /// skipped_shards() > 0 must not render. Only effective with a cache.
  /// Borrowed; must outlive schedule(). Call before Study::schedule().
  void set_gate(exec::ShardGate* gate) { gate_ = gate; }
  exec::ShardGate* gate() const { return gate_; }

  /// Bind the run's ObsSession so every declared loss-curve sweep gets a
  /// kernel capture (under --flight-out / --series-out) and is tracked
  /// for the deadline-loss attribution report. Ignored in gated (worker)
  /// mode: captures are local artifacts; the merge pass re-captures.
  /// Borrowed; must outlive render(). Call before Study::schedule().
  void set_obs(ObsSession* obs) { obs_ = obs; }

  /// Shards served from the store / actually enqueued / declined by the
  /// gate, summed over every sweep this context declared.
  std::size_t cached_shards() const { return cached_shards_; }
  std::size_t scheduled_shards() const { return scheduled_shards_; }
  std::size_t skipped_shards() const { return skipped_shards_; }

 private:
  const StudySpec& spec_;
  const StudyCommonOptions& common_;
  exec::SweepScheduler& scheduler_;
  exec::ShardCache* cache_;
  exec::ShardGate* gate_ = nullptr;
  ObsSession* obs_ = nullptr;
  std::string csv_path_;
  std::size_t cached_shards_ = 0;
  std::size_t scheduled_shards_ = 0;
  std::size_t skipped_shards_ = 0;
};

/// One registered study. Implementations live in bench/studies.cpp and
/// hold their flag-bound parameters plus the sweep handles between
/// schedule() and render().
class Study {
 public:
  virtual ~Study() = default;

  /// Study-specific flags (the runner adds the common ones).
  virtual void register_flags(Flags& flags) = 0;
  /// Enqueue every sweep; runs before the scheduler. Print the banner
  /// here so it precedes the scheduler report.
  virtual void schedule(StudyContext& ctx) = 0;
  /// Print tables and write csv_path(); runs after the scheduler.
  /// Returns the process exit code contribution (0 = ok).
  virtual int render(StudyContext& ctx) = 0;
};

/// Registry entry: the spec is inspectable without instantiating the
/// study; make() builds a fresh instance per run (studies are stateful).
struct StudyEntry {
  StudySpec spec;
  std::function<std::unique_ptr<Study>()> make;
};

/// The registered studies, in README-table order. Populated by an
/// explicit call into bench/studies.cpp (no static self-registration:
/// object files in a static library may be dropped).
const std::vector<StudyEntry>& registry();

/// nullptr when `name` is not registered.
const StudyEntry* find_study(const std::string& name);

/// Defined in bench/studies.cpp: builds the entry list registry() serves.
std::vector<StudyEntry> make_all_studies();

/// The README bench-table rows (markdown), regenerated from the registry.
std::string registry_markdown_table();

/// Register the common runner flags (--threads, --quick, --csv,
/// --cache-dir, --resume, observability) on `flags`, bound to `options`.
/// For drivers that embed the runner (e.g. the distributed worker mode).
void register_common_flags(Flags& flags, StudyCommonOptions& options);

/// Parse a --engine flag value through the case-insensitive
/// net::engine_kind_from_string; empty input leaves `*out` untouched and
/// succeeds (flag not given). On failure prints the valid names
/// (net::engine_kind_names()) to stderr and returns false. Shared by
/// every study that takes an engine spelling so the error text is
/// uniform.
bool parse_engine_flag(const std::string& value, net::EngineKind* out);

/// Channel-selector counterpart (net::channel_selector_from_string /
/// net::channel_selector_names()).
bool parse_selector_flag(const std::string& value,
                         net::ChannelSelectorKind* out);

/// The shard-store path the runner opens for `study` under `cache_dir`:
/// `<cache_dir>/<study>.shards`.
std::string study_store_path(const std::string& cache_dir,
                             const std::string& study);

/// Print the per-study cache report (human line + BENCH_JSON cache
/// record) and feed the manifest collector. No-op without a cache.
void print_cache_report(const std::string& study, const StudyContext& ctx);

/// Embedding variant (tests): run one study with pre-resolved options,
/// no flag parsing. `extra_argv` is forwarded to the study's own flags.
int run_study(const std::string& name, const StudyCommonOptions& common,
              const std::vector<std::string>& extra_argv = {});

/// Schedule every study in `names` (empty = all) on ONE scheduler, run,
/// render each. The runner behind `study_tool --suite`.
int run_study_suite(const StudyCommonOptions& common,
                    const std::vector<std::string>& names = {});

/// Run a populated scheduler and print the consolidated per-sweep timing
/// report plus the `BENCH_JSON {"suite":"<suite>",...}` line. The shared
/// reporting tail of every scheduled driver (study_tool, fig7_all,
/// ablation_discard, model_validation).
exec::SchedulerReport run_scheduler_with_report(
    exec::SweepScheduler& scheduler, const std::string& suite);

/// The study_tool main() body: --list | --markdown | --suite | <study>.
int study_tool_main(int argc, const char* const* argv);

}  // namespace tcw::bench
