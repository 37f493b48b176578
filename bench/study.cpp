#include "study.hpp"

#include <cstdio>
#include <memory>
#include <utility>

#include "exec/shard_cache.hpp"
#include "exec/shard_gate.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "study_dist.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "sim/rng.hpp"

namespace tcw::bench {

StudyContext::StudyContext(const StudySpec& spec,
                           const StudyCommonOptions& common,
                           exec::SweepScheduler& scheduler,
                           exec::ShardCache* cache)
    : spec_(spec), common_(common), scheduler_(scheduler), cache_(cache) {
  csv_path_ = common.csv.empty() ? spec.default_csv : common.csv;
}

net::ScheduledSweep StudyContext::sweep(
    const std::string& name, const net::SweepConfig& config,
    const std::function<core::ControlPolicy(double)>& make_policy,
    const std::vector<double>& grid,
    const std::optional<Prerequisite>& after) {
  const std::string full = spec_.name + "/" + name;
  net::SweepConfig cfg = config;
  if (common_.trace.log != nullptr && common_.trace_sweep == name) {
    cfg.trace_request = common_.trace;
  }
  // Kernel captures ride on the run's ObsSession when one is bound.
  // Worker mode never binds one (captures are local artifacts and a
  // partially-skipped sweep must not be reduced); the merge pass binds
  // its session so the captured job is re-executed locally and the
  // flight/series/attribution artifacts match a single-process run.
  if (obs_ != nullptr && obs_->wants_capture()) {
    cfg.capture_request.capture = obs_->make_capture(full, cfg.base_seed);
  }
  net::ScheduledSweep handle = net::run_sweep(
      {.config = cfg, .constraints = grid, .make_policy = make_policy},
      {.scheduler = &scheduler_, .name = full,
       .cache = net::SweepCacheBinding{
           cache_, after ? full + "|after=" + after->inputs : full, gate_},
       .after = after ? std::optional(after->sweep) : std::nullopt});
  if (obs_ != nullptr) obs_->track_sweep(full, handle);
  cached_shards_ += handle.cached_jobs();
  skipped_shards_ += handle.skipped_jobs();
  scheduled_shards_ +=
      handle.jobs() - handle.cached_jobs() - handle.skipped_jobs();
  return handle;
}

std::size_t StudyContext::job(const std::string& name,
                              std::vector<std::function<void()>> shards,
                              std::optional<std::size_t> after) {
  return scheduler_.add_sweep(spec_.name + "/" + name, std::move(shards),
                              after);
}

std::shared_ptr<GenericSweep> StudyContext::generic_sweep(
    const std::string& name, std::uint64_t base_seed,
    const std::string& config_text,
    std::vector<std::function<std::vector<double>()>> jobs) {
  const std::string full = spec_.name + "/" + name;
  auto sweep = std::make_shared<GenericSweep>();
  sweep->payloads_.resize(jobs.size());
  exec::ShardCache* cache = cache_;
  obs::ManifestCollector& manifest = obs::ManifestCollector::global();
  const std::uint64_t fp =
      cache != nullptr || manifest.enabled()
          ? exec::ShardCache::fingerprint("generic|tag=" + full + "|" +
                                          config_text)
          : 0;
  std::vector<std::function<void()>> shards;
  shards.reserve(jobs.size());
  exec::ShardGate* gate = cache != nullptr ? gate_ : nullptr;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const exec::ShardKey key{sim::derive_stream_seed(base_seed, i, 0), fp};
    if (cache != nullptr && cache->lookup(key, &sweep->payloads_[i])) {
      ++sweep->cached_;
      if (gate != nullptr) gate->observe(key, /*cached=*/true);
      continue;
    }
    if (gate != nullptr) {
      gate->observe(key, /*cached=*/false);
      if (!gate->admit(key)) {
        ++skipped;  // another worker owns this shard; slot stays empty
        continue;
      }
    }
    shards.push_back([sweep, cache, key, gate, run = std::move(jobs[i]), i] {
      sweep->payloads_[i] = run();
      if (cache != nullptr) cache->insert(key, sweep->payloads_[i]);
      if (gate != nullptr) gate->completed(key);
    });
  }
  cached_shards_ += sweep->cached_;
  scheduled_shards_ += shards.size();
  skipped_shards_ += skipped;
  if (manifest.enabled()) {
    obs::ManifestSweep entry;
    entry.name = full;
    entry.jobs = shards.size();
    entry.cached_jobs = sweep->cached_;
    entry.base_seed = base_seed;
    entry.config_fingerprint = fp;
    entry.seeds.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      entry.seeds.push_back(sim::derive_stream_seed(base_seed, i, 0));
    }
    manifest.add_sweep(std::move(entry));
  }
  scheduler_.add_sweep(full, std::move(shards));
  return sweep;
}

const std::vector<StudyEntry>& registry() {
  static const std::vector<StudyEntry> entries = make_all_studies();
  return entries;
}

const StudyEntry* find_study(const std::string& name) {
  for (const StudyEntry& e : registry()) {
    if (e.spec.name == name) return &e;
  }
  return nullptr;
}

std::string registry_markdown_table() {
  std::string out =
      "| bench | probes | default CSV |\n|---|---|---|\n";
  for (const StudyEntry& e : registry()) {
    out += "| `" + e.spec.name + "` | " + e.spec.figure + " | `" +
           e.spec.default_csv + "` |\n";
  }
  return out;
}

void register_common_flags(Flags& flags, StudyCommonOptions& o) {
  flags.add("threads", &o.threads,
            "sweep worker threads (0 = all hardware threads); results are "
            "bit-identical for any value");
  flags.add("quick", &o.quick, "shrink run length for smoke testing");
  flags.add("csv", &o.csv, "CSV output path");
  flags.add("cache-dir", &o.cache_dir,
            "shard store directory; caches every completed shard so an "
            "interrupted study can be resumed");
  flags.add("resume", &o.resume,
            "reuse the study's existing shard store: cached shards are "
            "skipped and the CSV is byte-identical to an uninterrupted run");
  register_obs_flags(flags, o.obs);
}

bool parse_engine_flag(const std::string& value, net::EngineKind* out) {
  if (value.empty() || net::engine_kind_from_string(value, out)) return true;
  std::fprintf(stderr, "unknown engine '%s' (valid: %s)\n", value.c_str(),
               net::engine_kind_names().c_str());
  return false;
}

bool parse_selector_flag(const std::string& value,
                         net::ChannelSelectorKind* out) {
  if (value.empty() || net::channel_selector_from_string(value, out)) {
    return true;
  }
  std::fprintf(stderr, "unknown channel selector '%s' (valid: %s)\n",
               value.c_str(), net::channel_selector_names().c_str());
  return false;
}

std::string study_store_path(const std::string& cache_dir,
                             const std::string& study) {
  return cache_dir + "/" + study + ".shards";
}

void print_cache_report(const std::string& study, const StudyContext& ctx) {
  const exec::ShardCache* cache = ctx.cache();
  if (cache == nullptr) return;
  std::printf("shard cache: %s: %zu shard(s) served from the store, %zu "
              "executed (store now holds %zu, loaded %zu%s)\n",
              cache->path().c_str(), ctx.cached_shards(),
              ctx.scheduled_shards(), cache->entries(), cache->loaded(),
              cache->recovered_corruption() ? "; recovered corrupt tail"
                                            : "");
  std::printf("BENCH_JSON {\"suite\":%s,\"cache\":{\"path\":%s,"
              "\"cached_shards\":%zu,\"executed_shards\":%zu,"
              "\"store_entries\":%zu,\"loaded\":%zu,"
              "\"recovered_corruption\":%s}}\n",
              obs::json_quote(study).c_str(),
              obs::json_quote(cache->path()).c_str(), ctx.cached_shards(),
              ctx.scheduled_shards(), cache->entries(), cache->loaded(),
              cache->recovered_corruption() ? "true" : "false");
  obs::ManifestCollector& manifest = obs::ManifestCollector::global();
  if (manifest.enabled()) {
    obs::ManifestCacheStats stats;
    stats.suite = study;
    stats.path = cache->path();
    stats.cached_shards = ctx.cached_shards();
    stats.executed_shards = ctx.scheduled_shards();
    stats.entries = cache->entries();
    stats.loaded = cache->loaded();
    stats.recovered_corruption = cache->recovered_corruption();
    manifest.add_cache(std::move(stats));
  }
}

exec::SchedulerReport run_scheduler_with_report(
    exec::SweepScheduler& scheduler, const std::string& suite) {
  exec::SchedulerReport report = scheduler.run();
  std::printf("== consolidated sweep scheduler report ==\n");
  std::printf("threads=%u jobs=%zu wall=%.3fs jobs_per_sec=%.2f "
              "worker_utilization=%.2f\n",
              report.threads, report.shards, report.wall_seconds,
              report.shards_per_second, report.worker_utilization);
  for (const exec::SweepTimingEntry& s : report.sweeps) {
    std::printf("  %-28s jobs=%3zu wall=%7.3fs busy=%7.3fs "
                "jobs_per_sec=%.2f\n",
                s.name.c_str(), s.shards, s.wall_seconds, s.busy_seconds,
                s.shards_per_second);
  }
  std::printf("BENCH_JSON %s\n", report.bench_json(suite).c_str());
  return report;
}

namespace {

std::unique_ptr<exec::ShardCache> open_cache(const StudyCommonOptions& o,
                                             const std::string& study) {
  if (o.cache_dir.empty()) return nullptr;
  return std::make_unique<exec::ShardCache>(
      study_store_path(o.cache_dir, study),
      o.resume ? exec::ShardCache::Mode::Resume
               : exec::ShardCache::Mode::Fresh);
}

int run_configured(const StudyEntry& entry, Study& study,
                   const StudyCommonOptions& common) {
  ObsSession obs(entry.spec.name, common.obs);
  exec::ThreadPool pool(
      exec::resolve_threads(static_cast<int>(common.threads)));
  exec::SweepScheduler scheduler(pool);
  obs.attach(scheduler);
  const std::unique_ptr<exec::ShardCache> cache =
      open_cache(common, entry.spec.name);
  StudyContext ctx(entry.spec, common, scheduler, cache.get());
  ctx.set_obs(&obs);
  study.schedule(ctx);
  const exec::SchedulerReport report =
      run_scheduler_with_report(scheduler, entry.spec.name);
  print_cache_report(entry.spec.name, ctx);
  int rc = study.render(ctx);
  rc |= obs.finish(&report);
  return rc;
}

// `study_tool <study> [flags...]`: parse the study's own flags plus the
// common ones, then run it on its own scheduler.
int run_study_main(const std::string& name, int argc,
                   const char* const* argv) {
  const StudyEntry* entry = find_study(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown study: %s\n", name.c_str());
    return 1;
  }
  const std::unique_ptr<Study> study = entry->make();
  StudyCommonOptions common;
  common.csv = entry->spec.default_csv;
  Flags flags(name, entry->spec.summary);
  study->register_flags(flags);
  register_common_flags(flags, common);
  if (!flags.parse(argc, argv)) return 1;
  return run_configured(*entry, *study, common);
}

}  // namespace

int run_study(const std::string& name, const StudyCommonOptions& common,
              const std::vector<std::string>& extra_argv) {
  const StudyEntry* entry = find_study(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown study: %s\n", name.c_str());
    return 1;
  }
  const std::unique_ptr<Study> study = entry->make();
  StudyCommonOptions resolved = common;
  if (resolved.csv.empty()) resolved.csv = entry->spec.default_csv;
  if (!extra_argv.empty()) {
    Flags flags(name, entry->spec.summary);
    study->register_flags(flags);
    std::vector<const char*> argv{name.c_str()};
    for (const std::string& a : extra_argv) argv.push_back(a.c_str());
    if (!flags.parse(static_cast<int>(argv.size()), argv.data())) return 1;
  }
  return run_configured(*entry, *study, resolved);
}

int run_study_suite(const StudyCommonOptions& common,
                    const std::vector<std::string>& names) {
  std::vector<const StudyEntry*> entries;
  if (names.empty()) {
    for (const StudyEntry& e : registry()) entries.push_back(&e);
  } else {
    for (const std::string& n : names) {
      const StudyEntry* e = find_study(n);
      if (e == nullptr) {
        std::fprintf(stderr, "unknown study: %s\n", n.c_str());
        return 1;
      }
      entries.push_back(e);
    }
  }

  ObsSession obs("study_suite", common.obs);
  exec::ThreadPool pool(
      exec::resolve_threads(static_cast<int>(common.threads)));
  exec::SweepScheduler scheduler(pool);
  obs.attach(scheduler);
  std::printf("== study suite: %zu studies as one job graph on %zu "
              "worker(s) ==\n\n",
              entries.size(), pool.size());

  std::vector<std::unique_ptr<Study>> studies;
  std::vector<std::unique_ptr<exec::ShardCache>> caches;
  std::vector<std::unique_ptr<StudyContext>> contexts;
  // Suite-wide --csv would make every study write the same file; studies
  // keep their per-study defaults instead.
  StudyCommonOptions per_study = common;
  per_study.csv.clear();
  for (const StudyEntry* e : entries) {
    studies.push_back(e->make());
    caches.push_back(open_cache(per_study, e->spec.name));
    contexts.push_back(std::make_unique<StudyContext>(
        e->spec, per_study, scheduler, caches.back().get()));
    contexts.back()->set_obs(&obs);
    studies.back()->schedule(*contexts.back());
  }

  const exec::SchedulerReport report =
      run_scheduler_with_report(scheduler, "study_suite");

  int rc = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    print_cache_report(entries[i]->spec.name, *contexts[i]);
    rc |= studies[i]->render(*contexts[i]);
  }
  rc |= obs.finish(&report);
  return rc;
}

int study_tool_main(int argc, const char* const* argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "--list") {
    for (const StudyEntry& e : registry()) {
      std::printf("%-26s %s\n", e.spec.name.c_str(),
                  e.spec.summary.c_str());
    }
    return 0;
  }
  if (mode == "--markdown") {
    std::printf("%s", registry_markdown_table().c_str());
    return 0;
  }
  if (mode == "--suite") {
    StudyCommonOptions common;
    Flags flags("study_tool --suite",
                "Run registered studies as one scheduled job graph "
                "(positional args select studies; default: all)");
    register_common_flags(flags, common);
    if (!flags.parse(argc - 1, argv + 1)) return 1;
    return run_study_suite(common, flags.positional());
  }
  if (mode == "--worker" || mode == "--drain" || mode == "--merge") {
    return study_dist_main(argc, argv);
  }
  if (!mode.empty() && mode.rfind("--", 0) != 0) {
    // study_tool <study> [study flags...]
    std::vector<const char*> fwd{argv[0]};
    for (int i = 2; i < argc; ++i) fwd.push_back(argv[i]);
    return run_study_main(mode, static_cast<int>(fwd.size()), fwd.data());
  }
  std::printf(
      "usage: study_tool --list | --markdown | --suite [flags] [studies] "
      "| <study> [flags]\n"
      "       study_tool --worker N/M --cache-dir DIR [flags] [studies]\n"
      "       study_tool --drain --cache-dir DIR [flags] [studies]\n"
      "       study_tool --merge --cache-dir DIR [flags] [studies]\n\n"
      "registered studies:\n");
  for (const StudyEntry& e : registry()) {
    std::printf("  %-24s %s\n", e.spec.name.c_str(), e.spec.summary.c_str());
  }
  return mode == "--help" || mode.empty() ? 0 : 1;
}

}  // namespace tcw::bench
