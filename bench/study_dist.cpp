#include "study_dist.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "exec/dist_gate.hpp"
#include "exec/dist_lease.hpp"
#include "exec/shard_cache.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"

namespace tcw::bench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string leases_dir(const std::string& cache_dir) {
  return cache_dir + "/leases";
}

/// Resolve study names to registry entries; empty = every study.
bool resolve_entries(const std::vector<std::string>& names,
                     std::vector<const StudyEntry*>* out) {
  if (names.empty()) {
    for (const StudyEntry& e : registry()) out->push_back(&e);
    return true;
  }
  for (const std::string& n : names) {
    const StudyEntry* e = find_study(n);
    if (e == nullptr) {
      std::fprintf(stderr, "unknown study: %s\n", n.c_str());
      return false;
    }
    out->push_back(e);
  }
  return true;
}

/// Fresh study instance with `extra_argv` applied to its own flags (the
/// embedding-test hook; the CLI dist modes pass none).
std::unique_ptr<Study> make_configured_study(
    const StudyEntry& entry, const std::vector<std::string>& extra_argv,
    bool* ok) {
  std::unique_ptr<Study> study = entry.make();
  if (!extra_argv.empty()) {
    Flags flags(entry.spec.name, entry.spec.summary);
    study->register_flags(flags);
    std::vector<const char*> argv{entry.spec.name.c_str()};
    for (const std::string& a : extra_argv) argv.push_back(a.c_str());
    if (!flags.parse(static_cast<int>(argv.size()), argv.data())) {
      *ok = false;
    }
  }
  return study;
}

/// Background thread feeding the global-universe progress row: rescans
/// every study's shared cache and recounts which universe keys are now
/// present (i.e. finished by ANY worker, not just this one).
class ClusterProgressPoller {
 public:
  struct Target {
    exec::ShardCache* cache = nullptr;
    const std::vector<exec::ShardKey>* universe = nullptr;
  };

  ClusterProgressPoller(std::vector<Target> targets,
                        std::atomic<std::size_t>* done)
      : targets_(std::move(targets)), done_(done) {
    done_->store(count(), std::memory_order_relaxed);
    thread_ = std::thread([this] { run(); });
  }

  ~ClusterProgressPoller() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::size_t count() {
    std::size_t n = 0;
    for (const Target& t : targets_) {
      t.cache->rescan();
      for (const exec::ShardKey& key : *t.universe) {
        if (t.cache->contains(key)) ++n;
      }
    }
    return n;
  }

  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(500),
                       [this] { return stopped_; })) {
        return;
      }
      lock.unlock();
      done_->store(count(), std::memory_order_relaxed);
      lock.lock();
    }
  }

  std::vector<Target> targets_;
  std::atomic<std::size_t>* done_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

std::string default_worker_id(const DistOptions& dist) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "w%uof%u-%ld", dist.index, dist.total,
                static_cast<long>(::getpid()));
  return buf;
}

bool parse_worker_spec(const std::string& spec, unsigned* index,
                       unsigned* total) {
  unsigned n = 0;
  unsigned m = 0;
  char extra = 0;
  if (std::sscanf(spec.c_str(), "%u/%u%c", &n, &m, &extra) != 2) return false;
  if (m == 0 || n >= m) return false;
  *index = n;
  *total = m;
  return true;
}

/// This worker's contribution to the global metrics registry: the
/// per-counter DELTA between the registry now and `baseline` (counters
/// are process-cumulative; other runs in this process must not leak into
/// the sidecar). Zero deltas are dropped so sidecars stay small.
std::map<std::string, std::uint64_t> registry_delta(
    const obs::RegistrySnapshot& baseline) {
  std::map<std::string, std::uint64_t> base;
  for (const obs::CounterSnapshot& c : baseline.counters) {
    base[c.name] = c.value;
  }
  std::map<std::string, std::uint64_t> delta;
  for (const obs::CounterSnapshot& c :
       obs::Registry::global().snapshot().counters) {
    const auto it = base.find(c.name);
    const std::uint64_t before = it != base.end() ? it->second : 0;
    if (c.value > before) delta[c.name] = c.value - before;
  }
  return delta;
}

void write_worker_sidecar(const std::string& cache_dir,
                          const std::string& owner, const DistOptions& dist,
                          const std::vector<const StudyEntry*>& entries,
                          std::size_t passes, std::size_t universe,
                          std::size_t cached, std::size_t claimed,
                          std::size_t stolen, std::size_t declined,
                          const exec::LeaseManager& leases,
                          double wall_seconds,
                          const std::map<std::string, std::uint64_t>&
                              registry) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string dir = cache_dir + "/workers";
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + owner + ".json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "worker: cannot write sidecar %s\n", path.c_str());
    return;
  }
  std::string studies;
  for (const StudyEntry* e : entries) {
    if (!studies.empty()) studies += ',';
    studies += obs::json_quote(e->spec.name);
  }
  std::string registry_json;
  for (const auto& [name, value] : registry) {
    if (!registry_json.empty()) registry_json += ',';
    registry_json += obs::json_quote(name) + ":" + std::to_string(value);
  }
  std::fprintf(
      f,
      "{\"schema\":\"tcw-dist-worker-v1\",\"worker\":%s,\"pid\":%ld,"
      "\"index\":%u,\"total\":%u,\"steal\":%s,\"passes\":%zu,"
      "\"universe\":%zu,\"cached\":%zu,\"claimed\":%zu,\"stolen\":%zu,"
      "\"declined\":%zu,\"reclaimed\":%zu,\"contended\":%zu,"
      "\"released\":%zu,\"stale_seconds\":%.3f,\"heartbeat_seconds\":%.3f,"
      "\"wall_seconds\":%.4f,\"studies\":[%s],\"registry\":{%s}}\n",
      obs::json_quote(owner).c_str(), static_cast<long>(::getpid()),
      dist.index, dist.total, dist.steal ? "true" : "false", passes, universe,
      cached, claimed, stolen, declined, leases.reclaimed(),
      leases.contended(), leases.released(), dist.stale_seconds,
      dist.heartbeat_seconds, wall_seconds, studies.c_str(),
      registry_json.c_str());
  std::fclose(f);
}

/// Parse the flat "registry":{"name":value,...} object out of one worker
/// sidecar and add its counts into `totals`. Hand-rolled scan matched to
/// write_worker_sidecar's own emission (names are json_quote'd; values
/// are bare unsigned integers). Returns false on malformed input.
bool accumulate_sidecar_registry(const std::string& text,
                                 std::map<std::string, std::uint64_t>*
                                     totals) {
  const std::string marker = "\"registry\":{";
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return false;
  std::size_t i = at + marker.size();
  while (i < text.size() && text[i] != '}') {
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] != '"') return false;
    std::size_t end = i + 1;
    std::string name;
    while (end < text.size() && text[end] != '"') {
      if (text[end] == '\\' && end + 1 < text.size()) {
        name += text[end + 1];
        end += 2;
        continue;
      }
      name += text[end];
      ++end;
    }
    if (end >= text.size() || end + 1 >= text.size() ||
        text[end + 1] != ':') {
      return false;
    }
    i = end + 2;
    std::uint64_t value = 0;
    const std::size_t digits_at = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
      ++i;
    }
    if (i == digits_at) return false;
    (*totals)[name] += value;
  }
  return i < text.size();
}

}  // namespace

void register_dist_flags(Flags& flags, DistOptions& dist) {
  flags.add("worker-id", &dist.worker_id,
            "stable name for this worker's leases/segments (default: "
            "w<N>of<M>-<pid>)");
  flags.add("no-steal", &dist.no_steal,
            "only run this worker's home partition; do not claim other "
            "workers' shards when idle");
  flags.add("lease-stale-seconds", &dist.stale_seconds,
            "lease files older than this are treated as left by a dead "
            "worker and reclaimed");
  flags.add("heartbeat-seconds", &dist.heartbeat_seconds,
            "refresh held leases this often so long shards are not "
            "reclaimed (0 disables)");
  flags.add("max-passes", &dist.max_passes,
            "upper bound on claim passes (0 = workers stop when a pass "
            "claims nothing)");
  flags.add("no-compact", &dist.no_compact,
            "merge: leave worker segments in place instead of folding "
            "them into the base store");
}

int run_study_workers(const StudyCommonOptions& common,
                      const DistOptions& dist,
                      const std::vector<std::string>& names,
                      const std::vector<std::string>& extra_argv) {
  if (common.cache_dir.empty()) {
    std::fprintf(stderr,
                 "worker mode needs --cache-dir (the shared store all "
                 "workers and the merge step use)\n");
    return 1;
  }
  std::vector<const StudyEntry*> entries;
  if (!resolve_entries(names, &entries)) return 1;

  const auto t0 = Clock::now();
  const std::string owner =
      dist.worker_id.empty() ? default_worker_id(dist) : dist.worker_id;
  exec::LeaseManager leases(exec::LeaseConfig{
      leases_dir(common.cache_dir), owner, dist.stale_seconds,
      dist.heartbeat_seconds});
  leases.start_heartbeat();

  // Workers never render; they also must not honor --csv / --resume
  // (segments are always additive) and share one obs session across
  // passes.
  StudyCommonOptions per_study = common;
  per_study.csv.clear();
  ObsSession obs("study_worker", common.obs);
  // Sidecars carry this worker's registry DELTA, so snapshot the baseline
  // after the session (which may have reset the registry), before any
  // pass runs kernels.
  const obs::RegistrySnapshot registry_baseline =
      obs::Registry::global().snapshot();

  std::printf("== worker %s: partition %u/%u%s over %zu stud%s ==\n",
              owner.c_str(), dist.index, dist.total,
              dist.steal ? " (stealing)" : " (no steal)", entries.size(),
              entries.size() == 1 ? "y" : "ies");

  // Passes: each re-enumerates the universe against a rescanned shared
  // cache and claims whatever is neither cached nor leased. Loop until a
  // pass finds nothing claimable (either everything is cached, or the
  // leftovers are leased to live workers).
  const std::size_t max_passes =
      dist.max_passes > 0 ? static_cast<std::size_t>(dist.max_passes)
                          : static_cast<std::size_t>(dist.total) + 8;
  std::size_t passes = 0;
  std::size_t universe = 0;
  std::size_t cached_at_start = 0;
  std::size_t claimed_total = 0;
  std::size_t stolen_total = 0;
  std::size_t declined_total = 0;
  exec::SchedulerReport last_report;
  bool have_report = false;
  int rc = 0;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    // Pass 0 claims home shards only, even with stealing on: leases are
    // claimed at schedule time, so a pass-0 stealer would grab the whole
    // universe before its peers enumerate it and serialize the fleet.
    // From pass 1 on, the home partition is done (or leased) and
    // leftovers -- uneven partitions, reclaimed crashed-worker shards --
    // are fair game.
    const bool steal_this_pass = dist.steal && pass > 0;
    exec::ThreadPool pool(
        exec::resolve_threads(static_cast<int>(common.threads)));
    exec::SweepScheduler scheduler(pool);
    obs.attach(scheduler);

    std::vector<std::unique_ptr<Study>> studies;
    std::vector<std::unique_ptr<exec::ShardCache>> caches;
    std::vector<std::unique_ptr<exec::DistWorkerGate>> gates;
    std::vector<std::unique_ptr<StudyContext>> contexts;
    const std::string writer = owner + "-p" + std::to_string(pass);
    bool flags_ok = true;
    for (const StudyEntry* e : entries) {
      studies.push_back(make_configured_study(*e, extra_argv, &flags_ok));
      caches.push_back(std::make_unique<exec::ShardCache>(
          study_store_path(common.cache_dir, e->spec.name),
          exec::ShardCache::SharedOptions{writer}));
      gates.push_back(std::make_unique<exec::DistWorkerGate>(
          &leases, dist.index, dist.total, steal_this_pass));
      contexts.push_back(std::make_unique<StudyContext>(
          e->spec, per_study, scheduler, caches.back().get()));
      contexts.back()->set_gate(gates.back().get());
      studies.back()->schedule(*contexts.back());
    }
    if (!flags_ok) return 1;

    std::size_t pass_universe = 0;
    std::size_t pass_cached = 0;
    std::size_t pass_claimed = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      pass_universe += gates[i]->universe().size();
      pass_cached += gates[i]->cached_seen();
      pass_claimed += gates[i]->claimed();
      stolen_total += gates[i]->stolen();
      declined_total += gates[i]->declined();
    }
    universe = pass_universe;
    if (pass == 0) cached_at_start = pass_cached;
    claimed_total += pass_claimed;
    ++passes;
    // Stop once a pass at full reach claims nothing: with stealing off
    // that is any pass; with stealing on, pass 0 only covered the home
    // partition, so always take at least one stealing pass.
    if (pass_claimed == 0 && (steal_this_pass || !dist.steal)) break;

    // Global progress row: shards finished by ANY worker, discovered by
    // periodic shared-cache rescans.
    std::atomic<std::size_t> cluster_done{0};
    std::unique_ptr<ClusterProgressPoller> poller;
    if (common.obs.progress) {
      std::vector<ClusterProgressPoller::Target> targets;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        targets.push_back({caches[i].get(), &gates[i]->universe()});
      }
      poller = std::make_unique<ClusterProgressPoller>(std::move(targets),
                                                       &cluster_done);
      scheduler.set_progress_cluster(
          obs::ProgressSource{"cluster", pass_universe, &cluster_done});
    }

    last_report = run_scheduler_with_report(
        scheduler, owner + "/pass" + std::to_string(pass));
    have_report = true;
    if (poller != nullptr) poller->stop();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      print_cache_report(entries[i]->spec.name, *contexts[i]);
    }
  }

  leases.stop_heartbeat();
  const double wall = seconds_since(t0);
  const std::size_t foreign =
      universe > cached_at_start + claimed_total
          ? universe - cached_at_start - claimed_total
          : 0;
  write_worker_sidecar(common.cache_dir, owner, dist, entries, passes,
                       universe, cached_at_start, claimed_total, stolen_total,
                       declined_total, leases, wall,
                       registry_delta(registry_baseline));
  std::printf(
      "worker %s: %zu pass(es), universe %zu shard(s): %zu cached at "
      "start, %zu claimed here (%zu stolen), %zu left to other workers; "
      "reclaimed %zu stale lease(s) in %.2fs\n",
      owner.c_str(), passes, universe, cached_at_start, claimed_total,
      stolen_total, foreign, leases.reclaimed(), wall);
  std::printf(
      "BENCH_JSON {\"suite\":\"study_worker\",\"worker\":{\"id\":%s,"
      "\"index\":%u,\"total\":%u,\"passes\":%zu,\"universe\":%zu,"
      "\"cached\":%zu,\"claimed\":%zu,\"stolen\":%zu,\"declined\":%zu,"
      "\"reclaimed\":%zu,\"foreign\":%zu,\"wall_seconds\":%.4f}}\n",
      obs::json_quote(owner).c_str(), dist.index, dist.total, passes,
      universe, cached_at_start, claimed_total, stolen_total, declined_total,
      leases.reclaimed(), foreign, wall);
  rc |= obs.finish(have_report ? &last_report : nullptr);
  return rc;
}

int run_study_merge(const StudyCommonOptions& common, const DistOptions& dist,
                    const std::vector<std::string>& names,
                    const std::vector<std::string>& extra_argv) {
  if (common.cache_dir.empty()) {
    std::fprintf(stderr, "merge mode needs --cache-dir\n");
    return 1;
  }
  std::vector<const StudyEntry*> entries;
  if (!resolve_entries(names, &entries)) return 1;

  // Single-study merges take the study's name as the run label so the
  // flight report is byte-identical to the single-process run's
  // (overlay_smoke.sh leg c); multi-study merges keep the generic label.
  ObsSession obs(entries.size() == 1 ? entries[0]->spec.name : "study_merge",
                 common.obs);
  // A suite-wide --csv only makes sense for a single study (merge renders
  // one CSV per study), mirroring run_study_suite.
  StudyCommonOptions per_study = common;
  if (entries.size() > 1) per_study.csv.clear();

  // Fold every worker sidecar's registry delta into one cluster-wide
  // total for the merge manifest: the merged_registry section then equals
  // the sum of the per-worker sidecars (asserted by test_dist_exec).
  {
    namespace fs = std::filesystem;
    std::map<std::string, std::uint64_t> totals;
    std::size_t sidecars = 0;
    std::error_code ec;
    fs::directory_iterator it(common.cache_dir + "/workers", ec);
    if (!ec) {
      std::vector<fs::path> paths;
      for (const fs::directory_entry& de : it) {
        if (de.path().extension() == ".json") paths.push_back(de.path());
      }
      std::sort(paths.begin(), paths.end());
      for (const fs::path& p : paths) {
        std::FILE* f = std::fopen(p.c_str(), "rb");
        if (f == nullptr) continue;
        std::string text;
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
          text.append(buf, n);
        }
        std::fclose(f);
        if (accumulate_sidecar_registry(text, &totals)) {
          ++sidecars;
        } else {
          std::fprintf(stderr, "merge: malformed worker sidecar %s\n",
                       p.c_str());
        }
      }
    }
    if (sidecars > 0) {
      obs::ManifestCollector::global().set_merged_registry(
          std::move(totals));
      std::printf("merge: folded registry deltas from %zu worker "
                  "sidecar(s)\n",
                  sidecars);
    }
  }

  int rc = 0;
  exec::SchedulerReport last_report;
  bool have_report = false;
  for (const StudyEntry* e : entries) {
    const auto t0 = Clock::now();
    // The merge runs the ordinary single-process path over the merged
    // segments: every shard must decode from the store, so the pool can
    // stay serial.
    exec::ThreadPool pool(1);
    exec::SweepScheduler scheduler(pool);
    obs.attach(scheduler);
    exec::ShardCache cache(study_store_path(common.cache_dir, e->spec.name),
                           exec::ShardCache::SharedOptions{"merge"});
    exec::CoverageGate gate;
    bool flags_ok = true;
    const std::unique_ptr<Study> study =
        make_configured_study(*e, extra_argv, &flags_ok);
    if (!flags_ok) return 1;
    StudyContext ctx(e->spec, per_study, scheduler, &cache);
    ctx.set_gate(&gate);
    ctx.set_obs(&obs);
    study->schedule(ctx);

    const std::size_t missing = gate.missing().size();
    const std::size_t universe = gate.universe().size();
    const std::size_t segments = cache.segments_seen();  // pre-compaction
    bool compacted = false;
    if (missing > 0) {
      std::fprintf(stderr,
                   "merge: %s: %zu of %zu shard(s) missing from %s; run "
                   "more workers (or wait for live ones), then merge "
                   "again\n",
                   e->spec.name.c_str(), missing, universe,
                   cache.path().c_str());
      rc = 1;
    } else {
      last_report = run_scheduler_with_report(scheduler, e->spec.name);
      have_report = true;
      print_cache_report(e->spec.name, ctx);
      rc |= study->render(ctx);
      if (dist.compact) {
        const std::size_t live =
            exec::count_live_leases(leases_dir(common.cache_dir),
                                    dist.stale_seconds);
        if (live > 0) {
          std::fprintf(stderr,
                       "merge: %s: %zu live lease(s); skipping compaction "
                       "while workers may still be appending\n",
                       e->spec.name.c_str(), live);
        } else {
          compacted = cache.compact_shared();
        }
      }
    }
    std::printf(
        "BENCH_JSON {\"suite\":%s,\"merge\":{\"path\":%s,\"segments\":%zu,"
        "\"entries\":%zu,\"universe\":%zu,\"cached\":%zu,\"missing\":%zu,"
        "\"corrupt_segments\":%zu,\"compacted\":%s,\"wall_seconds\":%.4f}}"
        "\n",
        obs::json_quote(e->spec.name).c_str(),
        obs::json_quote(cache.path()).c_str(), segments,
        cache.entries(), universe, gate.cached_seen(), missing,
        cache.corrupt_segments(), compacted ? "true" : "false",
        seconds_since(t0));
  }
  // After a fully successful merge with compaction, stale leases and
  // reclaim tombstones are dead weight; sweep them.
  if (rc == 0 && dist.compact &&
      exec::count_live_leases(leases_dir(common.cache_dir),
                              dist.stale_seconds) == 0) {
    exec::remove_all_leases(leases_dir(common.cache_dir));
  }
  rc |= obs.finish(have_report ? &last_report : nullptr);
  return rc;
}

int study_dist_main(int argc, const char* const* argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  StudyCommonOptions common;
  DistOptions dist;
  int consumed = 2;
  if (mode == "--worker") {
    if (argc < 3 ||
        !parse_worker_spec(argv[2], &dist.index, &dist.total)) {
      std::fprintf(stderr,
                   "usage: study_tool --worker N/M --cache-dir DIR [flags] "
                   "[studies]  (N in [0, M))\n");
      return 1;
    }
    consumed = 3;
  }
  Flags flags("study_tool " + mode,
              mode == "--merge"
                  ? "Verify shard coverage across worker segments, render "
                    "byte-identical CSVs, compact the store"
                  : "Claim and run shards of the shared universe as one "
                    "worker process (positional args select studies)");
  register_common_flags(flags, common);
  register_dist_flags(flags, dist);
  // Unrecognized flags are study-specific (--t-end, --reps, ...): forward
  // them to every selected study's own flag parser, exactly as the
  // single-process runner would see them.
  std::vector<std::string> extra_argv;
  flags.set_passthrough(&extra_argv);
  std::vector<const char*> fwd{argv[0]};
  for (int i = consumed; i < argc; ++i) fwd.push_back(argv[i]);
  if (!flags.parse(static_cast<int>(fwd.size()), fwd.data())) return 1;
  dist.apply_flag_inversions();
  const std::vector<std::string> studies = flags.positional();
  if (mode == "--merge") {
    return run_study_merge(common, dist, studies, extra_argv);
  }
  if (mode == "--drain") {
    dist.index = 0;
    dist.total = 1;
    dist.steal = true;
  }
  return run_study_workers(common, dist, studies, extra_argv);
}

}  // namespace tcw::bench
