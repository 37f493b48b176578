// Benchmark driver: runs one workload of the tcw benchmark over and over
// for a time budget, in one process, and writes every measurement as one
// JSON record. perfbench/run.py builds this driver, runs it, checks the
// outputs it leaves behind and turns the record into metrics.
//
// The driver calls the libraries' public entry points directly -- the
// analytic model (analysis::*), net::run_sweep on an exec::SweepScheduler,
// exec::ShardCache and the study registry -- and times each call from
// here; nothing inside the libraries is changed or instrumented. Each repetition ("pass") sets itself up from scratch: a
// fresh output directory, thread pool and scheduler. With --trace-out,
// passes alternate between untraced and traced; a traced pass records one
// span per layer call (name, start, end, parent, pass id) and the spans are
// written at the end as Chrome trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/loss_model.hpp"
#include "exec/shard_cache.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "net/experiment.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "study.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using namespace tcw;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Starts a new resident-memory peak: the kernel resets VmHWM to the
// current RSS.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

// Peak resident memory since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One JSON object built by concatenation; values are pre-rendered.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += obs::json_quote(key) + ':' + json;
    return *this;
  }
  JsonObject& number(const std::string& key, double v) {
    return raw(key, num(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, obs::json_quote(v));
  }
  std::string render() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + ']';
}

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  std::string arg;
  Clock::time_point begin{};
  Clock::time_point end{};
  int parent = -1;
  int run = 0;
};

// In-memory span store for the traced passes of one process.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }

  // Complete ("ph":"X") events, ts/dur in microseconds since the tracer
  // was created; args carry the span id, its parent's id (-1 for a pass
  // root) and the pass it belongs to.
  std::string chrome_trace_json() const {
    std::vector<std::string> events;
    events.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char times[96];
      std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                    1e6 * seconds_between(epoch_, s.begin),
                    1e6 * seconds_between(s.begin, s.end));
      events.push_back("{\"name\":" + obs::json_quote(s.name) +
                       ",\"cat\":\"perfbench\",\"ph\":\"X\"," + times +
                       ",\"pid\":1,\"tid\":1,\"args\":" +
                       JsonObject()
                           .count("id", i)
                           .raw("parent", std::to_string(s.parent))
                           .raw("run", std::to_string(s.run))
                           .str("arg", s.arg)
                           .render() +
                       '}');
    }
    return "{\"traceEvents\":" + json_list(events) +
           ",\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Times one pass: its wall and CPU time, its set-up (entry to the first
// measured call) and, when a tracer is bound, one span per measured call
// nested under a root "pass" span. Set-up gets a "bench.setup" span. A
// set-up-only clock asks the pass to finish where its first measured call
// would begin.
class PassClock {
 public:
  PassClock(Tracer* tracer, int run, bool setup_only = false)
      : tracer_(tracer),
        run_(run),
        setup_only_(setup_only),
        cpu_start_(cpu_seconds()) {
    start_ = Clock::now();
    if (tracer_ != nullptr) {
      root_ = tracer_->add({"pass", "", start_, start_, -1, run_});
    }
  }

  // Opens a measured call; the first one ends set-up.
  void open(const std::string& name, const std::string& arg = "") {
    const Clock::time_point now = Clock::now();
    if (!first_call_) {
      first_call_ = now;
      if (tracer_ != nullptr) {
        tracer_->add({"bench.setup", "", start_, now, root_, run_});
      }
    }
    int span = -1;
    if (tracer_ != nullptr) {
      const int parent = stack_.empty() ? root_ : stack_.back().span;
      span = tracer_->add({name, arg, now, now, parent, run_});
    }
    stack_.push_back({now, span});
  }

  // Closes the innermost open call; returns its duration in seconds.
  double close() {
    const Clock::time_point now = Clock::now();
    const Open top = stack_.back();
    stack_.pop_back();
    if (top.span >= 0) tracer_->at(top.span).end = now;
    return seconds_between(top.begin, now);
  }

  template <typename F>
  auto call(const std::string& name, const std::string& arg, F&& f) {
    open(name, arg);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close();
    } else {
      auto result = f();
      close();
      return result;
    }
  }

  // Ends the pass.
  void finish() {
    const Clock::time_point now = Clock::now();
    cpu_ = cpu_seconds() - cpu_start_;
    if (!first_call_) first_call_ = now;
    if (root_ >= 0) tracer_->at(root_).end = now;
    wall_ = seconds_between(start_, now);
  }

  bool setup_only() const { return setup_only_; }
  double wall() const { return wall_; }
  double cpu() const { return cpu_; }
  double setup() const { return seconds_between(start_, *first_call_); }

 private:
  struct Open {
    Clock::time_point begin;
    int span;
  };
  Tracer* tracer_;
  int run_;
  bool setup_only_;
  double cpu_start_;
  int root_ = -1;
  Clock::time_point start_{};
  std::optional<Clock::time_point> first_call_;
  std::vector<Open> stack_;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

// ---------------------------------------------------------------- records

struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

struct PassRecord {
  bool traced = false;
  std::string dir;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t shards = 0;  // delivered: executed or served from a store
  std::uint64_t executed_shards = 0;
  std::uint64_t fixpoint_iters = 0;
  double loss_gap_max = 0.0;
  std::uint64_t store_bytes = 0;
  // Discards the sweeps' attribution rows account for; compared with the
  // kernels' own discard counters once the pass has ended.
  std::optional<std::uint64_t> attributed_discards;
  std::optional<exec::SchedulerReport> scheduler;
  std::map<std::string, double> schedule_s;  // per study
  std::map<std::string, std::uint64_t> counters;  // registry deltas
  Checks checks;

  std::string render() const {
    JsonObject o;
    o.raw("traced", traced ? "true" : "false")
        .str("dir", dir)
        .number("wall_s", wall_s)
        .number("setup_s", setup_s)
        .number("cpu_s", cpu_s)
        .number("peak_rss_mb", peak_rss_mb)
        .count("shards", shards)
        .count("executed_shards", executed_shards)
        .count("fixpoint_iters", fixpoint_iters)
        .number("loss_gap_max", loss_gap_max)
        .count("store_bytes", store_bytes);
    if (scheduler) {
      o.raw("scheduler", JsonObject()
                             .count("threads", scheduler->threads)
                             .count("shards", scheduler->shards)
                             .number("wall_s", scheduler->wall_seconds)
                             .number("busy_s", scheduler->busy_seconds)
                             .render());
    }
    JsonObject sched;
    for (const auto& [study, s] : schedule_s) sched.number(study, s);
    o.raw("schedule_s", sched.render());
    JsonObject cnt;
    for (const auto& [name, v] : counters) cnt.count(name, v);
    o.raw("counters", cnt.render());
    std::vector<std::string> failures;
    for (const std::string& f : checks.failures) {
      failures.push_back(obs::json_quote(f));
    }
    o.raw("checks", JsonObject()
                        .count("attempted", checks.attempted)
                        .raw("failures", json_list(failures))
                        .render());
    return o.render();
  }
};

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> out;
  for (const obs::CounterSnapshot& c :
       obs::Registry::global().snapshot().counters) {
    out[c.name] = c.value;
  }
  return out;
}

std::uint64_t counter_or_zero(const std::map<std::string, std::uint64_t>& m,
                              const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

constexpr int kSetupSamplesPerPass = 5;

struct Options {
  std::string workload;
  unsigned long long seed = 20261983;
  double seconds = 10.0;
  long long threads = 1;
  std::string work;
  std::string result;
  std::string trace_out;
};

// ---------------------------------------------------------------- fig7

struct Panel {
  const char* name;
  double offered_load;
  double message_length;
};

// The six Figure-7 panels at the committed scale (results/fig7_*.csv).
constexpr Panel kPanels[] = {
    {"fig7_rho25_m25", 0.25, 25.0},  {"fig7_rho25_m100", 0.25, 100.0},
    {"fig7_rho50_m25", 0.50, 25.0},  {"fig7_rho50_m100", 0.50, 100.0},
    {"fig7_rho75_m25", 0.75, 25.0},  {"fig7_rho75_m100", 0.75, 100.0},
};
const std::vector<double> kKOverM = {0.5, 1.0, 1.5, 2.0, 3.0,
                                     4.0, 6.0, 8.0, 12.0, 16.0};

// All six panels: the three variant sweeps of every panel as one job graph
// on the scheduler, then per panel the reduction, the analytic curves and
// the CSV. The analytic curves are computed here, call by call, rather
// than through the panel renderer, so each analysis function is timed on
// its own.
void fig7_pass(const Options& opt, PassClock& clock, PassRecord& rec) {
  constexpr int kVariants = 3;
  const net::ProtocolVariant kinds[kVariants] = {
      net::ProtocolVariant::Controlled, net::ProtocolVariant::FcfsNoDiscard,
      net::ProtocolVariant::LcfsNoDiscard};
  const char* kind_names[kVariants] = {"controlled", "fcfs", "lcfs"};
  struct PanelRun {
    const Panel* panel = nullptr;
    std::vector<double> grid;
    std::vector<net::ScheduledSweep> sweeps;
  };

  fs::create_directories(rec.dir);
  exec::ThreadPool pool(static_cast<unsigned>(opt.threads));
  exec::SweepScheduler scheduler(pool);
  std::vector<PanelRun> runs;
  for (const Panel& p : kPanels) {
    PanelRun run;
    run.panel = &p;
    for (const double r : kKOverM) run.grid.push_back(r * p.message_length);
    net::SweepConfig cfg;
    cfg.offered_load = p.offered_load;
    cfg.message_length = p.message_length;
    cfg.t_end = 150000.0;
    cfg.warmup = 10000.0;
    cfg.replications = 2;
    cfg.base_seed = opt.seed;
    for (int v = 0; v < kVariants; ++v) {
      net::SweepRequest request;
      request.config = cfg;
      request.constraints = run.grid;
      request.variant = kinds[v];
      net::SweepBindings bindings;
      bindings.scheduler = &scheduler;
      bindings.name = std::string(p.name) + "/" + kind_names[v];
      if (clock.setup_only()) {
        clock.finish();
        return;
      }
      run.sweeps.push_back(clock.call("net.enqueue", bindings.name, [&] {
        return net::run_sweep(request, bindings);
      }));
      rec.shards += run.sweeps.back().jobs();
      rec.executed_shards += run.sweeps.back().jobs();
    }
    runs.push_back(std::move(run));
  }
  rec.scheduler =
      clock.call("exec.scheduler.run", "", [&] { return scheduler.run(); });

  std::uint64_t attributed = 0;
  for (PanelRun& run : runs) {
    const std::string panel = run.panel->name;
    std::vector<net::SweepPoint> sim[kVariants];
    clock.call("net.reduce", panel, [&] {
      for (int v = 0; v < kVariants; ++v) {
        sim[v] = run.sweeps[v].points();
        const std::vector<net::SweepAttribution> rows =
            run.sweeps[v].attribution();
        rec.checks.expect(rows.size() == run.grid.size(),
                          panel + "/" + kind_names[v] +
                              ": one attribution row per K");
        for (const net::SweepAttribution& row : rows) {
          attributed += row.discards();
        }
      }
    });

    analysis::ProtocolModelConfig model;
    model.offered_load = run.panel->offered_load;
    model.message_length = run.panel->message_length;
    const std::vector<analysis::ControlledLossPoint> analytic =
        clock.call("analysis.controlled", panel, [&] {
          return analysis::controlled_loss_curve(model, run.grid);
        });
    std::vector<double> fcfs(run.grid.size());
    std::vector<double> lcfs(run.grid.size());
    for (std::size_t i = 0; i < run.grid.size(); ++i) {
      fcfs[i] = clock.call("analysis.fcfs", panel, [&] {
        return analysis::fcfs_nodiscard_loss(model, run.grid[i]);
      });
      lcfs[i] = clock.call("analysis.lcfs", panel, [&] {
        return analysis::lcfs_nodiscard_loss(model, run.grid[i]);
      });
    }

    const bool saved = clock.call("bench.render", panel, [&] {
      Table table({"K", "K_over_M", "ctrl_analytic", "ctrl_sim", "ctrl_ci95",
                   "fcfs_analytic", "fcfs_sim", "lcfs_analytic", "lcfs_sim",
                   "ctrl_sched_mean", "ctrl_utilization"});
      for (std::size_t i = 0; i < run.grid.size(); ++i) {
        table.add_row(
            {format_fixed(run.grid[i], 1),
             format_fixed(run.grid[i] / run.panel->message_length, 2),
             format_fixed(analytic[i].p_loss, 5),
             format_fixed(sim[0][i].p_loss, 5), format_fixed(sim[0][i].ci95, 5),
             format_fixed(fcfs[i], 5), format_fixed(sim[1][i].p_loss, 5),
             format_fixed(lcfs[i], 5), format_fixed(sim[2][i].p_loss, 5),
             format_fixed(sim[0][i].mean_scheduling, 3),
             format_fixed(sim[0][i].utilization, 4)});
      }
      return table.save_csv(rec.dir + "/" + panel + ".csv");
    });
    rec.checks.expect(saved, panel + ": CSV written");

    for (std::size_t i = 0; i < run.grid.size(); ++i) {
      rec.fixpoint_iters += static_cast<std::uint64_t>(analytic[i].iterations);
      rec.loss_gap_max = std::max(
          rec.loss_gap_max, std::abs(analytic[i].p_loss - sim[0][i].p_loss));
    }
  }
  clock.finish();
  rec.attributed_discards = attributed;
}

// ---------------------------------------------------------------- studies

// Every registered study on one scheduler, each bound to its own fresh
// shard store under <dir>/cache, CSVs under <dir>/csv.
void studies_pass(const Options& opt, PassClock& clock, PassRecord& rec) {
  const std::string cache_dir = rec.dir + "/cache";
  const std::string csv_dir = rec.dir + "/csv";
  fs::create_directories(csv_dir);
  fs::create_directories(cache_dir);
  exec::ThreadPool pool(static_cast<unsigned>(opt.threads));
  exec::SweepScheduler scheduler(pool);
  const std::vector<bench::StudyEntry>& entries = bench::registry();
  std::vector<bench::StudyCommonOptions> common(entries.size());
  std::vector<std::unique_ptr<bench::Study>> studies;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    common[i].threads = opt.threads;
    common[i].csv = csv_dir + "/" + entries[i].spec.default_csv;
    common[i].cache_dir = cache_dir;
    studies.push_back(entries[i].make());
  }

  if (clock.setup_only()) {
    clock.finish();
    return;
  }
  std::vector<std::unique_ptr<exec::ShardCache>> caches;
  std::vector<std::unique_ptr<bench::StudyContext>> contexts;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string& name = entries[i].spec.name;
    caches.push_back(clock.call("exec.cache.open", name, [&] {
      return std::make_unique<exec::ShardCache>(
          bench::study_store_path(cache_dir, name),
          exec::ShardCache::Mode::Fresh);
    }));
    contexts.push_back(std::make_unique<bench::StudyContext>(
        entries[i].spec, common[i], scheduler, caches.back().get()));
    clock.open("bench.schedule", name);
    studies[i]->schedule(*contexts[i]);
    rec.schedule_s[name] = clock.close();
  }
  rec.scheduler =
      clock.call("exec.scheduler.run", "", [&] { return scheduler.run(); });
  std::vector<int> rcs;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    rcs.push_back(clock.call("bench.render", entries[i].spec.name,
                             [&] { return studies[i]->render(*contexts[i]); }));
    rec.shards +=
        contexts[i]->cached_shards() + contexts[i]->scheduled_shards();
    rec.executed_shards += contexts[i]->scheduled_shards();
  }
  contexts.clear();
  studies.clear();
  clock.call("exec.cache.close", "", [&] { caches.clear(); });
  clock.finish();

  rec.store_bytes = directory_bytes(cache_dir);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    rec.checks.expect(rcs[i] == 0, entries[i].spec.name + ": render ok");
  }
}

// ---------------------------------------------------------------- main

std::string provenance_json(const Options& opt) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return JsonObject()
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .raw("ndebug", ndebug ? "true" : "false")
      .str("compiler", PERFBENCH_COMPILER)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .count("pool_threads", static_cast<std::uint64_t>(opt.threads))
      .render();
}

int run(const Options& opt) {
  if (opt.workload != "fig7" && opt.workload != "studies_cold") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (!(opt.seconds > 0.0) || opt.threads < 1 || opt.work.empty() ||
      opt.result.empty()) {
    std::fprintf(stderr, "need --seconds > 0, --threads >= 1, --work and "
                         "--result\n");
    return 2;
  }
  if (fs::exists(opt.work) && !fs::is_empty(opt.work)) {
    std::fprintf(stderr, "--work %s is not empty\n", opt.work.c_str());
    return 2;
  }
  fs::create_directories(opt.work);
  const auto run_pass = [&](PassClock& clock, PassRecord& rec) {
    if (opt.workload == "fig7") {
      fig7_pass(opt, clock, rec);
    } else {
      studies_pass(opt, clock, rec);
    }
  };

  Tracer tracer;
  const bool tracing = !opt.trace_out.empty();
  std::vector<std::string> passes;
  std::vector<std::string> setup_samples;
  // A traced run needs at least one untraced and one traced pass.
  const int min_passes = tracing ? 2 : 1;
  const Clock::time_point loop_start = Clock::now();
  double last_wall = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_between(loop_start, Clock::now());
    if (i >= min_passes && elapsed + last_wall > opt.seconds) break;
    // A pass sets up once, in well under a millisecond; set-up alone is
    // sampled several times before each pass so its median is steady.
    for (int s = 0; s < kSetupSamplesPerPass; ++s) {
      PassRecord sample;
      sample.dir =
          opt.work + "/s" + std::to_string(i) + "-" + std::to_string(s);
      PassClock clock(nullptr, -1, /*setup_only=*/true);
      run_pass(clock, sample);
      setup_samples.push_back(num(clock.setup()));
    }
    PassRecord rec;
    rec.traced = tracing && i % 2 == 1;
    rec.dir = opt.work + "/p" + std::to_string(i);
    const std::map<std::string, std::uint64_t> before = counter_values();
    reset_peak_rss();
    PassClock clock(rec.traced ? &tracer : nullptr, i);
    run_pass(clock, rec);
    rec.wall_s = clock.wall();
    rec.setup_s = clock.setup();
    rec.cpu_s = clock.cpu();
    rec.peak_rss_mb = peak_rss_mb();
    for (const auto& [name, v] : counter_values()) {
      const std::uint64_t d = v - counter_or_zero(before, name);
      if (d != 0) rec.counters[name] = d;
    }
    if (rec.attributed_discards) {
      rec.checks.expect(
          *rec.attributed_discards ==
              counter_or_zero(rec.counters, "net.aggregate.sender_discards") +
                  counter_or_zero(rec.counters, "net.network.sender_discards"),
          "attribution rows sum to the kernels' sender discards");
    }
    last_wall = rec.wall_s;
    passes.push_back(rec.render());
  }

  const std::string record =
      JsonObject()
          .str("workload", opt.workload)
          .count("seed", opt.seed)
          .number("seconds", opt.seconds)
          .raw("provenance", provenance_json(opt))
          .raw("setup_samples", json_list(setup_samples))
          .raw("passes", json_list(passes))
          .render();
  std::ofstream out(opt.result);
  out << record << '\n';
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.result.c_str());
    return 1;
  }
  if (tracing) {
    std::ofstream trace(opt.trace_out);
    trace << tracer.chrome_trace_json();
    if (!trace) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Flags flags("perfbench_driver",
              "Run one benchmark workload for a time budget and write its "
              "measurements as JSON");
  flags.add("workload", &opt.workload,
            "fig7 | studies_cold");
  flags.add("seed", &opt.seed, "workload seed");
  flags.add("seconds", &opt.seconds, "measurement budget in seconds");
  flags.add("threads", &opt.threads, "worker pool size");
  flags.add("work", &opt.work, "scratch directory; must be absent or empty");
  flags.add("result", &opt.result, "path of the JSON record");
  flags.add("trace-out", &opt.trace_out,
            "alternate untraced and traced passes; write the spans here");
  if (!flags.parse(argc, argv)) return 2;
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
