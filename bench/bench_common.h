#ifndef GAMMA_BENCH_BENCH_COMMON_H_
#define GAMMA_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "baselines/systems.h"
#include "common/json.h"
#include "graph/datasets.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "gpusim/resource_class.h"

namespace gpm::bench {

/// Host threads used by every simulated device the benches construct,
/// settable with `--host-threads=N` (see Main). Purely a wall-clock knob:
/// the executor's ordered replay keeps every simulated result bit-identical
/// to a serial run — the CI identity smoke diffs the exported JSON between
/// 1 and 4 threads to enforce exactly that.
inline int& BenchHostThreads() {
  static int threads = 1;
  return threads;
}

/// When non-empty (set with `--trace-out=<prefix>`), every RegisterSim run
/// that calls ReportProfile also writes a Chrome trace-event timeline to
/// `<prefix><sanitized-run-name>.trace.json`.
inline std::string& BenchTraceOutPrefix() {
  static std::string* prefix = new std::string();
  return *prefix;
}

/// Simulated device used across the benches. The ratios mirror the paper's
/// testbed: device memory is small relative to the proxy graphs and their
/// intermediate results, the same way 16 GB compares to billion-edge
/// graphs and 310 GB of intermediates.
inline gpusim::SimParams BenchDeviceParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 4ull << 20;  // 4 MiB "device"
  // The page buffer is deliberately much smaller than the proxy graphs
  // (64 pages vs hundreds of CSR pages) — the paper's regime, where the
  // choice of which pages to cache actually matters.
  p.um_device_buffer_bytes = 256ull << 10;
  p.host_threads = BenchHostThreads();
  // Command recording is pure observation (no simulated result changes)
  // and feeds the per-run bottleneck summary in the bench JSON.
  p.record_commands = true;
  p.record_timeline = !BenchTraceOutPrefix().empty();
  return p;
}

/// Device for the in-core systems (Pangolin-GPU, GSI): same capacity, but
/// no unified-memory page buffer — they use explicit transfers only, so
/// all device memory serves data (as on real hardware).
inline gpusim::SimParams InCoreDeviceParams() {
  gpusim::SimParams p = BenchDeviceParams();
  p.um_device_buffer_bytes = 0;
  return p;
}

/// Plan profiler attach switch for GAMMA bench runs, settable with
/// `--planprof=off` (see Main). On by default: profiling is observation
/// only (bit-identical cycles and counters — the planprof smoke CI job
/// diffs on-vs-off bench JSON at tolerance zero to enforce it), and the
/// per-level Q-error digest lands in the bench JSON.
inline bool& BenchPlanProf() {
  static bool enabled = true;
  return enabled;
}

/// GAMMA options sized for the bench device.
inline core::GammaOptions BenchGammaOptions() {
  core::GammaOptions options = baselines::GammaDefaultOptions();
  options.extension.pool_bytes = 2ull << 20;
  options.plan_profile = BenchPlanProf();
  return options;
}

/// Dataset cache: proxies are generated once per bench binary.
inline const graph::Graph& Dataset(const std::string& name) {
  static std::map<std::string, graph::Graph>* cache =
      new std::map<std::string, graph::Graph>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    graph::Graph g = graph::MakeDataset(name);
    g.EnsureEdgeIndex();
    it = cache->emplace(name, std::move(g)).first;
  }
  return it->second;
}

/// One variant run captured for the machine-readable bench export: the
/// benchmark's full name, its outcome, simulated time/cycles, the device
/// configuration it ran on, and the complete hardware-counter and
/// per-phase breakdown.
struct BenchRun {
  std::string name;
  bool skipped = false;
  std::string error;
  double sim_millis = 0;
  double cycles = 0;
  /// Real (host) time the variant took, for the parallel-executor speedup
  /// report. Unlike everything else in the document this is inherently
  /// nondeterministic — comparison tooling ignores it.
  double wall_clock_ms = 0;
  std::size_t device_memory_bytes = 0;
  std::size_t um_device_buffer_bytes = 0;
  int num_warp_slots = 0;
  int streams = 0;
  int host_threads = 1;
  std::size_t peak_device_bytes = 0;
  std::size_t peak_host_bytes = 0;
  double link_busy_cycles = 0;
  gpusim::DeviceStats counters;
  std::vector<gpusim::PhaseRecord> phases;
  /// Adaptivity-audit totals when the variant ran with an audit attached
  /// (adaptivity.enabled stays false otherwise and no JSON is emitted).
  core::AdaptivitySummary adaptivity;
  /// gamma-prof bottleneck summary, filled when the device recorded its
  /// command timeline (BenchDeviceParams turns recording on).
  bool has_bottleneck = false;
  bool critpath_partial = false;
  double critical_path_cycles = 0;
  double pcie_link_utilization = 0;
  gpusim::ResourceClass binding = gpusim::ResourceClass::kSyncIdle;
  gpusim::ResourceCycles resource_cycles{};
  std::vector<prof::WhatIf> whatifs;
  /// Compiled-plan summary when the variant ran through the pattern
  /// compiler (plan.enabled stays false otherwise; no JSON is emitted).
  core::PlanSummary plan;
  /// Plan-profiler digest when the variant ran with a profiler attached
  /// (planprof.enabled stays false otherwise; no JSON is emitted).
  core::PlanProfSummary planprof;
};

/// Collects every RegisterSim run of a bench binary and writes one
/// versioned `gamma.bench.v1` JSON document, so CI and future PRs can
/// diff perf trajectories instead of scraping console tables. Enabled by
/// the `--json=<file>` flag (see `Main()`); zero-cost when disabled.
class BenchJson {
 public:
  static BenchJson& Get() {
    static BenchJson* instance = new BenchJson();
    return *instance;
  }

  void Enable(std::string path, std::string binary) {
    path_ = std::move(path);
    binary_ = std::move(binary);
  }
  bool enabled() const { return !path_.empty(); }

  /// Opens a fresh record; subsequent Report*/SkipCrashed calls fill it.
  void BeginRun(const std::string& name) {
    if (!enabled()) return;
    runs_.emplace_back();
    runs_.back().name = name;
  }

  /// The record being filled, or nullptr when the export is disabled.
  BenchRun* Current() {
    return enabled() && !runs_.empty() ? &runs_.back() : nullptr;
  }

  /// Writes the document; returns false (with a message) on I/O failure.
  bool Write() const {
    std::ostringstream os;
    JsonWriter w(os);
    w.BeginObject();
    w.Key("schema").Value("gamma.bench.v1");
    w.Key("binary").Value(binary_);
    w.Key("runs").BeginArray();
    for (const BenchRun& r : runs_) {
      w.BeginObject();
      w.Key("name").Value(r.name);
      w.Key("skipped").Value(r.skipped);
      if (!r.error.empty()) w.Key("error").Value(r.error);
      w.Key("sim_millis").Value(r.sim_millis);
      w.Key("cycles").Value(r.cycles);
      w.Key("wall_clock_ms").Value(r.wall_clock_ms);
      w.Key("params").BeginObject();
      w.Key("device_memory_bytes").Value(r.device_memory_bytes);
      w.Key("um_device_buffer_bytes").Value(r.um_device_buffer_bytes);
      w.Key("num_warp_slots").Value(r.num_warp_slots);
      w.Key("streams").Value(r.streams);
      w.Key("host_threads").Value(r.host_threads);
      w.EndObject();
      w.Key("peak_device_bytes").Value(r.peak_device_bytes);
      w.Key("peak_host_bytes").Value(r.peak_host_bytes);
      w.Key("link_busy_cycles").Value(r.link_busy_cycles);
      w.Key("counters").BeginObject();
      gpusim::WriteStatsFields(w, r.counters);
      w.EndObject();
      w.Key("phases").BeginArray();
      for (const gpusim::PhaseRecord& ph : r.phases) {
        w.BeginObject();
        w.Key("name").Value(ph.name);
        w.Key("invocations").Value(ph.invocations);
        w.Key("cycles").Value(ph.cycles);
        w.EndObject();
      }
      w.EndArray();
      if (r.has_bottleneck) {
        w.Key("bottleneck").BeginObject();
        w.Key("partial").Value(r.critpath_partial);
        w.Key("critical_path_cycles").Value(r.critical_path_cycles);
        w.Key("binding").Value(gpusim::ResourceClassName(r.binding));
        w.Key("pcie_link_utilization").Value(r.pcie_link_utilization);
        w.Key("resource_cycles").BeginObject();
        for (int c = 0; c < gpusim::kNumResourceClasses; ++c) {
          w.Key(gpusim::ResourceClassName(
                    static_cast<gpusim::ResourceClass>(c)))
              .Value(r.resource_cycles[static_cast<std::size_t>(c)]);
        }
        w.EndObject();
        w.Key("whatif").BeginArray();
        for (const prof::WhatIf& wi : r.whatifs) {
          w.BeginObject();
          w.Key("resource").Value(gpusim::ResourceClassName(wi.resource));
          w.Key("cost_factor").Value(wi.cost_factor);
          w.Key("projected_cycles").Value(wi.projected_cycles);
          w.Key("speedup").Value(wi.speedup);
          w.EndObject();
        }
        w.EndArray();
        w.EndObject();
      }
      if (r.plan.enabled) {
        w.Key("plan").BeginObject();
        w.Key("kind").Value(r.plan.kind);
        w.Key("order").BeginArray();
        for (int v : r.plan.order) w.Value(v);
        w.EndArray();
        w.Key("levels").Value(r.plan.levels);
        w.Key("symmetry_broken").Value(r.plan.symmetry_broken);
        w.EndObject();
      }
      if (r.planprof.enabled) {
        w.Key("planprof").BeginObject();
        w.Key("worst_q_error").Value(r.planprof.worst_q_error);
        w.Key("worst_q_error_depth").Value(r.planprof.worst_q_error_depth);
        w.Key("imbalance").Value(r.planprof.imbalance);
        w.Key("levels").BeginArray();
        for (const core::PlanProfSummary::Level& level : r.planprof.levels) {
          w.BeginObject();
          w.Key("label").Value(level.label);
          w.Key("depth").Value(level.depth);
          w.Key("has_estimate").Value(level.has_estimate);
          w.Key("est_rows").Value(level.est_rows);
          w.Key("rows").Value(level.rows);
          w.Key("q_error").Value(level.q_error);
          w.EndObject();
        }
        w.EndArray();
        w.EndObject();
      }
      if (r.adaptivity.enabled) {
        const core::AdaptivitySummary& a = r.adaptivity;
        w.Key("adaptivity").BeginObject();
        w.Key("extensions").Value(a.extensions);
        w.Key("mean_unified_pages").Value(a.mean_unified_pages);
        w.Key("plan_cycles").Value(a.plan_cycles);
        w.Key("actual_access_cycles").Value(a.actual_access_cycles);
        w.Key("est_unified_cycles").Value(a.est_unified_cycles);
        w.Key("est_zerocopy_cycles").Value(a.est_zerocopy_cycles);
        w.Key("regret_cycles").Value(a.regret_cycles);
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    os << '\n';

    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      return false;
    }
    out << os.str();
    std::printf("bench JSON written to %s (%zu runs)\n", path_.c_str(),
                runs_.size());
    return true;
  }

 private:
  BenchJson() = default;
  std::string path_;
  std::string binary_;
  std::vector<BenchRun> runs_;
};

/// Name of the RegisterSim run currently executing (used to name per-run
/// trace files even when the JSON export is disabled).
inline std::string& BenchCurrentRunName() {
  static std::string* name = new std::string();
  return *name;
}

/// Writes the device's recorded timeline to
/// `<prefix><sanitized-run-name>.trace.json` when `--trace-out` is set.
inline void WriteBenchTrace(const gpusim::Device& device) {
  const std::string& prefix = BenchTraceOutPrefix();
  if (prefix.empty() || !device.trace().enabled()) return;
  std::string tag = BenchCurrentRunName();
  for (char& c : tag) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!keep) c = '_';
  }
  const std::string path = prefix + tag + ".trace.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  out << device.trace().ToChromeTraceJson(device.params());
  std::printf(
      "timeline written to %s (spans of %zu commands, %zu page/adaptivity "
      "instants)\n",
      path.c_str(), device.critpath().commands().size(),
      device.trace().events().size());
}

/// Reports one completed system run: simulated time becomes the manual
/// iteration time, so the benchmark table reads in simulated seconds.
inline void ReportSimMillis(benchmark::State& state, double sim_millis) {
  state.SetIterationTime(sim_millis / 1e3);
  state.counters["sim_ms"] = sim_millis;
  if (BenchRun* r = BenchJson::Get().Current()) r->sim_millis = sim_millis;
}

/// Standard skip for the paper's "crashed on this dataset" cases.
inline void SkipCrashed(benchmark::State& state, const Status& status) {
  state.SkipWithError(status.ToString().c_str());
  if (BenchRun* r = BenchJson::Get().Current()) {
    r->skipped = true;
    r->error = status.ToString();
  }
}

/// Fails the run the way SkipCrashed does when a system's result count
/// differs from the CPU oracle's, so a baseline comparison sees a wrong
/// count as a changed skip state. Returns whether the counts agree.
inline bool CheckCount(benchmark::State& state, uint64_t count,
                       uint64_t oracle) {
  if (count == oracle) return true;
  SkipCrashed(state, Status::Internal(
                         "count " + std::to_string(count) +
                         " differs from the CPU oracle's " +
                         std::to_string(oracle)));
  return false;
}

/// The CPU oracle's k-clique count on a bench dataset, computed once per
/// binary.
inline uint64_t OracleKCliques(const std::string& dataset, int k) {
  static auto* counts = new std::map<std::pair<std::string, int>, uint64_t>();
  auto [it, fresh] = counts->try_emplace({dataset, k}, 0);
  if (fresh) it->second = baselines::CpuKClique(Dataset(dataset), k, {}).count;
  return it->second;
}

/// The CPU oracle's embedding count of SM query `query` on a bench
/// dataset, computed once per binary.
inline uint64_t OracleSmEmbeddings(const std::string& dataset, int query) {
  static auto* counts = new std::map<std::pair<std::string, int>, uint64_t>();
  auto [it, fresh] = counts->try_emplace({dataset, query}, 0);
  if (fresh) {
    const graph::Graph& g = Dataset(dataset);
    it->second = baselines::CpuSubgraphMatch(
                     g, graph::Pattern::SmQuery(query, g.num_labels()), {},
                     /*symmetry_breaking=*/false)
                     .count;
  }
  return it->second;
}

/// Attaches the run's memory-traffic counters and per-phase simulated time
/// to the benchmark, so the reported table carries the same breakdown the
/// JSON profile exports (headline counters plus one `<phase>_ms` column
/// per engine phase that ran).
inline void ReportProfile(benchmark::State& state,
                          const gpusim::Device& device) {
  const gpusim::DeviceStats& s = device.stats();
  state.counters["um_faults"] = static_cast<double>(s.um_page_faults);
  state.counters["um_hits"] = static_cast<double>(s.um_page_hits);
  state.counters["um_migrated_B"] = static_cast<double>(s.um_migrated_bytes);
  state.counters["zc_tx"] = static_cast<double>(s.zc_transactions);
  state.counters["pool_wasted"] = static_cast<double>(s.pool_blocks_wasted);
  for (const gpusim::PhaseRecord& ph : device.profile().phases()) {
    state.counters[ph.name + "_ms"] =
        device.params().CyclesToMillis(ph.cycles);
  }
  if (BenchRun* r = BenchJson::Get().Current()) {
    r->cycles = device.now_cycles();
    r->device_memory_bytes = device.params().device_memory_bytes;
    r->um_device_buffer_bytes = device.params().um_device_buffer_bytes;
    r->num_warp_slots = device.params().num_warp_slots;
    r->streams = device.streams().num_streams();
    r->link_busy_cycles = device.streams().link_busy_cycles();
    r->peak_device_bytes = device.PeakDeviceBytes();
    r->peak_host_bytes = device.host_tracker().peak_bytes();
    r->counters = device.stats().Snapshot();
    r->phases = device.profile().phases();
    if (device.critpath().enabled()) {
      auto analyzed = prof::Analyze(device);
      if (analyzed.ok()) {
        const prof::CritpathReport& rep = analyzed.value();
        r->has_bottleneck = true;
        r->critpath_partial = rep.partial;
        r->critical_path_cycles = rep.critical_path_cycles;
        r->pcie_link_utilization = rep.pcie_link_utilization;
        r->binding = rep.binding;
        r->resource_cycles = rep.resource_cycles;
        r->whatifs = rep.whatifs;
        state.counters["critpath_cy"] = rep.critical_path_cycles;
      } else {
        std::fprintf(stderr, "critpath analysis failed for %s: %s\n",
                     r->name.c_str(),
                     analyzed.status().ToString().c_str());
      }
    }
  }
  WriteBenchTrace(device);
}

/// Attaches a run's adaptivity-audit totals to the current BenchJson
/// record and surfaces the regret as a benchmark counter.
inline void ReportAdaptivity(benchmark::State& state,
                             const core::AdaptivitySummary& summary) {
  if (!summary.enabled) return;
  state.counters["regret_cy"] = summary.regret_cycles;
  if (BenchRun* r = BenchJson::Get().Current()) r->adaptivity = summary;
}

/// Attaches a run's compiled-plan summary to the current BenchJson
/// record (emitted as the exact-valued "plan" object).
inline void ReportPlan(benchmark::State& state,
                       const core::PlanSummary& summary) {
  (void)state;
  if (!summary.enabled) return;
  if (BenchRun* r = BenchJson::Get().Current()) r->plan = summary;
}

/// Attaches a run's plan-profiler digest to the current BenchJson record
/// and surfaces the worst per-level Q-error as a benchmark counter.
inline void ReportPlanProf(benchmark::State& state,
                           const core::PlanProfSummary& summary) {
  if (!summary.enabled) return;
  state.counters["worst_q_err"] = summary.worst_q_error;
  if (BenchRun* r = BenchJson::Get().Current()) r->planprof = summary;
}

/// Registers a single-shot manual-time benchmark. The installed
/// google-benchmark lacks the variadic RegisterBenchmark overload, so
/// benches bind their arguments in a capturing lambda. The wrapper also
/// opens a BenchJson record per run (the installed benchmark::State has
/// no name accessor, so the name is threaded through here).
template <typename Fn>
benchmark::internal::Benchmark* RegisterSim(const std::string& name,
                                            Fn fn) {
  return benchmark::RegisterBenchmark(
             name.c_str(),
             [name, fn](benchmark::State& state) mutable {
               BenchJson::Get().BeginRun(name);
               BenchCurrentRunName() = name;
               const auto wall_start = std::chrono::steady_clock::now();
               fn(state);
               if (BenchRun* r = BenchJson::Get().Current()) {
                 r->wall_clock_ms =
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
                 r->host_threads = BenchHostThreads();
               }
             })
      ->UseManualTime()
      ->Iterations(1);
}

/// Shared bench-binary entry point: strips `--json=<file>` from the
/// arguments (everything else goes to google-benchmark as usual), runs
/// the registered benchmarks, and writes the `gamma.bench.v1` document
/// when requested. Call after registering all benchmarks:
///   `return bench::Main(argc, argv);`
inline int Main(int argc, char** argv) {
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      BenchTraceOutPrefix() = arg.substr(12);
    } else if (arg == "--planprof=off") {
      BenchPlanProf() = false;
    } else if (arg == "--planprof=on") {
      BenchPlanProf() = true;
    } else if (arg.rfind("--host-threads=", 0) == 0) {
      // The whole value must parse, and every Device starts N - 1 threads.
      const char* value = arg.c_str() + 15;
      const char* end = arg.c_str() + arg.size();
      int threads = 0;
      const auto [stop, ec] = std::from_chars(value, end, threads);
      if (ec != std::errc() || stop != end || threads < 1 ||
          threads > gpusim::kMaxHostThreads) {
        std::fprintf(stderr, "--host-threads wants an integer in [1, %d]\n",
                     gpusim::kMaxHostThreads);
        return 1;
      }
      BenchHostThreads() = threads;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!json_path.empty()) {
    std::string binary = argv[0];
    std::size_t slash = binary.find_last_of('/');
    if (slash != std::string::npos) binary = binary.substr(slash + 1);
    BenchJson::Get().Enable(json_path, binary);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty() && !BenchJson::Get().Write()) return 1;
  return 0;
}

}  // namespace gpm::bench

#endif  // GAMMA_BENCH_BENCH_COMMON_H_
