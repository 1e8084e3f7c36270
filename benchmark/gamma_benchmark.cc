// gamma_benchmark — host-time benchmark driver for the GAMMA engine.
//
//   gamma_benchmark gen --workload W --seed N --dir D
//       Writes the inputs of workload W into D: graphs with
//       graph::SaveBinary, pattern lists as one --pattern spec per line.
//       The same seed always writes the same files.
//
//   gamma_benchmark run --workload W --dir D --out F [--seconds S]
//                       [--min-passes N] [--max-passes N] [--trace]
//                       [--host-threads N] [--ablation-reps R] [--smoke]
//       Reads only those files. Discards one warm-up pass, runs timed
//       passes back to back (a closed loop with one client), each
//       followed by a fixed reference workload, until S seconds have
//       passed, then computes the CPU oracle once, checks every pass
//       against it and writes one JSON result document to F.
//       --trace alternates traced and untraced passes and records spans;
//       --ablation-reps adds passes with one observer at a time.
//
// Every query runs the way one gamma_cli invocation would: a fresh Device
// and GammaEngine, Prepare, PatternCompiler::Compile*, VerifiedPlan::Make
// and CompiledEngine::Run. The three compile/verify/run calls are made
// separately, as the src/algos presets make them, so each one is timed.
// benchmark/run.py builds this driver, runs it and turns the documents
// into metrics.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cpu_ref.h"
#include "baselines/presets.h"
#include "common/json.h"
#include "common/random.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/plan_verifier.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "graph/loader.h"
#include "graph/pattern.h"
#include "graph/reorder.h"

namespace {

using namespace gpm;

// -- Workloads ---------------------------------------------------------------

// Observers a query can run with; the bit order is the report order.
enum Observer : unsigned {
  kCommandLog = 1u << 0,
  kTimeline = 1u << 1,
  kPlanProfiler = 1u << 2,
  kAdaptivityAudit = 1u << 3,
  kMetricsSampler = 1u << 4,
  kSanitizer = 1u << 5,
};
constexpr const char* kObserverNames[] = {
    "command_log",      "timeline",        "plan_profiler",
    "adaptivity_audit", "metrics_sampler", "sanitizer"};
constexpr int kNumObservers = 6;
// What bench binaries and the gamma_cli --critpath-out / --trace-out /
// --planprof-out / --adaptivity-out / --metrics-out flags turn on. The
// sanitizer stays out: no workload runs it, the ablation measures it.
constexpr unsigned kObservedSet = kCommandLog | kTimeline | kPlanProfiler |
                                  kAdaptivityAudit | kMetricsSampler;
constexpr double kMetricsIntervalCycles = 100000;

enum class Task { kKClique, kFpm, kMatch };

struct Workload {
  const char* name;
  const char* graph;  // input stem: <dir>/<graph>.bin
  Task task;
  bool pattern_file;  // kMatch queries come from patterns.txt, not q1-q3
  bool threaded;      // kThreadedHostThreads host threads instead of 1
  unsigned observers;
};

constexpr Workload kWorkloads[] = {
    {"kcl-CL", "cl", Task::kKClique, false, false, 0},
    {"kcl-CL-mt", "cl", Task::kKClique, false, true, 0},
    {"fpm-CL", "cl", Task::kFpm, false, false, 0},
    {"sm-tiny-300", "er512", Task::kMatch, true, false, 0},
    {"sm-CL8-observed", "cl8", Task::kMatch, false, false, kObservedSet},
};

constexpr int kTinyPatterns = 300;
constexpr int kSmokePatterns = 30;
constexpr char kPatternFile[] = "patterns.txt";

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Host threads of a threaded workload. Any count above one runs the
// HostExecutor record/replay path. Two leave the other vCPUs of a small
// shared machine to everything else: with min(4, nproc) threads on the
// 4-vCPU test machine, a neighbour taking one vCPU stalled every parallel
// launch, and kcl-CL-mt's pass time spread by 21% over ten runs.
constexpr int kThreadedHostThreads = 2;

// The bench-scale platform (bench/bench_common.h): a 4 MiB device with a
// 256 KiB managed-page buffer, so every proxy graph is out of core.
gpusim::SimParams DeviceParams(int host_threads) {
  gpusim::SimParams p;
  p.device_memory_bytes = 4ull << 20;
  p.um_device_buffer_bytes = 256ull << 10;
  p.host_threads = host_threads;
  return p;
}

core::GammaOptions EngineOptions(unsigned observers) {
  core::GammaOptions options = baselines::GammaDefaultOptions();
  options.extension.pool_bytes = 2ull << 20;
  options.plan_profile = (observers & kPlanProfiler) != 0;
  options.adaptivity_audit = (observers & kAdaptivityAudit) != 0;
  return options;
}

// -- Inputs ------------------------------------------------------------------

// Every input keeps one fixed structure: the repository's proxies
// (MakeDataset at its default seed), one labeled Erdős–Rényi graph and one
// query list, all drawn from kStructureSeed. --seed then shuffles vertex
// ids within consecutive blocks of kRelabelBlock, which changes ids, the
// CSR layout and the ascending-id clique orientation but keeps the page
// locality the out-of-core engine depends on. Drawing the graphs from
// --seed instead moved simulated time by 11% (quartile spread over ten
// seeds) on fpm-CL and sm-CL8-observed, and drawing the queries from it
// moved sm-tiny-300's pass time by 2.5x, because a few sparse six-vertex
// patterns dominate a pass.
constexpr uint64_t kStructureSeed = 7;
constexpr std::size_t kRelabelBlock = 64;

// Random connected pattern with 3-6 vertices: a random spanning tree plus
// each remaining pair with probability kExtraEdge. A labeled pattern gives
// each vertex one of `num_labels` labels with probability one half.
constexpr double kExtraEdge = 0.35;

graph::Pattern RandomPattern(Rng* rng, uint32_t num_labels, bool labeled) {
  const int n = 3 + static_cast<int>(rng->NextBounded(4));
  graph::Pattern p(n);
  for (int v = 1; v < n; ++v) {
    p.AddEdge(static_cast<int>(rng->NextBounded(static_cast<uint64_t>(v))),
              v);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!p.HasEdge(i, j) && rng->NextBool(kExtraEdge)) p.AddEdge(i, j);
    }
  }
  if (labeled) {
    for (int i = 0; i < n; ++i) {
      if (rng->NextBool(0.5)) {
        p.SetLabel(i, static_cast<graph::Label>(rng->NextBounded(num_labels)));
      }
    }
  }
  return p;
}

// The inline --pattern spec ParsePattern reads back.
std::string PatternSpec(const graph::Pattern& p) {
  std::string s;
  for (const auto& [a, b] : p.EdgeList()) {
    if (!s.empty()) s += ',';
    s += std::to_string(a) + "-" + std::to_string(b);
  }
  if (p.labeled()) {
    s += ";labels=";
    for (int i = 0; i < p.num_vertices(); ++i) {
      if (i > 0) s += ',';
      s += p.label(i) == graph::Pattern::kAnyLabel
               ? std::string("*")
               : std::to_string(p.label(i));
    }
  }
  return s;
}

// `g` with vertex ids shuffled within consecutive blocks of kRelabelBlock.
graph::Graph Relabel(const graph::Graph& g, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x7e1abe1ull));
  std::vector<graph::VertexId> perm(g.num_vertices());
  std::iota(perm.begin(), perm.end(), graph::VertexId{0});
  for (std::size_t lo = 0; lo < perm.size(); lo += kRelabelBlock) {
    const std::size_t hi = std::min(perm.size(), lo + kRelabelBlock);
    for (std::size_t i = hi - 1; i > lo; --i) {  // Fisher-Yates on [lo, hi)
      std::swap(perm[i], perm[lo + rng.NextBounded(i - lo + 1)]);
    }
  }
  return graph::ApplyPermutation(g, perm);
}

std::string InputPath(const std::string& dir, const std::string& file) {
  return dir + "/" + file;
}

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  const std::string stem = w.graph;
  graph::Graph g;
  if (stem == "cl") {
    g = graph::MakeDataset("CL", kStructureSeed);
  } else if (stem == "cl8") {
    g = graph::MakeDataset("CL8", kStructureSeed);
  } else {
    Rng rng(Mix64(kStructureSeed ^ 0x5eed512ull));
    g = graph::ErdosRenyi(512, 2048, &rng);
    graph::AssignLabelsZipf(&g, 4, 0.5, &rng);
  }
  g = Relabel(g, seed);
  if (Status st = graph::SaveBinary(g, InputPath(dir, stem + ".bin"));
      !st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!w.pattern_file) return 0;
  Rng rng(Mix64(kStructureSeed ^ 0x9a77e2ull));
  std::ofstream out(InputPath(dir, kPatternFile));
  for (int i = 0; i < kTinyPatterns; ++i) {
    out << PatternSpec(RandomPattern(&rng, g.num_labels(), i % 2 == 1))
        << '\n';
  }
  if (!out) {
    std::fprintf(stderr, "gen: cannot write %s\n", kPatternFile);
    return 1;
  }
  return 0;
}

// -- Spans -------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

// The resident high-water mark since the last ResetPeakRss (VmHWM), or
// over the process's life where /proc does not give it.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Lowers the high-water mark to the current resident size.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// In-memory span recorder. Spans nest by scope; each records its name,
// parent, query id and pass, and stays in memory until the result
// document is written. Disabled, a scope costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    int32_t parent;
    int32_t query;
    int32_t pass;
    int64_t start_ns;
    int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int32_t query) : tracer_(tracer) {
      if (!tracer_->enabled_) return;
      index_ = static_cast<int32_t>(tracer_->spans_.size());
      tracer_->spans_.push_back(
          {name, tracer_->open_, query, tracer_->pass_, NowNs(), 0});
      tracer_->open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
      span.end_ns = NowNs();
      tracer_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_pass(int32_t pass) { pass_ = pass; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  int32_t pass_ = -1;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

// Seconds one span costs to record: opens and closes nested pairs of
// scopes in a scratch tracer. With the spans a traced pass records, this
// bounds the tracing overhead far tighter than comparing traced and
// untraced passes can on a noisy machine.
double SpanCostSeconds() {
  constexpr int kPairs = 1 << 16;
  Tracer tracer;
  tracer.set_enabled(true);
  const int64_t t0 = NowNs();
  for (int i = 0; i < kPairs; ++i) {
    Tracer::Scope outer(&tracer, "calibrate", i);
    Tracer::Scope inner(&tracer, "calibrate", i);
  }
  return static_cast<double>(NowNs() - t0) * 1e-9 / (2 * kPairs);
}

// -- Reference workload ------------------------------------------------------

// Seconds one run of a fixed host workload takes: filling 16 MiB of fresh
// pages, sorting, sorted-list intersections, hash-table probes and many
// small vector allocations, the kinds of work the simulator's host code
// does. It uses only the standard library and this file, so no change to
// src/ moves it; only the speed of the machine does. On a shared host the
// neighbours slow every instruction, by up to 1.7x for seconds to minutes
// at a time, and this loop slows in much the same proportion as a pass
// run beside it (on the 4-vCPU test machine, over ten runs of each
// workload, the log of a run's median pass time correlates at 0.82-0.97
// with the log of its median reference time), so run.py divides one by
// the other. The large buffers are mapped and unmapped here, so they
// never stay resident after the call.
volatile uint64_t reference_sink;  // keeps the loop's results live

double ReferenceSeconds() {
  constexpr std::size_t kTable = std::size_t{1} << 22;  // 4 Mi words
  constexpr std::size_t kSorted = std::size_t{1} << 18;
  constexpr std::size_t kList = 4096;
  constexpr int kSlotBits = 18;  // hash table
  constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  constexpr std::size_t kProbes = std::size_t{1} << 20;
  constexpr int kAllocs = 200000;
  constexpr std::size_t kLive = 4096;  // small vectors kept at once
  constexpr std::size_t kWords = kTable + kSorted + kList + 2 * kSlots;
  const int64_t t0 = NowNs();
  void* arena = mmap(nullptr, kWords * sizeof(uint32_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (arena == MAP_FAILED) {
    std::perror("mmap");
    std::exit(1);
  }
  uint32_t* table = static_cast<uint32_t*>(arena);
  uint32_t* sorted = table + kTable;
  uint32_t* list = sorted + kSorted;
  uint32_t* keys = list + kList;
  uint32_t* counts = keys + kSlots;
  uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift64
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 0; i < kTable; ++i) {
    table[i] = static_cast<uint32_t>(next());
  }
  uint64_t sink = 0;
  std::copy(table, table + kSorted, sorted);
  std::sort(sorted, sorted + kSorted);
  for (std::size_t a = 0; a + 2 * kList <= kSorted; a += 2 * kList) {
    const uint32_t* l = sorted + a;
    for (std::size_t i = 0; i < kList; ++i) {
      list[i] = sorted[a + next() % (2 * kList)];
    }
    std::sort(list, list + kList);
    std::size_t i = 0, j = 0;
    while (i < kList && j < kList) {
      if (l[i] < list[j]) {
        ++i;
      } else if (list[j] < l[i]) {
        ++j;
      } else {
        sink += l[i];
        ++i;
        ++j;
      }
    }
  }
  // Linear probing over keys 1..kSlots/2, so the table never fills.
  for (std::size_t i = 0; i < kProbes; ++i) {
    const uint32_t key = static_cast<uint32_t>(next() % (kSlots / 2)) + 1;
    std::size_t slot = (key * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits);
    while (keys[slot] != 0 && keys[slot] != key) {
      slot = (slot + 1) & (kSlots - 1);
    }
    keys[slot] = key;
    sink += ++counts[slot];
  }
  munmap(arena, kWords * sizeof(uint32_t));
  std::vector<std::vector<uint32_t>> live;
  for (int i = 0; i < kAllocs; ++i) {
    std::vector<uint32_t> v;
    const uint32_t n = static_cast<uint32_t>(next() % 64);
    for (uint32_t k = 0; k < n; ++k) v.push_back(k);
    sink += v.size();
    if (next() % 2) live.push_back(std::move(v));
    if (live.size() > kLive) live.clear();
  }
  reference_sink = sink;
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

// -- Queries -----------------------------------------------------------------

struct Query {
  std::string name;
  Task task = Task::kKClique;
  int k = 0;
  int max_edges = 0;
  uint64_t min_support = 0;
  graph::Pattern pattern;
  bool plan_auto = false;  // gamma_cli --plan-auto compile options
};

// The CPU oracle's answer for one query.
struct Expected {
  uint64_t embeddings = 0;  // kKClique: cliques; kMatch: all embeddings
  uint64_t automorphisms = 1;
  std::vector<std::pair<uint64_t, uint64_t>> supports;  // kFpm (code, sup)
};

// The part of a query's result the oracle checks, kept for every pass.
struct Answer {
  std::string error;  // empty = every step returned OK
  uint64_t embeddings = 0;
  uint64_t instances = 0;
  bool symmetry_broken = false;
  std::vector<std::pair<uint64_t, uint64_t>> supports;
  friend bool operator==(const Answer&, const Answer&) = default;
};

// What one query execution produced. All of it is deterministic, so every
// later pass must reproduce the first exactly.
struct Outcome {
  Answer answer;
  double sim_ms = 0;
  std::size_t sim_peak_bytes = 0;
  gpusim::DeviceStats stats;
  std::vector<gpusim::PhaseRecord> phases;
  int verify_obligations = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;
  double worst_q_error = 0;
  double plan_imbalance = 0;
  uint64_t command_records = 0;
  uint64_t timeline_events = 0;
  uint64_t observer_dropped = 0;
  std::size_t render_bytes = 0;
};

std::vector<std::pair<uint64_t, uint64_t>> Supports(
    const core::PatternTable& table) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const core::PatternEntry& e : table.entries()) {
    if (e.valid) out.emplace_back(e.code, e.support);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Expected ComputeOracle(const graph::Graph& g, const Query& q) {
  Expected e;
  const baselines::CpuModel model;
  switch (q.task) {
    case Task::kKClique:
      e.embeddings = baselines::CpuKClique(g, q.k, model).count;
      break;
    case Task::kFpm:
      e.supports = Supports(baselines::CpuFpmEmbeddingCentric(
                                g, q.max_edges, q.min_support, model)
                                .patterns);
      break;
    case Task::kMatch:
      e.embeddings = graph::CountEmbeddings(g, q.pattern);
      e.automorphisms =
          static_cast<uint64_t>(q.pattern.CountAutomorphisms());
      break;
  }
  return e;
}

// Empty when `a` agrees with the oracle; otherwise what went wrong.
std::string CheckOracle(const Query& q, const Expected& e, const Answer& a) {
  if (!a.error.empty()) return a.error;
  switch (q.task) {
    case Task::kKClique:
      if (a.embeddings != e.embeddings) return "clique count differs";
      break;
    case Task::kFpm:
      if (a.supports != e.supports) return "frequent patterns differ";
      break;
    case Task::kMatch: {
      const uint64_t got = a.symmetry_broken
                               ? a.instances * e.automorphisms
                               : a.embeddings;
      if (got != e.embeddings) return "embedding count differs";
      break;
    }
  }
  return "";
}

bool SameSimulation(const Outcome& a, const Outcome& b) {
  if (!(a.answer == b.answer) || a.sim_ms != b.sim_ms ||
      a.sim_peak_bytes != b.sim_peak_bytes) {
    return false;
  }
  for (const gpusim::DeviceStats::Field& f : gpusim::DeviceStats::Fields()) {
    if (a.stats.*f.member != b.stats.*f.member) return false;
  }
  return true;
}

Result<core::CompiledPlan> Compile(const graph::Graph& g, const Query& q) {
  core::PatternCompiler compiler(&g);
  switch (q.task) {
    case Task::kKClique:
      return compiler.CompileKClique(q.k, /*count_only_last=*/false);
    case Task::kFpm:
      return compiler.CompileFpm(q.max_edges, q.min_support);
    case Task::kMatch: {
      core::CompileOptions options;
      if (q.plan_auto) {
        options.plan_strategy = core::PlanStrategy::kGreedyCardinality;
        options.break_symmetry = true;
        options.fold_ascending = true;
        options.input_aware = true;
      }
      return compiler.CompileMatch(q.pattern, options);
    }
  }
  return Status::InvalidArgument("unknown task");
}

void AttachDeviceObservers(gpusim::Device* device, unsigned observers) {
  if (observers & kCommandLog) device->critpath().set_enabled(true);
  if (observers & kTimeline) device->trace().set_enabled(true);
  if (observers & kMetricsSampler) {
    device->metrics().set_interval_cycles(kMetricsIntervalCycles);
  }
  if (observers & kSanitizer) {
    device->EnableSanitizer(gpusim::Sanitizer::Options{});
  }
}

// Runs prof::Analyze (command log) and renders every attached observer's
// JSON document in memory, as the gamma_cli --*-out flags would.
Status AnalyzeAndRender(gpusim::Device* device, core::GammaEngine* engine,
                        unsigned observers, Tracer* tracer, int32_t qid,
                        Outcome* out) {
  std::optional<prof::CritpathReport> critpath;
  if (observers & kCommandLog) {
    Tracer::Scope span(tracer, "observer.analyze", qid);
    auto analyzed = prof::Analyze(*device);
    if (!analyzed.ok()) return analyzed.status();
    critpath = std::move(analyzed).value();
  }
  Tracer::Scope span(tracer, "observer.render", qid);
  std::size_t bytes = critpath ? critpath->ToJson().size() : 0;
  if (observers & kTimeline) {
    bytes += device->trace().ToChromeTraceJson(device->params()).size();
  }
  if ((observers & kPlanProfiler) && engine->plan_profiler() != nullptr) {
    bytes += engine->plan_profiler()->ToJson().size();
  }
  if ((observers & kAdaptivityAudit) && engine->audit() != nullptr) {
    bytes += engine->audit()->ToJson().size();
  }
  if (observers & kMetricsSampler) {
    device->metrics().ForceSample(*device);
    bytes += device->metrics().ToJson(*device).size();
  }
  if ((observers & kSanitizer) && device->sanitizer() != nullptr) {
    bytes += device->sanitizer()->ToJson().size();
  }
  out->render_bytes = bytes;
  return Status::Ok();
}

Outcome RunQuery(const graph::Graph& g, const Query& q, int host_threads,
                 unsigned observers, Tracer* tracer, int32_t qid) {
  Outcome out;
  Tracer::Scope root(tracer, "query", qid);
  std::unique_ptr<gpusim::Device> device;
  std::unique_ptr<core::GammaEngine> engine;
  {
    Tracer::Scope span(tracer, "gpusim.device_init", qid);
    device = std::make_unique<gpusim::Device>(DeviceParams(host_threads));
    AttachDeviceObservers(device.get(), observers);
    engine = std::make_unique<core::GammaEngine>(device.get(), &g,
                                                 EngineOptions(observers));
  }
  Status status;
  Result<core::CompiledRunResult> run =
      Status::Internal("query did not run");
  {
    Tracer::Scope span(tracer, "core.prepare", qid);
    status = engine->Prepare();
  }
  if (status.ok()) {
    Result<core::CompiledPlan> plan = Status::Internal("not compiled");
    {
      Tracer::Scope span(tracer, "core.compile", qid);
      plan = Compile(g, q);
    }
    Result<core::VerifiedPlan> verified = Status::Internal("not verified");
    if (plan.ok()) {
      Tracer::Scope span(tracer, "core.verify", qid);
      verified = core::VerifiedPlan::Make(
          std::move(plan).value(),
          core::CompiledEngine(engine.get()).MakeVerifyOptions());
    }
    if (verified.ok()) {
      {
        Tracer::Scope span(tracer, "core.execute", qid);
        run = core::CompiledEngine(engine.get()).Run(verified.value());
      }
      out.verify_obligations = verified.value().report().obligations_checked;
      out.answer.symmetry_broken = verified.value().plan().symmetry_broken;
    }
    status = !plan.ok()       ? plan.status()
             : !verified.ok() ? verified.status()
                              : run.status();
  }
  if (status.ok() && observers != 0) {
    status = AnalyzeAndRender(device.get(), engine.get(), observers, tracer,
                              qid, &out);
  }
  if (!status.ok()) {
    out.answer.error = status.ToString();
  } else {
    const core::CompiledRunResult& r = run.value();
    out.answer.embeddings = r.embeddings;
    out.answer.instances = r.instances;
    if (q.task == Task::kFpm) out.answer.supports = Supports(r.patterns);
    out.sim_ms = r.sim_millis;
    for (const core::ExtensionStats& s : r.steps) {
      out.candidates += s.candidates;
      out.results += s.results;
    }
  }
  out.sim_peak_bytes =
      device->PeakDeviceBytes() + device->host_tracker().peak_bytes();
  out.stats = device->stats();
  out.phases = device->profile().phases();
  if (core::PlanProfiler* prof = engine->plan_profiler();
      prof != nullptr && prof->has_run()) {
    const core::PlanProfSummary summary = prof->Summary();
    out.worst_q_error = summary.worst_q_error;
    out.plan_imbalance = summary.imbalance;
  }
  out.command_records = device->critpath().commands().size();
  out.timeline_events = device->trace().events().size();
  out.observer_dropped =
      device->critpath().dropped() + device->trace().dropped_events();
  {
    Tracer::Scope span(tracer, "gpusim.teardown", qid);
    engine.reset();
    device.reset();
  }
  return out;
}

// -- Run ---------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::string dir;
  std::string out;
  uint64_t seed = 7;
  double seconds = 16;
  int min_passes = 3;
  int max_passes = 1000;
  bool trace = false;
  bool smoke = false;
  int host_threads = 0;  // 0 = the workload's own setting
  int ablation_reps = 0;
};

struct SetupTimes {
  std::vector<double> setup_s, load_s, edge_index_s, parse_s;
};

// Sets the workload up from its input files: loads the graph, builds its
// edge index and parses the query list, timing each step. Repeats at
// least `min_reps` times and until `min_seconds` have passed, so that
// sub-millisecond set-ups still give enough samples; `g` and `patterns`
// keep the last copy.
Status SetUp(const Workload& w, const std::string& dir, int min_reps,
             double min_seconds, Tracer* tracer, SetupTimes* setup,
             graph::Graph* g, std::vector<graph::Pattern>* patterns) {
  const std::string graph_path = InputPath(dir, std::string(w.graph) + ".bin");
  const int64_t begin = NowNs();
  for (int rep = 0;; ++rep) {
    const double elapsed = static_cast<double>(NowNs() - begin) * 1e-9;
    if (rep >= min_reps && elapsed >= min_seconds) break;
    Tracer::Scope root(tracer, "setup", -1);
    const int64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer, "graph.load", -1);
      auto loaded = graph::LoadBinary(graph_path);
      if (!loaded.ok()) return loaded.status();
      *g = std::move(loaded).value();
    }
    const int64_t t1 = NowNs();
    {
      Tracer::Scope span(tracer, "graph.edge_index", -1);
      g->EnsureEdgeIndex();
    }
    const int64_t t2 = NowNs();
    if (w.pattern_file) {
      Tracer::Scope span(tracer, "graph.parse_patterns", -1);
      std::ifstream in(InputPath(dir, kPatternFile));
      if (!in) return Status::NotFound("cannot open " + std::string(kPatternFile));
      patterns->clear();
      std::string line;
      while (std::getline(in, line)) {
        auto p = graph::ParsePattern(line);
        if (!p.ok()) return p.status();
        patterns->push_back(std::move(p).value());
      }
    }
    const int64_t t3 = NowNs();
    setup->load_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup->edge_index_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    setup->parse_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
    setup->setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
  }
  return Status::Ok();
}

std::vector<Query> MakeQueries(const Workload& w, const graph::Graph& g,
                               const std::vector<graph::Pattern>& patterns,
                               bool smoke) {
  std::vector<Query> queries;
  switch (w.task) {
    case Task::kKClique:
      for (int k : {4, 5}) {
        if (smoke && k > 4) break;
        Query q;
        q.name = "kcl-" + std::to_string(k);
        q.task = Task::kKClique;
        q.k = k;
        queries.push_back(q);
      }
      break;
    case Task::kFpm: {
      Query q;
      q.name = "fpm-2";
      q.task = Task::kFpm;
      q.max_edges = 2;
      q.min_support = g.num_edges() / 10;
      queries.push_back(q);
      break;
    }
    case Task::kMatch:
      if (w.pattern_file) {
        const std::size_t n =
            smoke ? std::min<std::size_t>(kSmokePatterns, patterns.size())
                  : patterns.size();
        for (std::size_t i = 0; i < n; ++i) {
          Query q;
          q.name = "p" + std::to_string(i);
          q.task = Task::kMatch;
          q.pattern = patterns[i];
          q.plan_auto = true;
          queries.push_back(q);
        }
      } else {
        for (int which = 1; which <= 3; ++which) {
          Query q;
          q.name = "q" + std::to_string(which);
          q.task = Task::kMatch;
          q.pattern = graph::Pattern::SmQuery(which, g.num_labels());
          queries.push_back(q);
        }
      }
      break;
  }
  return queries;
}

struct PassRecord {
  std::string config;  // "workload" or an ablation observer set
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
};

// Folds the deterministic parts of every query outcome into one digest,
// so two processes can show they simulated exactly the same thing.
uint64_t Digest(const std::vector<Outcome>& outcomes) {
  uint64_t h = 0x6a09e667f3bcc909ull;
  auto mix = [&h](uint64_t v) { h = Mix64(h ^ v); };
  for (const Outcome& o : outcomes) {
    mix(o.answer.embeddings);
    mix(o.answer.instances);
    for (const auto& [code, support] : o.answer.supports) {
      mix(code);
      mix(support);
    }
    uint64_t bits = 0;
    std::memcpy(&bits, &o.sim_ms, sizeof bits);
    mix(bits);
    mix(o.sim_peak_bytes);
    for (const gpusim::DeviceStats::Field& f :
         gpusim::DeviceStats::Fields()) {
      mix(o.stats.*f.member);
    }
  }
  return h;
}

// Runs passes over a fixed query list and keeps what the checks need.
class Runner {
 public:
  Runner(const graph::Graph& g, const std::vector<Query>& queries,
         int host_threads, Tracer* tracer)
      : g_(g), queries_(queries), host_threads_(host_threads), tracer_(tracer) {}

  const std::vector<PassRecord>& passes() const { return passes_; }
  const PassRecord& warmup() const { return warmup_; }
  const std::vector<Outcome>& reference() const { return reference_; }

  // One pass over every query. The first pass is the warm-up: it is not
  // timed into the results and becomes the reference that every later
  // pass must reproduce exactly.
  void Pass(const std::string& config, unsigned observers, bool traced) {
    tracer_->set_enabled(traced);
    tracer_->set_pass(static_cast<int32_t>(passes_.size()));
    std::vector<Outcome> outcomes;
    outcomes.reserve(queries_.size());
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    for (const Query& q : queries_) {
      outcomes.push_back(RunQuery(g_, q, host_threads_, observers, tracer_,
                                  next_query_id_++));
    }
    const int64_t t1 = NowNs();
    const double cpu1 = CpuSeconds();
    tracer_->set_enabled(false);

    PassRecord rec;
    rec.config = config;
    rec.traced = traced;
    rec.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    rec.cpu_s = cpu1 - cpu0;
    const bool warmup = reference_.empty();
    std::vector<Answer> answers;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      Outcome& out = outcomes[i];
      if (!warmup && out.answer.error.empty() &&
          !SameSimulation(out, reference_[i])) {
        out.answer.error = "simulated results differ from the warm-up";
      }
      answers.push_back(out.answer);
    }
    answers_.push_back(std::move(answers));
    if (warmup) {
      reference_ = std::move(outcomes);
      warmup_ = rec;
    } else {
      passes_.push_back(rec);
    }
  }

  // Checks every pass, warm-up included, against the oracle. Returns the
  // number of failed query executions; `attempted` gets the total.
  uint64_t Check(const std::vector<Expected>& expected, uint64_t* attempted,
                 std::vector<std::string>* errors) {
    uint64_t failed = 0;
    *attempted = 0;
    for (std::size_t p = 0; p < answers_.size(); ++p) {
      for (std::size_t i = 0; i < queries_.size(); ++i) {
        std::string error =
            CheckOracle(queries_[i], expected[i], answers_[p][i]);
        ++*attempted;
        if (error.empty()) continue;
        ++failed;
        if (errors->size() < 20) {
          errors->push_back(queries_[i].name + ": " + error);
        }
      }
    }
    return failed;
  }

 private:
  const graph::Graph& g_;
  const std::vector<Query>& queries_;
  int host_threads_;
  Tracer* tracer_;
  int32_t next_query_id_ = 0;
  std::vector<Outcome> reference_;
  PassRecord warmup_;
  std::vector<PassRecord> passes_;
  std::vector<std::vector<Answer>> answers_;  // [pass][query], warm-up first
};

void WriteSeries(JsonWriter& w, const char* key,
                 const std::vector<double>& values) {
  w.Key(key).BeginArray();
  for (double v : values) w.Value(v);
  w.EndArray();
}

// Per-pass deterministic counters, summed over the reference pass; peak
// memory is the maximum over its queries.
void WriteCounters(JsonWriter& w, const std::vector<Outcome>& ref) {
  double sim_ms = 0;
  std::size_t sim_peak_bytes = 0;
  gpusim::DeviceStats total;
  std::vector<std::pair<std::string, double>> phase_ms;
  int obligations = 0;
  uint64_t candidates = 0, results = 0, records = 0, events = 0, dropped = 0;
  std::size_t render_bytes = 0;
  double q_error = 0, imbalance = 0;
  for (const Outcome& o : ref) {
    sim_ms += o.sim_ms;
    sim_peak_bytes = std::max(sim_peak_bytes, o.sim_peak_bytes);
    for (const gpusim::DeviceStats::Field& f :
         gpusim::DeviceStats::Fields()) {
      total.*f.member += o.stats.*f.member;
    }
    for (const gpusim::PhaseRecord& ph : o.phases) {
      auto it = std::find_if(phase_ms.begin(), phase_ms.end(),
                             [&](const auto& e) { return e.first == ph.name; });
      const double ms = DeviceParams(1).CyclesToMillis(ph.cycles);
      if (it == phase_ms.end()) {
        phase_ms.emplace_back(ph.name, ms);
      } else {
        it->second += ms;
      }
    }
    obligations += o.verify_obligations;
    candidates += o.candidates;
    results += o.results;
    records += o.command_records;
    events += o.timeline_events;
    dropped += o.observer_dropped;
    render_bytes += o.render_bytes;
    q_error = std::max(q_error, o.worst_q_error);
    imbalance = std::max(imbalance, o.plan_imbalance);
  }
  w.Key("counters").BeginObject();
  w.Key("sim_ms").Value(sim_ms);
  w.Key("sim_peak_mib").Value(static_cast<double>(sim_peak_bytes) / 1048576.0);
  for (const gpusim::DeviceStats::Field& f : gpusim::DeviceStats::Fields()) {
    w.Key(f.name).Value(total.*f.member);
  }
  w.Key("phase_sim_ms").BeginObject();
  for (const auto& [name, ms] : phase_ms) w.Key(name).Value(ms);
  w.EndObject();
  w.Key("verify_obligations").Value(obligations);
  w.Key("extension_candidates").Value(candidates);
  w.Key("extension_results").Value(results);
  w.Key("worst_q_error").Value(q_error);
  w.Key("plan_imbalance").Value(imbalance);
  w.Key("command_records").Value(records);
  w.Key("timeline_events").Value(events);
  w.Key("observer_dropped").Value(dropped);
  w.Key("render_bytes").Value(render_bytes);
  w.EndObject();
}

int Run(const Workload& w, const RunOptions& o) {
  Tracer tracer;
  tracer.set_enabled(o.trace);
  SetupTimes setup;
  graph::Graph g;
  std::vector<graph::Pattern> patterns;
  if (Status st = SetUp(w, o.dir, 1, 0, &tracer, &setup, &g, &patterns);
      !st.ok()) {
    std::fprintf(stderr, "run: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::vector<Query> queries = MakeQueries(w, g, patterns, o.smoke);
  const int host_threads = o.host_threads > 0 ? o.host_threads
                           : w.threaded       ? kThreadedHostThreads
                                              : 1;

  Runner runner(g, queries, host_threads, &tracer);
  runner.Pass("workload", w.observers, /*traced=*/false);  // warm-up
  // Timed passes. With --trace, traced and untraced passes alternate in
  // the order T U U T, so that pairing passes 2k and 2k+1 cancels a steady
  // drift of the machine's speed out of the tracing overhead.
  //
  // The reference workload runs before the first timed pass and after
  // every one, so each pass has a reference on either side. Set-up
  // repetitions follow each reference, so nearly all set-up samples come
  // from the same stretch of time as the passes and the references. The
  // reference's memory is kept out of the peak: the high-water mark is
  // read before each reference run and reset after it.
  double peak_rss_mib = 0;
  std::vector<double> reference_s;
  auto reference = [&peak_rss_mib, &reference_s]() {
    peak_rss_mib = std::max(peak_rss_mib, PeakRssMiB());
    reference_s.push_back(ReferenceSeconds());
    ResetPeakRss();
  };
  reference();
  const int64_t begin = NowNs();
  for (int i = 0; i < o.max_passes; ++i) {
    const double elapsed = static_cast<double>(NowNs() - begin) * 1e-9;
    if (i >= o.min_passes && elapsed >= o.seconds) break;
    runner.Pass("workload", w.observers, o.trace && (i % 4 == 0 || i % 4 == 3));
    reference();
    graph::Graph scratch;
    std::vector<graph::Pattern> scratch_patterns;
    if (Status st = SetUp(w, o.dir, 1, 0.02, &tracer, &setup, &scratch,
                          &scratch_patterns);
        !st.ok()) {
      std::fprintf(stderr, "run: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  // Read before the oracle runs, so the high-water mark is the engine's.
  peak_rss_mib = std::max(peak_rss_mib, PeakRssMiB());
  // Observer ablation: all observers off, then each alone, round-robin.
  for (int rep = 0; rep < o.ablation_reps; ++rep) {
    runner.Pass("none", 0, false);
    for (int b = 0; b < kNumObservers; ++b) {
      runner.Pass(kObserverNames[b], 1u << b, false);
    }
  }

  const int64_t oracle0 = NowNs();
  std::vector<Expected> expected;
  for (const Query& q : queries) expected.push_back(ComputeOracle(g, q));
  const double oracle_s = static_cast<double>(NowNs() - oracle0) * 1e-9;
  uint64_t attempted = 0;
  std::vector<std::string> errors;
  const uint64_t failed = runner.Check(expected, &attempted, &errors);

  std::ostringstream os;
  JsonWriter jw(os, 0);
  jw.BeginObject();
  jw.Key("schema").Value("gamma.benchmark.run.v1");
  jw.Key("workload").Value(w.name);
  jw.Key("host_threads").Value(host_threads);
  jw.Key("queries").Value(queries.size());
  jw.Key("setup").BeginObject();
  WriteSeries(jw, "setup_s", setup.setup_s);
  WriteSeries(jw, "load_s", setup.load_s);
  WriteSeries(jw, "edge_index_s", setup.edge_index_s);
  WriteSeries(jw, "parse_s", setup.parse_s);
  jw.EndObject();
  WriteSeries(jw, "reference_s", reference_s);
  jw.Key("oracle_s").Value(oracle_s);
  jw.Key("warmup_s").Value(runner.warmup().wall_s);
  jw.Key("span_cost_s").Value(o.trace ? SpanCostSeconds() : 0.0);
  jw.Key("passes").BeginArray();
  for (const PassRecord& p : runner.passes()) {
    jw.BeginObject();
    jw.Key("config").Value(p.config);
    jw.Key("traced").Value(p.traced);
    jw.Key("wall_s").Value(p.wall_s);
    jw.Key("cpu_s").Value(p.cpu_s);
    jw.EndObject();
  }
  jw.EndArray();
  jw.Key("attempted").Value(attempted);
  jw.Key("failed").Value(failed);
  jw.Key("errors").BeginArray();
  for (const std::string& e : errors) jw.Value(e);
  jw.EndArray();
  jw.Key("peak_rss_mib").Value(peak_rss_mib);
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(Digest(runner.reference())));
  jw.Key("sim_digest").Value(digest);
  WriteCounters(jw, runner.reference());
  // Spans as [name, parent, query, pass, start_ns, end_ns]. Setup spans
  // carry pass -1; a parent is an index into this array.
  jw.Key("spans").BeginArray();
  for (const Tracer::Span& s : tracer.spans()) {
    jw.BeginArray();
    jw.Value(s.name);
    jw.Value(s.parent);
    jw.Value(s.query);
    jw.Value(s.pass);
    jw.Value(s.start_ns);
    jw.Value(s.end_ns);
    jw.EndArray();
  }
  jw.EndArray();
  jw.EndObject();
  os << '\n';

  std::ofstream out(o.out);
  out << os.str();
  if (!out) {
    std::fprintf(stderr, "run: cannot write %s\n", o.out.c_str());
    return 1;
  }
  return 0;
}

// -- Command line ------------------------------------------------------------

void Usage() {
  std::fputs(
      "usage: gamma_benchmark gen --workload W --seed N --dir D\n"
      "       gamma_benchmark run --workload W --dir D --out F [--seconds S]\n"
      "           [--min-passes N] [--max-passes N] [--trace]\n"
      "           [--host-threads N] [--ablation-reps R] [--smoke]\n"
      "workloads: kcl-CL kcl-CL-mt fpm-CL sm-tiny-300 sm-CL8-observed\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string mode = argv[1];
  RunOptions o;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      if (v == nullptr) {
        std::fprintf(stderr, "%s wants a value\n", a.c_str());
        std::exit(2);
      }
      ++i;
      return v;
    };
    if (a == "--workload") {
      o.workload = take();
    } else if (a == "--dir") {
      o.dir = take();
    } else if (a == "--out") {
      o.out = take();
    } else if (a == "--seed") {
      o.seed = std::strtoull(take(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(take(), nullptr);
    } else if (a == "--min-passes") {
      o.min_passes = std::atoi(take());
    } else if (a == "--max-passes") {
      o.max_passes = std::atoi(take());
    } else if (a == "--host-threads") {
      o.host_threads = std::atoi(take());
    } else if (a == "--ablation-reps") {
      o.ablation_reps = std::atoi(take());
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      Usage();
      return 2;
    }
  }
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr || o.dir.empty()) {
    Usage();
    return 2;
  }
  if (mode == "gen") return Generate(*w, o.seed, o.dir);
  if (mode == "run" && !o.out.empty()) return Run(*w, o);
  Usage();
  return 2;
}
