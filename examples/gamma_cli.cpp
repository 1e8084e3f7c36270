// gamma_cli — command-line driver for the framework: pick a dataset proxy
// (or load an edge list), a workload, and platform/framework options, run
// it on the simulated device, and print results plus hardware counters.
//
// Examples:
//   gamma_cli --dataset CL --task kcl --k 4
//   gamma_cli --dataset CP --task sm --query 2 --placement zerocopy
//   gamma_cli --dataset ER --task fpm --minsup 300 --strategy naive
//   gamma_cli --graph my_edges.txt --task motif --k 3
//   gamma_cli --dataset CP --task kcl --k 4 --observe profile,critpath
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/presets.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/plan_io.h"
#include "core/plan_verifier.h"
#include "graph/datasets.h"
#include "graph/loader.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"

namespace {

using namespace gpm;

// The documents --observe writes, named by the middle word of their schema:
// gamma.<name>.v1 goes to <out-dir>/<name>.json.
constexpr std::array<std::string_view, 8> kDocuments = {
    "plan",    "profile",    "trace",    "critpath",
    "metrics", "adaptivity", "planprof", "check"};

struct CliOptions {
  std::string dataset = "CP";
  std::string graph_path;
  std::string task = "kcl";
  bool task_set = false;
  int k = 3;
  int query = 1;
  std::string pattern_text;
  std::string pattern_preset;
  std::string verify_plan_path;
  bool verify_plan = false;
  bool verify_json = false;
  bool plan_auto = false;
  bool explain = false;
  bool explain_analyze = false;
  int fpm_edges = 3;
  uint64_t minsup = 0;  // 0 = |E|/10
  std::string placement = "hybrid";
  std::string strategy = "dynamic";
  bool pre_merge = true;
  std::size_t streams = 1;
  std::size_t extension_chunk_rows = 0;  // 0 = keep the default
  bool symmetric = false;
  std::size_t device_mb = 16;
  int warps = 64;
  int host_threads = 1;
  bool show_stats = false;
  bool trace = false;
  std::set<std::string> observe;  // names from kDocuments
  std::string out_dir = ".";
  std::size_t trace_capacity = 0;  // 0 = keep the default
  double metrics_interval = 100000;
  bool check = false;
  std::string check_list;  // empty = all checkers
};

static_assert(gpusim::kMaxHostThreads == 256,
              "Usage() names the --host-threads cap");

void Usage() {
  std::puts(
      "usage: gamma_cli [options]\n"
      "  --dataset NAME     Table II proxy: CP CL CO EA ER CL8 SL5 UK IT TW\n"
      "  --graph PATH       edge-list file instead of a proxy\n"
      "  --task T           kcl | sm | fpm | motif\n"
      "  --k N              clique/motif size (default 3)\n"
      "  --query N          SM query 1..3 (Fig. 13)\n"
      "  --pattern P        custom SM pattern: an inline spec like\n"
      "                     0-1,1-2,2-0;labels=0,1,* or the path of a\n"
      "                     pattern file ('u v' edge lines, optional\n"
      "                     'labels l0 l1 ...' line with * wildcards,\n"
      "                     # comments). Implies --task sm\n"
      "  --pattern-preset N canned pattern: triangle | clique4 | clique5 |\n"
      "                     path3 | path4 | cycle4 | cycle5 | star3 |\n"
      "                     diamond | tailed-triangle | q1 | q2 | q3.\n"
      "                     Implies --task sm\n"
      "  --verify-plan F    load a gamma.plan.v1 document from F and run\n"
      "                     the static soundness verifier against the\n"
      "                     selected graph without executing anything.\n"
      "                     Prints the obligation report and exits 0 if\n"
      "                     the plan is verified, 2 if it is refuted or\n"
      "                     malformed. --verify-plan=json F emits the\n"
      "                     gamma.verify.v1 JSON report on stdout instead\n"
      "  --plan-auto        input-aware compilation for SM: greedy\n"
      "                     cardinality order, automatic symmetry\n"
      "                     breaking, statistics-driven start mode and\n"
      "                     per-level write strategies\n"
      "  --explain          print the compiled plan as an aligned table\n"
      "                     (levels, estimates, strategies) and exit\n"
      "                     without running\n"
      "  --explain-analyze  run, then print the plan table joined with\n"
      "                     actual rows, Q-error, binding resource class,\n"
      "                     and per-level load imbalance\n"
      "  --fpm-edges N      FPM pattern size in edges, 1-7 (default 3)\n"
      "  --minsup N         FPM support threshold (default |E|/10)\n"
      "  --placement P      hybrid | unified | zerocopy | device | explicit\n"
      "  --strategy S       dynamic | naive | prealloc (write strategy)\n"
      "  --no-premerge      disable Optimization 2 grouping\n"
      "  --streams N        execution streams (default 1 = synchronous;\n"
      "                     >= 2 double-buffers the extension pipeline and\n"
      "                     overlaps segment sorts with transfers)\n"
      "  --extension-chunk-rows N  embedding rows per extension kernel\n"
      "                     (out-of-core chunk size; default 65536)\n"
      "  --symmetric        SM with automorphism symmetry breaking\n"
      "  --device-mb N      simulated device memory in MiB (default 16;\n"
      "                     below 2^44)\n"
      "  --warps N          resident warp slots (default 64)\n"
      "  --host-threads N   host threads executing warp tasks (default 1,\n"
      "                     at most 256; > 1 records task functions on a\n"
      "                     thread pool while replaying their side effects\n"
      "                     in task order, so all simulated output stays\n"
      "                     bit-identical)\n"
      "  --stats            print hardware counters\n"
      "  --trace            print per-kernel cycle breakdown\n"
      "  --trace-capacity N cap buffered trace events / timeline commands\n"
      "                     (default 65536 events, 2^20 commands; overflow\n"
      "                     counted, not stored)\n"
      "  --metrics-interval N  metrics sampling interval in simulated\n"
      "                     cycles (default 100000; 0 keeps only the\n"
      "                     end-of-run sample)\n"
      "  --check[=LIST]     run under gpusim-check (the compute-sanitizer\n"
      "                     analog); LIST is a comma-separated subset of\n"
      "                     memcheck,initcheck,racecheck (default all).\n"
      "                     Prints a report and exits 2 on any finding\n"
      "  --observe LIST     write each listed gamma.<name>.v1 document to\n"
      "                     DIR/<name>.json; LIST is a comma-separated\n"
      "                     subset of:\n"
      "                       plan        compiled plan (also with --explain)\n"
      "                       profile     per-phase cycles, traffic, kernels\n"
      "                       trace       timeline for Perfetto\n"
      "                       critpath    critical path, binding resource,\n"
      "                                   what-if projections\n"
      "                       metrics     counter time-series\n"
      "                       adaptivity  hybrid placement audit (host\n"
      "                                   placements only)\n"
      "                       planprof    per-level estimates vs actuals\n"
      "                       check       gpusim-check report (implies\n"
      "                                   --check)\n"
      "                     Observation only: cycles and counters stay\n"
      "                     bit-identical\n"
      "  --out-dir DIR      existing directory for --observe (default .)");
}

bool Parse(int argc, char** argv, CliOptions* o) {
  bool value_ok = true;
  for (int i = 1; i < argc && value_ok; ++i) {
    std::string a = argv[i];
    auto reject = [&]() {
      std::fprintf(stderr, "%s: missing or malformed value\n", a.c_str());
      value_ok = false;
    };
    // The flag's value; a missing one fails the parse.
    auto next = [&]() -> std::string {
      if (i + 1 < argc) return argv[++i];
      reject();
      return "";
    };
    // A numeric value: the whole token must parse, so `--k abc` is an
    // error rather than 0.
    auto number = [&](auto* out) {
      const std::string v = next();
      if (!value_ok) return;
      const auto [end, ec] =
          std::from_chars(v.data(), v.data() + v.size(), *out);
      if (ec != std::errc() || end != v.data() + v.size()) reject();
    };
    // A value that parsed but lies outside what the flag accepts.
    auto out_of_range = [&](const char* want) {
      std::fprintf(stderr, "%s wants %s\n", a.c_str(), want);
      value_ok = false;
    };
    if (a == "--dataset") {
      o->dataset = next();
    } else if (a == "--graph") {
      o->graph_path = next();
    } else if (a == "--task") {
      o->task = next();
      o->task_set = true;
    } else if (a == "--k") {
      number(&o->k);
    } else if (a == "--query") {
      number(&o->query);
    } else if (a == "--pattern") {
      o->pattern_text = next();
    } else if (a == "--pattern-preset") {
      o->pattern_preset = next();
    } else if (a == "--verify-plan") {
      o->verify_plan = true;
      o->verify_plan_path = next();
    } else if (a == "--verify-plan=json") {
      o->verify_plan = true;
      o->verify_json = true;
      o->verify_plan_path = next();
    } else if (a == "--plan-auto") {
      o->plan_auto = true;
    } else if (a == "--explain") {
      o->explain = true;
    } else if (a == "--explain-analyze") {
      o->explain_analyze = true;
    } else if (a == "--fpm-edges") {
      number(&o->fpm_edges);
    } else if (a == "--minsup") {
      number(&o->minsup);
    } else if (a == "--placement") {
      o->placement = next();
    } else if (a == "--strategy") {
      o->strategy = next();
    } else if (a == "--no-premerge") {
      o->pre_merge = false;
    } else if (a == "--streams") {
      number(&o->streams);
    } else if (a == "--extension-chunk-rows") {
      number(&o->extension_chunk_rows);
    } else if (a == "--symmetric") {
      o->symmetric = true;
    } else if (a == "--device-mb") {
      number(&o->device_mb);
      // device_mb << 20 must not wrap around to a tiny device.
      if (value_ok && o->device_mb > (SIZE_MAX >> 20)) {
        out_of_range("N < 2^44");
      }
    } else if (a == "--warps") {
      number(&o->warps);
      if (value_ok && o->warps < 1) out_of_range("N >= 1");
    } else if (a == "--host-threads") {
      number(&o->host_threads);
      if (value_ok && o->host_threads < 1) out_of_range("N >= 1");
      // Every Device starts N - 1 threads.
      if (value_ok && o->host_threads > gpusim::kMaxHostThreads) {
        out_of_range(
            ("N <= " + std::to_string(gpusim::kMaxHostThreads)).c_str());
      }
    } else if (a == "--stats") {
      o->show_stats = true;
    } else if (a == "--trace") {
      o->trace = true;
    } else if (a == "--observe") {
      std::istringstream names(next());
      for (std::string name; value_ok && std::getline(names, name, ',');) {
        if (std::ranges::find(kDocuments, name) == kDocuments.end()) {
          reject();
        } else {
          o->observe.insert(name);
        }
      }
    } else if (a == "--out-dir") {
      o->out_dir = next();
    } else if (a == "--trace-capacity") {
      number(&o->trace_capacity);
    } else if (a == "--metrics-interval") {
      number(&o->metrics_interval);
      if (value_ok && (!std::isfinite(o->metrics_interval) ||
                       std::signbit(o->metrics_interval))) {
        out_of_range("a finite N >= 0");
      }
    } else if (a == "--check") {
      o->check = true;
    } else if (a.rfind("--check=", 0) == 0) {
      o->check = true;
      o->check_list = a.substr(std::strlen("--check="));
    } else if (a == "--help" || a == "-h") {
      Usage();
      return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      Usage();
      return false;
    }
  }
  if (!value_ok) {
    Usage();
    return false;
  }
  if (o->observe.contains("check")) o->check = true;
  // A user-supplied pattern is a subgraph-matching query unless a task
  // was named explicitly.
  if (!o->task_set &&
      (!o->pattern_text.empty() || !o->pattern_preset.empty())) {
    o->task = "sm";
  }
  return true;
}

Result<graph::Pattern> ResolvePattern(const CliOptions& o,
                                      const graph::Graph& g) {
  if (!o.pattern_preset.empty()) {
    const std::string& n = o.pattern_preset;
    if (n == "triangle") return graph::Pattern::Triangle();
    if (n == "clique4") return graph::Pattern::Clique(4);
    if (n == "clique5") return graph::Pattern::Clique(5);
    if (n == "path3") return graph::Pattern::Path(3);
    if (n == "path4") return graph::Pattern::Path(4);
    if (n == "cycle4") return graph::Pattern::Cycle(4);
    if (n == "cycle5") return graph::Pattern::Cycle(5);
    if (n == "star3") return graph::Pattern::Star(3);
    if (n == "diamond") return graph::Pattern::Diamond();
    if (n == "tailed-triangle") return graph::Pattern::TailedTriangle();
    if (n == "q1") return graph::Pattern::SmQuery(1, g.num_labels());
    if (n == "q2") return graph::Pattern::SmQuery(2, g.num_labels());
    if (n == "q3") return graph::Pattern::SmQuery(3, g.num_labels());
    return Status::InvalidArgument("unknown pattern preset: " + n);
  }
  if (!o.pattern_text.empty()) {
    // A path on disk wins; anything else is an inline spec.
    if (std::ifstream probe(o.pattern_text); probe) {
      return graph::ParsePatternFile(o.pattern_text);
    }
    return graph::ParsePattern(o.pattern_text);
  }
  return graph::Pattern::SmQuery(o.query, g.num_labels());
}

// Writes the gamma.<name>.v1 document `json` to <out-dir>/<name>.json and
// reports it with `detail`; false, after a message, when the file cannot
// be opened.
bool WriteDocument(const CliOptions& o, const std::string& name,
                   const std::string& json, const std::string& detail) {
  const std::string path = o.out_dir + "/" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << json;
  std::printf("%s written to %s (%s)\n", name.c_str(), path.c_str(),
              detail.c_str());
  return true;
}

// --observe plan, with or without a run.
bool WritePlan(const CliOptions& o, const core::CompiledPlan& plan) {
  return !o.observe.contains("plan") ||
         WriteDocument(o, "plan", plan.ToJson(), plan.DebugString());
}

// Compiles the plan the chosen task runs (and --explain prints).
Result<core::CompiledPlan> CompileTaskPlan(const CliOptions& o,
                                           const graph::Graph& g) {
  core::PatternCompiler compiler(&g);
  if (o.task == "kcl") {
    return compiler.CompileKClique(o.k, /*count_only_last=*/false);
  }
  if (o.task == "motif") return compiler.CompileMotifCensus(o.k);
  if (o.task == "fpm") {
    const uint64_t minsup = o.minsup ? o.minsup : g.num_edges() / 10;
    return compiler.CompileFpm(o.fpm_edges, minsup);
  }
  if (o.task == "sm") {
    auto pattern = ResolvePattern(o, g);
    if (!pattern.ok()) return pattern.status();
    core::CompileOptions copts;
    if (o.plan_auto) {
      copts.plan_strategy = core::PlanStrategy::kGreedyCardinality;
      copts.break_symmetry = true;
      copts.fold_ascending = true;
      copts.input_aware = true;
    } else if (o.symmetric) {
      copts.break_symmetry = true;
    }
    return compiler.CompileMatch(pattern.value(), copts);
  }
  return Status::InvalidArgument("unknown task: " + o.task);
}

std::string IntersectText(const std::vector<int>& positions) {
  if (positions.empty()) return "union";
  std::string s = "[";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(positions[i]);
  }
  return s + "]";
}

std::string LabelText(graph::Label label) {
  return label == graph::Pattern::kAnyLabel ? "*" : std::to_string(label);
}

void PrintPlanHeadline(const core::CompiledPlan& plan) {
  std::printf("plan: %s", core::PlanKindName(plan.kind));
  if (!plan.order.empty()) {
    std::printf("  order=[");
    for (std::size_t i = 0; i < plan.order.size(); ++i) {
      std::printf(i > 0 ? " %d" : "%d", plan.order[i]);
    }
    std::printf("]");
  }
  if (plan.kind == core::PlanKind::kSubgraphMatch ||
      plan.kind == core::PlanKind::kMotifCensus) {
    std::printf("  start=%s", core::StartModeName(plan.start));
  }
  if (plan.symmetry_broken) std::printf("  symmetry-broken");
  if (plan.kind == core::PlanKind::kFrequentMining) {
    std::printf("  max_edges=%d  min_support=%llu", plan.max_edges,
                static_cast<unsigned long long>(plan.min_support));
  }
  std::printf("\n");
}

// --explain: the compiled plan as an aligned per-level table.
void PrintExplain(const core::CompiledPlan& plan) {
  PrintPlanHeadline(plan);
  if (plan.kind == core::PlanKind::kFrequentMining) {
    std::printf("  %d aggregate/filter/extend iterations over the edge "
                "table\n",
                plan.max_edges);
    return;
  }
  if (plan.kind == core::PlanKind::kEdgeJoin) {
    std::printf("  edge order:");
    for (auto [a, b] : plan.edge_order) std::printf(" (%d,%d)", a, b);
    std::printf("\n");
    return;
  }
  std::printf("  %-7s %5s  %-10s %5s  %-14s %-9s %12s\n", "level", "depth",
              "intersect", "label", "write", "pre-merge", "est_rows");
  const double start_est = plan.start == core::StartMode::kEdgeParallel
                               ? plan.est_pair_rows
                               : plan.est_start_rows;
  std::printf("  %-7s %5d  %-10s %5s  %-14s %-9s %12.6g\n", "start",
              plan.first_depth() - 1, "-",
              LabelText(plan.start_label).c_str(), "-", "-", start_est);
  for (std::size_t i = 0; i < plan.levels.size(); ++i) {
    const core::CompiledLevel& level = plan.levels[i];
    const int depth = plan.first_depth() + static_cast<int>(i);
    const std::string name = "L" + std::to_string(depth);
    std::printf("  %-7s %5d  %-10s %5s  %-14s %-9s %12.6g\n", name.c_str(),
                depth, IntersectText(level.intersect_positions).c_str(),
                LabelText(level.candidate_label).c_str(),
                level.write_strategy
                    ? core::WriteStrategyName(*level.write_strategy)
                    : "inherit",
                level.pre_merge ? (*level.pre_merge ? "yes" : "no")
                                : "inherit",
                level.est_rows);
  }
}

// --explain-analyze: the profiled run as an aligned per-level table
// joining estimates with actuals.
void PrintExplainAnalyze(core::PlanProfiler* prof) {
  const core::PlanProfSummary summary = prof->Summary();
  std::printf("  %-9s %5s %12s %12s %8s %12s %7s  %-17s %-9s %6s\n",
              "level", "depth", "est_rows", "rows", "q_error", "candidates",
              "select", "strategy", "binding", "imbal");
  for (const core::PlanProfSegment& seg : prof->segments()) {
    std::string strategy = "-";
    if (seg.has_strategy) {
      strategy = seg.strategy.write_strategy;
      if (seg.strategy.pre_merge) strategy += "+pm";
      if (seg.strategy.count_only) strategy += "+cnt";
    }
    char est[24];
    char q[16];
    if (seg.has_estimate) {
      std::snprintf(est, sizeof(est), "%12.6g", seg.est_rows);
      std::snprintf(q, sizeof(q), "%8.2f", seg.q_error);
    } else {
      std::snprintf(est, sizeof(est), "%12s", "-");
      std::snprintf(q, sizeof(q), "%8s", "-");
    }
    std::printf("  %-9s %5d %s %12llu %s %12llu %7.3f  %-17s %-9s %6.2f\n",
                seg.label.c_str(), seg.depth, est,
                static_cast<unsigned long long>(seg.rows), q,
                static_cast<unsigned long long>(seg.candidates),
                seg.selectivity, strategy.c_str(),
                seg.attributed ? gpusim::ResourceClassName(seg.binding)
                               : "-",
                seg.imbalance);
  }
  if (summary.worst_q_error > 0) {
    std::printf("  worst Q-error %.2f at depth %d; run imbalance %.2f\n",
                summary.worst_q_error, summary.worst_q_error_depth,
                summary.imbalance);
  } else {
    std::printf("  no cardinality estimates; run imbalance %.2f\n",
                summary.imbalance);
  }
}

// --trace: the command log's kernel records aggregated by kernel name.
void PrintKernelBreakdown(const prof::CommandLog& log) {
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  for (const prof::CommandRecord& rec : log.commands()) {
    if (rec.kind != prof::CommandRecord::Kind::kKernel) continue;
    auto& agg = by_name[rec.name];
    agg.first += 1;
    agg.second += rec.end - rec.start;
  }
  std::printf("kernel breakdown:\n");
  for (const auto& [name, agg] : by_name) {
    std::printf("  %-22s %6zu launches  %10.3f ms\n", name.c_str(),
                agg.first, agg.second * 1e-6);
  }
}

core::GammaOptions FrameworkOptions(const CliOptions& o) {
  core::GammaOptions options = baselines::GammaDefaultOptions();
  if (o.placement == "unified") {
    options.access.placement = core::GraphPlacement::kUnifiedOnly;
  } else if (o.placement == "zerocopy") {
    options.access.placement = core::GraphPlacement::kZeroCopyOnly;
  } else if (o.placement == "device") {
    options.access.placement = core::GraphPlacement::kDeviceResident;
  } else if (o.placement == "explicit") {
    options.access.placement = core::GraphPlacement::kExplicitTransfer;
  }
  if (o.strategy == "naive") {
    options.extension.write_strategy = core::WriteStrategy::kNaiveTwoPass;
  } else if (o.strategy == "prealloc") {
    options.extension.write_strategy = core::WriteStrategy::kPreAlloc;
  }
  options.extension.pre_merge = o.pre_merge;
  if (o.streams > 0) {
    options.extension.num_streams = o.streams;
    options.sort.num_streams = o.streams;
  }
  if (o.extension_chunk_rows > 0) {
    options.extension.chunk_rows = o.extension_chunk_rows;
  }
  // The audit also feeds the --stats summary line, so either flag turns
  // it on (the engine ignores it for placements with no host traffic).
  options.adaptivity_audit = o.observe.contains("adaptivity") || o.show_stats;
  options.plan_profile = o.observe.contains("planprof") || o.explain_analyze;
  return options;
}

// --verify-plan: load an external gamma.plan.v1 document and run the
// static soundness verifier against the selected graph. Pure host-side
// analysis — no device, no engine, no simulated cycles. Returns the
// process exit code: 0 verified, 2 refuted or malformed.
int VerifyPlanFile(const CliOptions& o, const graph::Graph& g) {
  std::ifstream in(o.verify_plan_path);
  if (!in) {
    std::fprintf(stderr, "verify-plan: cannot open %s\n",
                 o.verify_plan_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto plan = core::ParsePlanJson(buffer.str());
  if (!plan.ok()) {
    std::fprintf(stderr, "verify-plan: %s\n",
                 plan.status().ToString().c_str());
    return 2;
  }
  // Verify with the same inherited strategies a run with these CLI flags
  // would resolve, so tier-3 reservation findings match the run path.
  core::GammaOptions fw = FrameworkOptions(o);
  core::VerifyOptions vopts;
  vopts.graph = &g;
  vopts.engine_extension = &fw.extension;
  const core::VerifyReport report =
      core::PlanVerifier(vopts).Verify(plan.value());
  if (o.verify_json) {
    std::fputs(report.ToJson().c_str(), stdout);
  } else {
    std::fputs(report.ReportText().c_str(), stdout);
  }
  return report.verified ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions o;
  if (!Parse(argc, argv, &o)) return 1;

  graph::Graph g;
  if (!o.graph_path.empty()) {
    auto loaded = graph::LoadEdgeListText(o.graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    g = std::move(loaded).value();
  } else {
    g = graph::MakeDataset(o.dataset);
  }
  g.EnsureEdgeIndex();
  // In --verify-plan=json mode stdout carries exactly one JSON document
  // so the report can be piped or redirected; the banner moves to stderr.
  if (o.verify_plan && o.verify_json)
    std::fprintf(stderr, "graph: %s\n", g.DebugString().c_str());
  else
    std::printf("graph: %s\n", g.DebugString().c_str());

  if (o.verify_plan) return VerifyPlanFile(o, g);

  // Every task runs the same way: compile its plan, then interpret it on
  // the compiled engine. Invalid parameters or patterns fail here, before
  // any device work.
  auto compiled = CompileTaskPlan(o, g);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s: %s\n", o.task.c_str(),
                 compiled.status().ToString().c_str());
    return 2;
  }
  const core::CompiledPlan& plan = compiled.value();
  if (o.explain) {
    // Plan only — print the compiled plan without running it.
    PrintExplain(plan);
    return WritePlan(o, plan) ? 0 : 1;
  }

  gpusim::SimParams params;
  params.device_memory_bytes = o.device_mb << 20;
  params.um_device_buffer_bytes = params.device_memory_bytes / 8;
  params.num_warp_slots = o.warps;
  params.host_threads = o.host_threads;
  gpusim::Device device(params);
  // The kernel breakdown and the profile's kernel trace are views over the
  // command log's kernel records, and the plan profiler's resource
  // attribution and binding columns come from it too; recording it stays
  // observation-only.
  if (o.trace || o.explain_analyze || o.observe.contains("profile") ||
      o.observe.contains("critpath") || o.observe.contains("planprof")) {
    device.critpath().set_enabled(true);
  }
  if (o.trace_capacity > 0) {
    device.trace().set_capacity(o.trace_capacity);
    device.critpath().set_capacity(o.trace_capacity);
  }
  if (o.observe.contains("trace")) device.trace().set_enabled(true);
  if (o.observe.contains("metrics")) {
    device.metrics().set_interval_cycles(o.metrics_interval);
  }
  if (o.check) {
    gpusim::Sanitizer::Options copts;
    if (!gpusim::Sanitizer::ParseCheckList(o.check_list, &copts)) {
      std::fprintf(stderr,
                   "--check: bad checker list '%s' (want a comma-separated "
                   "subset of memcheck,initcheck,racecheck)\n",
                   o.check_list.c_str());
      return 1;
    }
    device.EnableSanitizer(copts);
  }
  // Held in a unique_ptr so the leak sweep below can run after the engine
  // (and every DeviceBuffer it owns) has been destroyed.
  auto engine =
      std::make_unique<core::GammaEngine>(&device, &g, FrameworkOptions(o));
  if (Status st = engine->Prepare(); !st.ok()) {
    std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
    return 1;
  }

  auto run = core::CompiledEngine(engine.get()).Run(plan);
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", o.task.c_str(),
                 run.status().ToString().c_str());
    return 1;
  }
  const core::CompiledRunResult& r = run.value();
  if (o.task == "kcl") {
    std::printf("%d-cliques: %llu (%.3f ms simulated)\n", o.k,
                static_cast<unsigned long long>(r.embeddings), r.sim_millis);
  } else if (o.task == "sm") {
    std::printf("query: %s\n", plan.pattern.DebugString().c_str());
    std::printf("embeddings: %llu, instances: %llu (%.3f ms simulated)\n",
                static_cast<unsigned long long>(r.embeddings),
                static_cast<unsigned long long>(r.instances), r.sim_millis);
  } else if (o.task == "fpm") {
    std::printf("frequent patterns: %zu (%zu maximal), sup >= %llu "
                "(%.3f ms simulated)\n",
                r.patterns.size(), r.patterns.MaximalPatterns().size(),
                static_cast<unsigned long long>(plan.min_support),
                r.sim_millis);
    for (const auto& e : r.patterns.TopPatterns()) {
      std::printf("  sup=%8llu  %s\n",
                  static_cast<unsigned long long>(e.support),
                  e.exemplar.DebugString().c_str());
    }
  } else {  // motif: CompileTaskPlan rejected every other task
    std::printf("%d-vertex motifs (%.3f ms simulated):\n", o.k,
                r.sim_millis);
    for (const auto& [pattern, count] : r.motifs) {
      std::printf("  %12llu x %s\n", static_cast<unsigned long long>(count),
                  pattern.DebugString().c_str());
    }
  }
  if (!WritePlan(o, plan)) return 1;

  if (o.trace) PrintKernelBreakdown(device.critpath());
  if (o.show_stats) {
    std::printf("device counters: %s\n", device.stats().ToString().c_str());
    std::printf("peak device: %.2f MiB, peak host: %.2f MiB\n",
                device.PeakDeviceBytes() / 1048576.0,
                device.host_tracker().peak_bytes() / 1048576.0);
    if (engine->audit() != nullptr) {
      core::AdaptivitySummary s = engine->audit()->Summary();
      std::printf(
          "adaptivity: %llu extensions, mean N_u %.1f pages, "
          "regret %+.0f cycles vs best pure (%s)\n",
          static_cast<unsigned long long>(s.extensions),
          s.mean_unified_pages, s.regret_cycles,
          s.est_unified_cycles <= s.est_zerocopy_cycles ? "unified"
                                                        : "zerocopy");
    }
  }
  if (o.observe.contains("profile")) {
    const auto& commands = device.critpath().commands();
    const auto kernel_records = std::count_if(
        commands.begin(), commands.end(), [](const prof::CommandRecord& rec) {
          return rec.kind == prof::CommandRecord::Kind::kKernel;
        });
    if (!WriteDocument(o, "profile", device.profile().ToJson(device),
                       std::to_string(device.profile().phases().size()) +
                           " phases, " + std::to_string(kernel_records) +
                           " kernel records, " +
                           std::to_string(device.critpath().dropped()) +
                           " dropped")) {
      return 1;
    }
  }
  if (o.observe.contains("trace") &&
      !WriteDocument(
          o, "trace", device.trace().ToChromeTraceJson(device.params()),
          std::to_string(device.trace().events().size()) + " events, " +
              std::to_string(device.trace().dropped_events()) +
              " dropped; open in Perfetto")) {
    return 1;
  }
  if (o.observe.contains("metrics")) {
    // Pin the final state so the series always covers the whole run.
    device.metrics().ForceSample(device);
    if (!WriteDocument(
            o, "metrics", device.metrics().ToJson(device),
            std::to_string(device.metrics().samples().size()) + " samples")) {
      return 1;
    }
  }
  if (o.observe.contains("critpath")) {
    auto analyzed = prof::Analyze(device);
    if (!analyzed.ok()) {
      std::fprintf(stderr, "critpath: %s\n",
                   analyzed.status().ToString().c_str());
      return 1;
    }
    const prof::CritpathReport& report = analyzed.value();
    if (!WriteDocument(
            o, "critpath", report.ToJson(),
            std::to_string(report.commands) + " commands, " +
                std::to_string(report.streams) + " streams" +
                (report.partial ? "; PARTIAL: command log overflowed"
                                : ""))) {
      return 1;
    }
    std::printf(
        "  critical path %.0f of %.0f cycles, bound on %s "
        "(link utilization %.1f%%)\n",
        report.critical_path_cycles, report.total_cycles,
        gpusim::ResourceClassName(report.binding),
        report.pcie_link_utilization * 100.0);
    for (const prof::WhatIf& wi : report.whatifs) {
      if (wi.cost_factor == 1.0) continue;  // calibration row
      std::printf("  what-if %s x%.2g: %.0f cycles (%.2fx)\n",
                  gpusim::ResourceClassName(wi.resource), wi.cost_factor,
                  wi.projected_cycles, wi.speedup);
    }
  }
  if (o.observe.contains("adaptivity")) {
    if (engine->audit() == nullptr) {
      std::fprintf(stderr,
                   "--observe adaptivity: placement %s has no host-memory "
                   "traffic to audit\n",
                   o.placement.c_str());
      return 1;
    }
    if (!WriteDocument(o, "adaptivity", engine->audit()->ToJson(),
                       std::to_string(engine->audit()->records().size()) +
                           " extension records")) {
      return 1;
    }
  }
  if (o.explain_analyze || o.observe.contains("planprof")) {
    core::PlanProfiler* prof = engine->plan_profiler();
    if (prof == nullptr || !prof->has_run()) {
      std::fprintf(stderr, "planprof: task produced no profiled run\n");
      return 1;
    }
    if (o.explain_analyze) PrintExplainAnalyze(prof);
    if (o.observe.contains("planprof") &&
        !WriteDocument(o, "planprof", prof->ToJson(),
                       std::to_string(prof->segments().size()) + " levels")) {
      return 1;
    }
  }
  if (o.check) {
    // Tear the engine down first so buffers it still owns are released and
    // the leak sweep only reports real leaks.
    engine.reset();
    gpusim::Sanitizer* san = device.sanitizer();
    san->FinalizeLeakCheck();
    if (o.observe.contains("check") &&
        !WriteDocument(o, "check", san->ToJson(),
                       std::to_string(san->findings().size()) + " findings")) {
      return 1;
    }
    if (!san->findings().empty()) {
      std::fputs(san->ReportText().c_str(), stderr);
      return 2;
    }
    std::printf(
        "gpusim-check: clean (%llu device, %llu unified, %llu bulk "
        "accesses; %llu allocs, %llu frees checked)\n",
        static_cast<unsigned long long>(san->activity().device_accesses),
        static_cast<unsigned long long>(san->activity().unified_accesses),
        static_cast<unsigned long long>(san->activity().bulk_accesses),
        static_cast<unsigned long long>(san->activity().allocations),
        static_cast<unsigned long long>(san->activity().frees));
  }
  return 0;
}
