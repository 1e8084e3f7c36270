// Fig. 5: temporal locality of hot pages across extensions. For each
// extension step of an SM / kCL run, reports the fraction of the top-K
// hot pages that were also hot in the previous extension. The paper
// observes >50% overlap (up to ~70% for larger K), which is what makes
// unified-memory buffering of hot pages pay off across extensions.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"

namespace {

using namespace gpm;

// Runs WOJ steps manually so the heat tracker can be sampled per step.
void BM_SmLocality(benchmark::State& state, std::string dataset,
                   std::size_t top_k) {
  const graph::Graph& g = bench::Dataset(dataset);
  graph::Pattern q = graph::Pattern::SmQuery(2, g.num_labels());
  for (auto _ : state) {
    gpusim::Device device(bench::BenchDeviceParams());
    core::GammaEngine engine(&device, &g, bench::BenchGammaOptions());
    if (Status st = engine.Prepare(); !st.ok()) {
      bench::SkipCrashed(state, st);
      return;
    }
    std::vector<int> order = q.DefaultMatchingOrder();
    auto table = engine.InitVertexTable(q.label(order[0]));
    if (!table.ok()) {
      bench::SkipCrashed(state, table.status());
      return;
    }
    double overlap_sum = 0;
    int overlap_steps = 0;
    for (std::size_t d = 1; d < order.size(); ++d) {
      core::CompiledLevel level;
      for (std::size_t j = 0; j < d; ++j) {
        if (q.HasEdge(order[d], order[j])) {
          level.intersect_positions.push_back(static_cast<int>(j));
        }
      }
      level.candidate_label = q.label(order[d]);
      auto r = engine.VertexExtension(table.value().get(), level);
      if (!r.ok()) {
        bench::SkipCrashed(state, r.status());
        return;
      }
      if (d >= 2) {
        overlap_sum += engine.accessor().heat().HotPageOverlap(top_k);
        ++overlap_steps;
      }
    }
    state.counters["hot_page_overlap_pct"] =
        overlap_steps > 0 ? 100.0 * overlap_sum / overlap_steps : 0.0;
    bench::ReportSimMillis(state, device.ElapsedMillis());
  }
}

void BM_KclLocality(benchmark::State& state, std::string dataset,
                    std::size_t top_k) {
  const graph::Graph& g = bench::Dataset(dataset);
  for (auto _ : state) {
    gpusim::Device device(bench::BenchDeviceParams());
    core::GammaEngine engine(&device, &g, bench::BenchGammaOptions());
    if (Status st = engine.Prepare(); !st.ok()) {
      bench::SkipCrashed(state, st);
      return;
    }
    auto table = engine.InitVertexTable();
    if (!table.ok()) return;
    double overlap_sum = 0;
    int overlap_steps = 0;
    for (int depth = 1; depth < 4; ++depth) {
      core::CompiledLevel level;
      for (int j = 0; j < depth; ++j) level.intersect_positions.push_back(j);
      level.require_ascending = true;
      auto r = engine.VertexExtension(table.value().get(), level);
      if (!r.ok()) {
        bench::SkipCrashed(state, r.status());
        return;
      }
      if (depth >= 2) {
        overlap_sum += engine.accessor().heat().HotPageOverlap(top_k);
        ++overlap_steps;
      }
    }
    state.counters["hot_page_overlap_pct"] =
        overlap_steps > 0 ? 100.0 * overlap_sum / overlap_steps : 0.0;
    bench::ReportSimMillis(state, device.ElapsedMillis());
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : {"EA", "CP", "CL"}) {
    for (std::size_t k : {16, 64, 256}) {
      std::string ds = name;
      bench::RegisterSim(
          std::string("Fig5/SM-q2/") + ds + "/top" + std::to_string(k),
          [ds, k](benchmark::State& s) { BM_SmLocality(s, ds, k); });
      bench::RegisterSim(
          std::string("Fig5/4CL/") + ds + "/top" + std::to_string(k),
          [ds, k](benchmark::State& s) { BM_KclLocality(s, ds, k); });
    }
  }
  return bench::Main(argc, argv);
}
