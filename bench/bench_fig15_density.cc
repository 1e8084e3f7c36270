// Fig. 15: scalability in graph density. Kronecker (R-MAT) graphs with a
// fixed vertex count and growing average degree; GAMMA's running time
// should grow approximately linearly with density.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "graph/generators.h"

namespace {

using namespace gpm;

void BM_Density(benchmark::State& state, int scale, int edge_factor) {
  Rng rng(1234 + edge_factor);
  graph::Graph g = graph::Rmat(
      scale, static_cast<std::size_t>(edge_factor) << scale, &rng);
  for (auto _ : state) {
    gpusim::Device device(bench::BenchDeviceParams());
    auto r = baselines::GammaKClique(&device, g, 3,
                                     bench::BenchGammaOptions());
    if (!r.ok()) {
      bench::SkipCrashed(state, r.status());
      return;
    }
    state.counters["avg_degree"] = g.average_degree();
    state.counters["edges"] = static_cast<double>(g.num_edges());
    state.counters["triangles"] = static_cast<double>(r.value().count);
    bench::ReportPlanProf(state, r.value().planprof);
    bench::ReportSimMillis(state, r.value().sim_millis);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int scale : {11, 12}) {
    for (int edge_factor : {2, 4, 8, 16, 32}) {
      bench::RegisterSim("Fig15/3CL/kron-2^" + std::to_string(scale) +
                             "/ef" + std::to_string(edge_factor),
                         [scale, edge_factor](benchmark::State& s) {
                           BM_Density(s, scale, edge_factor);
                         });
    }
  }
  return bench::Main(argc, argv);
}
