// Fig. 12: k-clique running time — GAMMA vs Pangolin-ST (single-thread),
// Pangolin-GPU (in-core) and Peregrine (multi-thread CPU). The paper
// reports GAMMA ~68% faster than Pangolin-GPU and ~74% faster than
// Peregrine, with the in-core system crashing on denser datasets.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace gpm;

enum class System { kGamma, kPangolinGpu, kPangolinSt, kPeregrine };

void BM_Kcl(benchmark::State& state, std::string dataset, int k,
            System sys) {
  const graph::Graph& g = bench::Dataset(dataset);
  const uint64_t oracle = bench::OracleKCliques(dataset, k);
  for (auto _ : state) {
    double sim_millis = 0;
    uint64_t count = 0;
    switch (sys) {
      case System::kPangolinSt: {
        auto r = baselines::PangolinStKClique(g, k);
        sim_millis = r.sim_millis;
        count = r.count;
        break;
      }
      case System::kPeregrine: {
        auto r = baselines::PeregrineKClique(g, k);
        sim_millis = r.sim_millis;
        count = r.count;
        break;
      }
      case System::kGamma:
      case System::kPangolinGpu: {
        gpusim::Device device(sys == System::kGamma
                                   ? bench::BenchDeviceParams()
                                   : bench::InCoreDeviceParams());
        Result<baselines::GpuRunResult> r =
            sys == System::kGamma
                ? baselines::GammaKClique(&device, g, k,
                                          bench::BenchGammaOptions())
                : baselines::PangolinGpuKClique(&device, g, k);
        if (!r.ok()) {
          bench::SkipCrashed(state, r.status());
          return;
        }
        bench::ReportProfile(state, device);
        sim_millis = r.value().sim_millis;
        count = r.value().count;
        break;
      }
    }
    if (!bench::CheckCount(state, count, oracle)) return;
    state.counters["cliques"] = static_cast<double>(count);
    bench::ReportSimMillis(state, sim_millis);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* datasets[] = {"ER", "EA", "CP", "CL", "CL8"};
  struct {
    System sys;
    const char* name;
  } systems[] = {{System::kGamma, "GAMMA"},
                 {System::kPangolinGpu, "Pangolin-GPU"},
                 {System::kPangolinSt, "Pangolin-ST"},
                 {System::kPeregrine, "Peregrine"}};
  for (const char* name : datasets) {
    for (const auto& sys : systems) {
      std::string ds = name;
      System which = sys.sys;
      bench::RegisterSim(
          std::string("Fig12/4CL/") + sys.name + "/" + ds,
          [ds, which](benchmark::State& s) { BM_Kcl(s, ds, 4, which); });
    }
  }
  // 5-clique on the small email graphs.
  for (const char* name : {"ER", "EA"}) {
    for (const auto& sys : systems) {
      std::string ds = name;
      System which = sys.sys;
      bench::RegisterSim(
          std::string("Fig12/5CL/") + sys.name + "/" + ds,
          [ds, which](benchmark::State& s) { BM_Kcl(s, ds, 5, which); });
    }
  }
  return bench::Main(argc, argv);
}
