// Fig. 17: effect of the extension-primitive optimizations on SM.
// "naive" = Pangolin-style count-then-write, no grouping;
// "dynamic-alloc" adds Optimization 1 (memory-pool writes);
// "pre-merge" adds Optimization 2 (prefix-grouped intersection).
// Expected shape: each optimization strictly improves, ~20-25% apiece.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace gpm;

enum class Variant { kNaive, kDynamicAlloc, kPreMerge };

core::GammaOptions VariantOptions(Variant v) {
  core::GammaOptions options = bench::BenchGammaOptions();
  switch (v) {
    case Variant::kNaive:
      options.extension.write_strategy = core::WriteStrategy::kNaiveTwoPass;
      options.extension.pre_merge = false;
      break;
    case Variant::kDynamicAlloc:
      options.extension.write_strategy = core::WriteStrategy::kDynamicAlloc;
      options.extension.pre_merge = false;
      break;
    case Variant::kPreMerge:
      options.extension.write_strategy = core::WriteStrategy::kDynamicAlloc;
      options.extension.pre_merge = true;
      break;
  }
  return options;
}

void BM_OptSm(benchmark::State& state, std::string dataset, Variant v) {
  const graph::Graph& g = bench::Dataset(dataset);
  const uint64_t oracle = bench::OracleSmEmbeddings(dataset, 2);
  graph::Pattern q = graph::Pattern::SmQuery(2, g.num_labels());
  for (auto _ : state) {
    gpusim::Device device(bench::BenchDeviceParams());
    auto r = baselines::GammaMatch(&device, g, q, VariantOptions(v));
    if (!r.ok()) {
      bench::SkipCrashed(state, r.status());
      return;
    }
    if (!bench::CheckCount(state, r.value().count, oracle)) return;
    bench::ReportProfile(state, device);
    state.counters["embeddings"] = static_cast<double>(r.value().count);
    bench::ReportSimMillis(state, r.value().sim_millis);
  }
}

}  // namespace

int main(int argc, char** argv) {
  struct {
    Variant v;
    const char* name;
  } variants[] = {{Variant::kNaive, "naive"},
                  {Variant::kDynamicAlloc, "dynamic-alloc"},
                  {Variant::kPreMerge, "pre-merge"}};
  for (const char* name : {"ER", "EA", "CP", "CL", "CO"}) {
    for (const auto& var : variants) {
      std::string ds = name;
      Variant v = var.v;
      bench::RegisterSim(
          std::string("Fig17/SM-q2/") + var.name + "/" + ds,
          [ds, v](benchmark::State& s) { BM_OptSm(s, ds, v); });
    }
  }
  return bench::Main(argc, argv);
}
