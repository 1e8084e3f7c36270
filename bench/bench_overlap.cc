// Sync vs async execution: the same GAMMA workload run once on the
// historical synchronous path (one stream) and once with the
// double-buffered extension pipeline (compute + copy streams). Both runs
// use deliberately small extension chunks so the pipeline has depth; the
// bench verifies the embedding counts match and reports the cycle ratio.
// The async run's device fills the `--json` record, so the export carries
// the stream count and PCIe-link occupancy of the overlapped execution.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace gpm;

// Many small chunks give the double-buffered pipeline something to
// overlap; both variants use the identical chunking so the comparison
// isolates the stream assignment.
core::GammaOptions OverlapOptions(std::size_t streams) {
  core::GammaOptions options = bench::BenchGammaOptions();
  options.extension.chunk_rows = 2048;
  options.extension.num_streams = streams;
  options.sort.num_streams = streams;
  return options;
}

void BM_OverlapKcl(benchmark::State& state, std::string dataset, int k) {
  const graph::Graph& g = bench::Dataset(dataset);
  for (auto _ : state) {
    gpusim::Device sync_device(bench::BenchDeviceParams());
    Result<baselines::GpuRunResult> sync =
        baselines::GammaKClique(&sync_device, g, k, OverlapOptions(1));
    if (!sync.ok()) {
      bench::SkipCrashed(state, sync.status());
      return;
    }
    gpusim::Device async_device(bench::BenchDeviceParams());
    Result<baselines::GpuRunResult> async =
        baselines::GammaKClique(&async_device, g, k, OverlapOptions(2));
    if (!async.ok()) {
      bench::SkipCrashed(state, async.status());
      return;
    }
    if (sync.value().count != async.value().count) {
      state.SkipWithError("sync/async embedding counts diverged");
      return;
    }
    const double sync_cycles = sync_device.now_cycles();
    const double async_cycles = async_device.now_cycles();
    state.counters["sync_ms"] = sync.value().sim_millis;
    state.counters["async_ms"] = async.value().sim_millis;
    state.counters["overlap_speedup"] =
        async_cycles > 0 ? sync_cycles / async_cycles : 0.0;
    state.counters["saved_cycles"] = sync_cycles - async_cycles;
    bench::ReportProfile(state, async_device);
    bench::ReportSimMillis(state, async.value().sim_millis);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The Fig. 10 memory workload (4-clique on the proxy datasets) is the
  // reference point: chunked extensions dominate its runtime, so it is
  // where transfer/compute overlap must pay off.
  for (const char* name : {"ER", "EA", "CP", "CL"}) {
    std::string ds = name;
    bench::RegisterSim(std::string("Overlap/4CL/") + ds,
                       [ds](benchmark::State& s) {
                         BM_OverlapKcl(s, ds, 4);
                       });
  }
  return bench::Main(argc, argv);
}
