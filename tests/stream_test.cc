// Tests for the stream/event execution model: deterministic replay of an
// async command sequence, event ordering semantics, PCIe-link contention
// between concurrent copy streams, sync-wrapper equivalence with the
// historical single-clock model, and an end-to-end regression that the
// double-buffered extension pipeline never runs slower than the
// synchronous path while producing identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "baselines/presets.h"
#include "baselines/systems.h"
#include "core/multimerge_sort.h"
#include "graph/datasets.h"
#include "gpusim/device.h"
#include "gpusim/stream.h"

namespace gpm {
namespace {

using gpusim::Device;
using gpusim::Event;
using gpusim::SimParams;
using gpusim::StreamId;
using gpusim::WarpCtx;

SimParams SmallParams() {
  SimParams p;
  p.device_memory_bytes = 4 << 20;
  p.um_device_buffer_bytes = 64 << 10;
  return p;
}

TEST(StreamSetTest, DefaultStreamAlwaysExists) {
  gpusim::StreamSet streams;
  EXPECT_EQ(streams.num_streams(), 1);
  EXPECT_TRUE(streams.valid(gpusim::kDefaultStream));
  EXPECT_FALSE(streams.valid(1));
  EXPECT_DOUBLE_EQ(streams.now_cycles(), 0.0);
}

TEST(StreamSetTest, NewStreamsStartAtTheJoinPoint) {
  gpusim::StreamSet streams;
  streams.set_cycles(gpusim::kDefaultStream, 500.0);
  StreamId s = streams.CreateStream();
  // A stream created "now" must not schedule work in the simulated past.
  EXPECT_DOUBLE_EQ(streams.cycles(s), 500.0);
  EXPECT_DOUBLE_EQ(streams.now_cycles(), 500.0);
}

TEST(StreamSetTest, WaitOnUnrecordedEventIsANoOp) {
  gpusim::StreamSet streams;
  StreamId s = streams.CreateStream();
  streams.set_cycles(s, 100.0);
  Event never;
  EXPECT_FALSE(never.valid());
  streams.Wait(s, never);
  EXPECT_DOUBLE_EQ(streams.cycles(s), 100.0);
}

TEST(StreamSetTest, RecordThenWaitOrdersStreams) {
  gpusim::StreamSet streams;
  StreamId a = streams.CreateStream();
  StreamId b = streams.CreateStream();
  streams.set_cycles(a, 1000.0);
  Event e = streams.Record(a);
  ASSERT_TRUE(e.valid());
  EXPECT_DOUBLE_EQ(e.cycles(), 1000.0);

  // Waiting pulls the lagging stream forward...
  streams.set_cycles(b, 200.0);
  streams.Wait(b, e);
  EXPECT_DOUBLE_EQ(streams.cycles(b), 1000.0);
  // ...but never rewinds a stream already past the event.
  streams.set_cycles(b, 5000.0);
  streams.Wait(b, e);
  EXPECT_DOUBLE_EQ(streams.cycles(b), 5000.0);

  // The event is a snapshot: advancing the recording stream afterwards
  // does not move the timestamp.
  streams.set_cycles(a, 9000.0);
  EXPECT_DOUBLE_EQ(e.cycles(), 1000.0);
}

TEST(StreamSetTest, SynchronizeJoinsEveryStream) {
  gpusim::StreamSet streams;
  StreamId a = streams.CreateStream();
  StreamId b = streams.CreateStream();
  streams.set_cycles(a, 300.0);
  streams.set_cycles(b, 700.0);
  EXPECT_DOUBLE_EQ(streams.Synchronize(), 700.0);
  // Every clock lands on the join: later default-stream work starts after
  // everything submitted before the synchronize.
  EXPECT_DOUBLE_EQ(streams.cycles(gpusim::kDefaultStream), 700.0);
  EXPECT_DOUBLE_EQ(streams.cycles(a), 700.0);
  EXPECT_DOUBLE_EQ(streams.cycles(b), 700.0);
}

TEST(StreamTest, ConcurrentCopyStreamsContendForTheLink) {
  SimParams params = SmallParams();
  Device device(params);
  StreamId a = device.CreateStream();
  StreamId b = device.CreateStream();

  const std::size_t bytes = 1 << 20;
  const double wire = static_cast<double>(bytes) / params.pcie_bytes_per_cycle;
  const double lat = params.pcie_latency_cycles;

  double ca = device.CopyHostToDeviceAsync(a, bytes);
  double cb = device.CopyHostToDeviceAsync(b, bytes);
  // Stream a gets the link first: latency + wire time.
  EXPECT_DOUBLE_EQ(ca, lat + wire);
  // Stream b is ready at the same simulated instant, but the shared link
  // is busy until a's transfer drains — its copy takes strictly longer
  // instead of magically using the full bandwidth in parallel.
  EXPECT_GT(cb, ca);
  EXPECT_DOUBLE_EQ(device.stream_cycles(b), lat + 2 * wire);
  // Two serialized transfers: the device-wide clock covers both, not the
  // double-counted sum.
  EXPECT_DOUBLE_EQ(device.Synchronize(), lat + 2 * wire);
  EXPECT_DOUBLE_EQ(device.streams().link_busy_cycles(), 2 * wire);
}

TEST(StreamTest, KernelAndCopyOnDistinctStreamsOverlapCompute) {
  SimParams params = SmallParams();
  Device device(params);
  StreamId compute = device.CreateStream();
  StreamId copy = device.CreateStream();

  // A pure-compute kernel generates no link traffic, so a concurrent copy
  // on another stream proceeds under it: total elapsed time is the max of
  // the legs, not the sum.
  double kc = device.LaunchKernelAsync(compute, 1,
                                       [](WarpCtx& w, std::size_t) {
                                         w.ChargeCompute(50000);
                                       });
  double cc = device.CopyHostToDeviceAsync(copy, 4096);
  EXPECT_DOUBLE_EQ(device.Synchronize(), std::max(kc, cc));
}

TEST(StreamTest, SyncWrappersMatchSingleStreamModel) {
  // The same command sequence issued through the sync wrappers and through
  // the async APIs on the default stream must produce identical clocks —
  // the wrappers are thin aliases, not a second cost model.
  SimParams params = SmallParams();
  auto run_compute = [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(123);
    w.DeviceRead(256);
  };
  Device sync_device(params);
  sync_device.CopyHostToDevice(10000);
  sync_device.LaunchKernel(7, run_compute);
  sync_device.CopyDeviceToHost(5000);

  Device async_device(params);
  async_device.CopyHostToDeviceAsync(gpusim::kDefaultStream, 10000);
  async_device.LaunchKernelAsync(gpusim::kDefaultStream, 7, run_compute);
  async_device.CopyDeviceToHostAsync(gpusim::kDefaultStream, 5000);

  EXPECT_DOUBLE_EQ(sync_device.now_cycles(), async_device.now_cycles());
}

TEST(StreamTest, AsyncReplayIsDeterministic) {
  // The link is granted in submission order, so replaying an identical
  // async command sequence yields bit-identical clocks and link state.
  auto run = [](Device* device) {
    StreamId a = device->CreateStream();
    StreamId b = device->CreateStream();
    device->CopyHostToDeviceAsync(a, 100000);
    device->LaunchKernelAsync(b, 8, [](WarpCtx& w, std::size_t t) {
      w.ChargeCompute(100.0 * static_cast<double>(t + 1));
      w.ZeroCopyRead(512);
    });
    device->WaitEvent(b, device->RecordEvent(a));
    device->CopyDeviceToHostAsync(b, 40000);
    device->Synchronize();
  };
  SimParams params = SmallParams();
  Device first(params);
  Device second(params);
  run(&first);
  run(&second);
  EXPECT_DOUBLE_EQ(first.now_cycles(), second.now_cycles());
  EXPECT_DOUBLE_EQ(first.streams().link_busy_cycles(),
                   second.streams().link_busy_cycles());
  EXPECT_EQ(first.stats().kernel_launches, second.stats().kernel_launches);
}

TEST(StreamTest, ResetClockRewindsStreamsAndLink) {
  Device device(SmallParams());
  StreamId s = device.CreateStream();
  device.CopyHostToDeviceAsync(s, 1 << 16);
  device.LaunchKernel(2, [](WarpCtx& w, std::size_t) {
    w.ZeroCopyRead(4096);
  });
  ASSERT_GT(device.now_cycles(), 0.0);
  ASSERT_GT(device.streams().link_busy_cycles(), 0.0);

  device.ResetClock();
  EXPECT_DOUBLE_EQ(device.now_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(device.stream_cycles(gpusim::kDefaultStream), 0.0);
  EXPECT_DOUBLE_EQ(device.stream_cycles(s), 0.0);
  EXPECT_DOUBLE_EQ(device.streams().link_busy_cycles(), 0.0);
  // The rewind keeps the link genuinely free: the next copy costs exactly
  // what a first-ever copy costs, with no ghost busy window.
  const SimParams& p = device.params();
  double c = device.CopyHostToDevice(1 << 16);
  EXPECT_DOUBLE_EQ(c, p.pcie_latency_cycles +
                          static_cast<double>(1 << 16) /
                              p.pcie_bytes_per_cycle);
}

TEST(StreamTest, SegmentSortOverlapIsNoSlowerAndSortsCorrectly) {
  auto make_keys = []() {
    std::vector<uint64_t> keys;
    keys.reserve(40000);
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 40000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      keys.push_back(x);
    }
    return keys;
  };
  core::SortOptions options;
  options.segment_bytes = 64 << 10;  // force several segments

  Device sync_device(SmallParams());
  std::vector<uint64_t> sync_keys = make_keys();
  auto sync = core::SortKeys(&sync_device, &sync_keys, options);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  options.num_streams = 2;
  Device async_device(SmallParams());
  std::vector<uint64_t> async_keys = make_keys();
  auto async = core::SortKeys(&async_device, &async_keys, options);
  ASSERT_TRUE(async.ok()) << async.status().ToString();

  EXPECT_EQ(sync_keys, async_keys);
  EXPECT_TRUE(std::is_sorted(async_keys.begin(), async_keys.end()));
  EXPECT_EQ(sync.value().segments, async.value().segments);
  EXPECT_GT(sync.value().segments, 1u);
  // Overlapping segment uploads with sort kernels can only help: the async
  // phase never takes longer than the serial per-op sum.
  EXPECT_LE(async_device.now_cycles(), sync_device.now_cycles());
}

TEST(StreamTest, DoubleBufferedExtensionMatchesSyncAndIsNoSlower) {
  // End-to-end regression on a Fig. 10-style memory workload: 4-clique
  // counting with small chunks. The double-buffered pipeline must count
  // exactly the same cliques and finish no later than the synchronous
  // path (strictly earlier whenever there is more than one chunk to
  // overlap).
  graph::Graph g = graph::MakeDataset("ER");
  g.EnsureEdgeIndex();

  auto options_with = [](std::size_t streams) {
    core::GammaOptions options = baselines::GammaDefaultOptions();
    options.extension.pool_bytes = 2ull << 20;  // fits the 4 MiB device
    options.extension.chunk_rows = 1024;
    options.extension.num_streams = streams;
    options.sort.num_streams = streams;
    return options;
  };

  Device sync_device(SmallParams());
  auto sync = baselines::GammaKClique(&sync_device, g, 4, options_with(1));
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  Device async_device(SmallParams());
  auto async = baselines::GammaKClique(&async_device, g, 4, options_with(2));
  ASSERT_TRUE(async.ok()) << async.status().ToString();

  EXPECT_EQ(sync.value().count, async.value().count);
  EXPECT_GT(async.value().count, 0u);
  EXPECT_LE(async_device.now_cycles(), sync_device.now_cycles());
  EXPECT_LT(async_device.now_cycles(), sync_device.now_cycles())
      << "double-buffered pipeline found nothing to overlap";
}

}  // namespace
}  // namespace gpm
