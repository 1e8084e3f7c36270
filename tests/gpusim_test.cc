#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <list>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gpusim/device.h"
#include "gpusim/host_array.h"
#include "gpusim/host_executor.h"
#include "gpusim/profile.h"
#include "gpusim/trace.h"

namespace gpm::gpusim {
namespace {

SimParams SmallParams() {
  SimParams p;
  p.device_memory_bytes = 1 << 20;       // 1 MiB
  p.um_device_buffer_bytes = 64 << 10;   // 16 pages
  return p;
}

TEST(DeviceMemoryTest, AllocateAndFree) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(400);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(mem.used_bytes(), 400u);
  auto b = mem.Allocate(600);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(mem.available_bytes(), 0u);
  mem.Free(a.value());
  EXPECT_EQ(mem.used_bytes(), 600u);
}

TEST(DeviceMemoryTest, OomWhenExceedingCapacity) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(800);
  ASSERT_TRUE(a.ok());
  auto b = mem.Allocate(300);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kDeviceOutOfMemory);
}

TEST(DeviceMemoryTest, PeakTracksHighWater) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(700);
  mem.Free(a.value());
  auto b = mem.Allocate(100);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(mem.peak_used_bytes(), 700u);
}

TEST(DeviceMemoryTest, ResizeGrowsAndShrinks) {
  DeviceMemory mem(1000);
  auto a = mem.Allocate(100);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mem.Resize(a.value(), 900).ok());
  EXPECT_EQ(mem.used_bytes(), 900u);
  EXPECT_FALSE(mem.Resize(a.value(), 1100).ok());
  EXPECT_TRUE(mem.Resize(a.value(), 50).ok());
  EXPECT_EQ(mem.used_bytes(), 50u);
}

TEST(DeviceBufferTest, RaiiFreesOnDestruction) {
  DeviceMemory mem(1000);
  {
    auto buf = DeviceBuffer::Make(&mem, 500);
    ASSERT_TRUE(buf.ok());
    EXPECT_EQ(mem.used_bytes(), 500u);
  }
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(DeviceBufferTest, MoveTransfersOwnership) {
  DeviceMemory mem(1000);
  auto buf = DeviceBuffer::Make(&mem, 500);
  ASSERT_TRUE(buf.ok());
  DeviceBuffer other = std::move(buf).value();
  EXPECT_TRUE(other.valid());
  other.Release();
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(DeviceBufferTest, MoveAssignEmptiesSource) {
  DeviceMemory mem(1000);
  auto a = DeviceBuffer::Make(&mem, 300);
  auto b = DeviceBuffer::Make(&mem, 200);
  ASSERT_TRUE(a.ok() && b.ok());
  DeviceBuffer dst = std::move(a).value();
  DeviceBuffer src = std::move(b).value();
  dst = std::move(src);
  // The moved-from buffer must be fully emptied: a stale id/bytes pair
  // would double-free on destruction or misreport its size.
  EXPECT_FALSE(src.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(src.bytes(), 0u);
  EXPECT_EQ(src.id(), 0u);
  EXPECT_TRUE(dst.valid());
  EXPECT_EQ(dst.bytes(), 200u);
  EXPECT_EQ(mem.used_bytes(), 200u);  // the 300-byte target was released
  dst.Release();
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(DeviceBufferTest, SelfMoveAssignIsSafe) {
  DeviceMemory mem(1000);
  auto buf = DeviceBuffer::Make(&mem, 400);
  ASSERT_TRUE(buf.ok());
  DeviceBuffer b = std::move(buf).value();
  DeviceBuffer& alias = b;
  b = std::move(alias);  // NOLINT(clang-diagnostic-self-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.bytes(), 400u);
  EXPECT_EQ(mem.used_bytes(), 400u);
}

TEST(UnifiedMemoryTest, FaultThenHit) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  AccessCharge miss = um.Access(region, 0, 64);
  EXPECT_EQ(stats.um_page_faults, 1u);
  EXPECT_EQ(miss.pcie_bytes, p.um_page_bytes);
  AccessCharge hit = um.Access(region, 128, 64);
  EXPECT_EQ(stats.um_page_faults, 1u);
  EXPECT_EQ(stats.um_page_hits, 1u);
  EXPECT_EQ(hit.pcie_bytes, 0u);
  EXPECT_LT(hit.cycles, miss.cycles);
}

TEST(UnifiedMemoryTest, SpanningAccessTouchesAllPages) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  um.Access(region, p.um_page_bytes - 8, 16);  // crosses a page boundary
  EXPECT_EQ(stats.um_page_faults, 2u);
}

TEST(UnifiedMemoryTest, LruEvictsOldest) {
  SimParams p = SmallParams();  // 16-page buffer
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  for (int i = 0; i < 17; ++i) {
    um.Access(region, i * p.um_page_bytes, 8);
  }
  EXPECT_EQ(stats.um_evictions, 1u);
  EXPECT_FALSE(um.IsResident(region, 0));      // page 0 evicted
  EXPECT_TRUE(um.IsResident(region, 16 * p.um_page_bytes));
}

TEST(UnifiedMemoryTest, TouchRefreshesLruPosition) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  for (int i = 0; i < 16; ++i) um.Access(region, i * p.um_page_bytes, 8);
  um.Access(region, 0, 8);  // refresh page 0
  um.Access(region, 16 * p.um_page_bytes, 8);  // evicts page 1, not 0
  EXPECT_TRUE(um.IsResident(region, 0));
  EXPECT_FALSE(um.IsResident(region, p.um_page_bytes));
}

TEST(UnifiedMemoryTest, ShrinkInvalidatesStalePages) {
  SimParams p = SmallParams();
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(8 * p.um_page_bytes);
  um.Access(region, 7 * p.um_page_bytes, 8);
  EXPECT_TRUE(um.IsResident(region, 7 * p.um_page_bytes));
  um.ResizeRegion(region, 2 * p.um_page_bytes);
  EXPECT_FALSE(um.IsResident(region, 7 * p.um_page_bytes));
}

TEST(UnifiedMemoryTest, ZeroCapacityNeverCaches) {
  SimParams p = SmallParams();
  p.um_device_buffer_bytes = 0;
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto region = um.Register(1 << 20);
  um.Access(region, 0, p.um_page_bytes);
  um.Access(region, 0, p.um_page_bytes);
  EXPECT_EQ(stats.um_page_faults, 2u);
  EXPECT_EQ(stats.um_page_hits, 0u);
  EXPECT_EQ(stats.um_evictions, 0u);
  EXPECT_EQ(um.resident_pages(), 0u);
}

TEST(UnifiedMemoryTest, DropsRemoveExactlyTheNamedPages) {
  SimParams p = SmallParams();  // 16-page buffer
  const std::size_t page = p.um_page_bytes;
  DeviceStats stats;
  UnifiedMemory um(p, &stats);
  auto a = um.Register(3 * page);
  auto b = um.Register(2 * page);
  um.Access(a, 0, 3 * page);  // pages 0..2 of a
  um.Access(b, 0, 2 * page);  // pages 0..1 of b
  EXPECT_EQ(um.resident_pages(), 5u);

  // Growing drops nothing; shrinking to 1.5 pages keeps the partial page.
  um.DropPagesPast(a, page, 3 * page);
  EXPECT_EQ(um.resident_pages(), 5u);
  um.DropPagesPast(a, 3 * page, page + page / 2);
  EXPECT_EQ(um.resident_pages(), 4u);
  EXPECT_TRUE(um.IsResident(a, 0));
  EXPECT_TRUE(um.IsResident(a, page));
  EXPECT_FALSE(um.IsResident(a, 2 * page));
  EXPECT_TRUE(um.IsResident(b, page));

  um.InvalidateRegion(b);
  EXPECT_EQ(um.resident_pages(), 2u);
  EXPECT_FALSE(um.IsResident(b, 0));
  EXPECT_FALSE(um.IsResident(b, page));
  EXPECT_TRUE(um.IsResident(a, 0));
  EXPECT_EQ(stats.um_evictions, 0u);  // a drop is not an eviction

  // A dropped page faults again; a kept one still hits.
  const uint64_t faults = stats.um_page_faults;
  const uint64_t hits = stats.um_page_hits;
  um.Access(a, 2 * page, 8);
  um.Access(b, 0, 8);
  um.Access(a, page, 8);
  EXPECT_EQ(stats.um_page_faults, faults + 2);
  EXPECT_EQ(stats.um_page_hits, hits + 1);
}

// The page buffer as a std::list LRU indexed by an unordered_map, the way
// UnifiedMemory kept it before its flat layout. The differential test
// holds UnifiedMemory to this model: same charges, counters, residency
// and page-event order.
class ListLruReference {
 public:
  ListLruReference(const SimParams& params, DeviceStats* stats,
                   TraceRecorder* trace, const double* now_cycles)
      : params_(params),
        stats_(stats),
        trace_(trace),
        now_cycles_(now_cycles),
        capacity_pages_(params.um_device_buffer_bytes / params.um_page_bytes) {
  }

  void DropPagesPast(uint32_t region, std::size_t old_bytes,
                     std::size_t new_bytes) {
    if (new_bytes >= old_bytes) return;
    uint64_t first_stale =
        (new_bytes + params_.um_page_bytes - 1) / params_.um_page_bytes;
    uint64_t last = old_bytes / params_.um_page_bytes;
    for (uint64_t p = first_stale; p <= last; ++p) {
      auto it = resident_.find(PageKey(region, p));
      if (it != resident_.end()) {
        lru_.erase(it->second);
        resident_.erase(it);
      }
    }
  }

  std::size_t PrefetchPage(uint32_t region, std::size_t offset) {
    uint64_t page = offset / params_.um_page_bytes;
    uint64_t key = PageKey(region, page);
    if (auto it = resident_.find(key); it != resident_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return 0;
    }
    InsertPage(key);
    stats_->um_migrated_bytes += params_.um_page_bytes;
    Trace(TraceRecorder::Kind::kUmPrefetch, region, page);
    return params_.um_page_bytes;
  }

  void InvalidateRegion(uint32_t region) {
    for (auto it = resident_.begin(); it != resident_.end();) {
      if ((it->first >> 48) == region) {
        lru_.erase(it->second);
        it = resident_.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool IsResident(uint32_t region, std::size_t offset) const {
    return resident_.count(PageKey(region, offset / params_.um_page_bytes)) >
           0;
  }

  std::size_t resident_pages() const { return lru_.size(); }

  AccessCharge Access(uint32_t region, std::size_t offset,
                      std::size_t bytes) {
    AccessCharge charge;
    if (bytes == 0) return charge;
    const std::size_t page_bytes = params_.um_page_bytes;
    uint64_t first_page = offset / page_bytes;
    uint64_t last_page = (offset + bytes - 1) / page_bytes;
    for (uint64_t p = first_page; p <= last_page; ++p) {
      uint64_t key = PageKey(region, p);
      std::size_t lo = std::max<std::size_t>(offset, p * page_bytes);
      std::size_t hi =
          std::min<std::size_t>(offset + bytes, (p + 1) * page_bytes);
      std::size_t span = hi - lo;
      auto it = resident_.find(key);
      if (it != resident_.end()) {
        ++stats_->um_page_hits;
        charge.cycles += params_.device_mem_latency_cycles +
                         static_cast<double>(span) /
                             params_.device_bytes_per_cycle;
        charge.hit_cycles += params_.device_mem_latency_cycles +
                             static_cast<double>(span) /
                                 params_.device_bytes_per_cycle;
        lru_.splice(lru_.begin(), lru_, it->second);
        Trace(TraceRecorder::Kind::kUmHit, region, p);
      } else {
        ++stats_->um_page_faults;
        stats_->um_migrated_bytes += page_bytes;
        charge.cycles += params_.page_fault_cycles +
                         static_cast<double>(page_bytes) /
                             params_.pcie_bytes_per_cycle;
        charge.fault_cycles += params_.page_fault_cycles +
                               static_cast<double>(page_bytes) /
                                   params_.pcie_bytes_per_cycle;
        charge.pcie_bytes += page_bytes;
        Trace(TraceRecorder::Kind::kUmFault, region, p);
        InsertPage(key);
      }
    }
    return charge;
  }

 private:
  static uint64_t PageKey(uint32_t region, uint64_t page) {
    return (static_cast<uint64_t>(region) << 48) | page;
  }

  void Trace(TraceRecorder::Kind kind, uint32_t region, uint64_t page) {
    trace_->RecordUmEvent(kind, *now_cycles_, region, page);
  }

  void InsertPage(uint64_t key) {
    if (capacity_pages_ == 0) return;
    while (lru_.size() >= capacity_pages_) {
      uint64_t victim = lru_.back();
      resident_.erase(victim);
      lru_.pop_back();
      ++stats_->um_evictions;
      Trace(TraceRecorder::Kind::kUmEviction,
            static_cast<uint32_t>(victim >> 48),
            victim & ((uint64_t{1} << 48) - 1));
    }
    lru_.push_front(key);
    resident_.emplace(key, lru_.begin());
  }

  const SimParams& params_;
  DeviceStats* stats_;
  TraceRecorder* trace_;
  const double* now_cycles_;
  const std::size_t capacity_pages_;
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> resident_;
};

void ExpectSameCharge(const AccessCharge& got, const AccessCharge& want,
                      int op) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.cycles),
            std::bit_cast<uint64_t>(want.cycles))
      << "op " << op;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.hit_cycles),
            std::bit_cast<uint64_t>(want.hit_cycles))
      << "op " << op;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.fault_cycles),
            std::bit_cast<uint64_t>(want.fault_cycles))
      << "op " << op;
  EXPECT_EQ(got.pcie_bytes, want.pcie_bytes) << "op " << op;
}

// Seeded random streams over three regions: page-spanning accesses,
// prefetches, resizes that grow and shrink, direct drops over ranges that
// may reach past the region, and invalidations.
TEST(UnifiedMemoryTest, FlatBufferMatchesListLru) {
  constexpr int kOps = 6000;
  constexpr uint64_t kMaxRegionPages = 48;
  for (std::size_t capacity : {0u, 1u, 2u, 16u, 64u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << " pages, seed " << seed);
      SimParams p;
      p.um_device_buffer_bytes = capacity * p.um_page_bytes;
      const std::size_t page = p.um_page_bytes;
      double now = 0;
      DeviceStats got_stats, want_stats;
      TraceRecorder got_trace(1u << 22), want_trace(1u << 22);
      got_trace.set_enabled(true);
      want_trace.set_enabled(true);
      UnifiedMemory um(p, &got_stats);
      um.BindTrace(&got_trace, &now);
      ListLruReference ref(p, &want_stats, &want_trace, &now);
      ASSERT_EQ(um.capacity_pages(), capacity);

      Rng rng(seed);
      std::vector<UnifiedMemory::RegionId> regions;
      std::vector<std::size_t> sizes;
      for (int r = 0; r < 3; ++r) {
        sizes.push_back((8 + rng.NextBounded(kMaxRegionPages - 8)) * page);
        regions.push_back(um.Register(sizes.back()));
      }
      for (int op = 0; op < kOps; ++op) {
        now = op;
        const std::size_t r = rng.NextBounded(regions.size());
        const UnifiedMemory::RegionId region = regions[r];
        const std::size_t size = sizes[r];
        const uint64_t kind = rng.NextBounded(100);
        if (kind < 70) {
          if (size == 0) continue;
          const std::size_t offset = rng.NextBounded(size);
          const std::size_t bytes =
              rng.NextBounded(std::min(size - offset, 3 * page) + 1);
          ExpectSameCharge(um.Access(region, offset, bytes),
                           ref.Access(region, offset, bytes), op);
        } else if (kind < 80) {
          const std::size_t offset = rng.NextBounded(size + 1);
          EXPECT_EQ(um.PrefetchPage(region, offset),
                    ref.PrefetchPage(region, offset))
              << "op " << op;
        } else if (kind < 90) {
          const std::size_t new_size =
              rng.NextBounded(kMaxRegionPages * page + 1);
          um.ResizeRegion(region, new_size);
          ref.DropPagesPast(region, size, new_size);
          sizes[r] = new_size;
        } else if (kind < 97) {
          const std::size_t old_bytes = rng.NextBounded(200 * page);
          const std::size_t new_bytes = rng.NextBounded(200 * page);
          um.DropPagesPast(region, old_bytes, new_bytes);
          ref.DropPagesPast(region, old_bytes, new_bytes);
        } else {
          um.InvalidateRegion(region);
          ref.InvalidateRegion(region);
        }
        ASSERT_EQ(um.resident_pages(), ref.resident_pages()) << "op " << op;
        ASSERT_LE(um.resident_pages(), capacity);
      }

      for (const auto& field : DeviceStats::Fields()) {
        EXPECT_EQ(got_stats.*field.member, want_stats.*field.member)
            << field.name;
      }
      for (UnifiedMemory::RegionId region : regions) {
        for (uint64_t pg = 0; pg <= 200; ++pg) {
          EXPECT_EQ(um.IsResident(region, pg * page),
                    ref.IsResident(region, pg * page))
              << "region " << region << " page " << pg;
        }
      }
      ASSERT_EQ(got_trace.dropped_events(), 0u);
      ASSERT_EQ(got_trace.events().size(), want_trace.events().size());
      for (std::size_t i = 0; i < got_trace.events().size(); ++i) {
        const auto& a = got_trace.events()[i];
        const auto& b = want_trace.events()[i];
        ASSERT_TRUE(a.kind == b.kind && a.region == b.region &&
                    a.page == b.page && a.begin_cycles == b.begin_cycles)
            << "event " << i << ": " << TraceKindName(a.kind) << " "
            << a.region << ":" << a.page << " vs " << TraceKindName(b.kind)
            << " " << b.region << ":" << b.page;
      }
    }
  }
}

TEST(DeviceTest, UmBufferReservedAtConstruction) {
  Device device(SmallParams());
  EXPECT_EQ(device.memory().used_bytes(), SmallParams().um_device_buffer_bytes);
}

TEST(DeviceTest, KernelAdvancesClock) {
  Device device(SmallParams());
  double before = device.now_cycles();
  device.LaunchKernel(4, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1000);
  });
  EXPECT_GT(device.now_cycles(), before);
  EXPECT_EQ(device.stats().kernel_launches, 1u);
  EXPECT_EQ(device.stats().warp_tasks, 4u);
}

TEST(DeviceTest, MakespanScalesWithWarpSlots) {
  SimParams one = SmallParams();
  one.num_warp_slots = 1;
  SimParams many = SmallParams();
  many.num_warp_slots = 64;
  Device d1(one), d64(many);
  auto work = [](WarpCtx& w, std::size_t) { w.ChargeCompute(10000); };
  double t1 = d1.LaunchKernel(64, work);
  double t64 = d64.LaunchKernel(64, work);
  // 64 equal tasks: serial is ~64x the parallel makespan (plus overhead).
  EXPECT_GT(t1, t64 * 30);
}

// The launch's slot scheduler against a std::priority_queue of (finish,
// slot) pairs: the kernel record's makespan, busiest slot split and
// per-slot busy cycles, and the timeline's slot runs, must be exactly the
// reference's. Runs of tied tasks (every slot free at once) and of
// zero-cycle tasks (a slot that stays the earliest free) make the tie
// order observable; compute and DRAM charges give slots distinct class
// splits.
TEST(DeviceTest, SlotHeapMatchesPriorityQueueReference) {
  for (int slots : {1, 2, 3, 64}) {
    for (int host_threads : {1, 2}) {
      const std::string label = std::to_string(slots) + " slots, " +
                                std::to_string(host_threads) +
                                " host threads";
      Rng rng(static_cast<uint64_t>(slots * 10 + host_threads));
      // Per task: compute cycles and DRAM bytes. Blocks of 40 tasks cycle
      // through tied, zero-cycle and random costs.
      std::vector<std::pair<double, std::size_t>> costs;
      for (int i = 0; i < 400; ++i) {
        switch (i / 40 % 3) {
          case 0:
            costs.push_back({100.0, 0});
            break;
          case 1:
            costs.push_back({0.0, 0});
            break;
          default:
            costs.push_back({static_cast<double>(rng.NextBounded(500)),
                             rng.NextBounded(3) * 4096});
        }
      }
      auto run = [&costs](WarpCtx& w, std::size_t t) {
        if (costs[t].first > 0) w.ChargeCompute(costs[t].first);
        if (costs[t].second > 0) w.DeviceRead(costs[t].second);
      };

      SimParams params = SmallParams();
      params.num_warp_slots = slots;
      params.host_threads = host_threads;
      params.record_commands = true;
      params.record_timeline = true;

      // Reference: each task's cycles and class split on an immediate
      // context, scheduled through a priority queue.
      Device scratch(params);
      using SlotTime = std::pair<double, int>;
      std::priority_queue<SlotTime, std::vector<SlotTime>,
                          std::greater<SlotTime>>
          finish;
      for (int i = 0; i < slots; ++i) finish.push({0.0, i});
      std::vector<ResourceCycles> busy(static_cast<std::size_t>(slots));
      std::vector<std::vector<std::pair<double, double>>> runs(
          static_cast<std::size_t>(slots));
      for (std::size_t t = 0; t < costs.size(); ++t) {
        WarpCtx w(&scratch, t);
        run(w, t);
        auto [start, slot] = finish.top();
        finish.pop();
        const double end = start + w.cycles();
        finish.push({end, slot});
        for (int c = 0; c < kNumResourceClasses; ++c) {
          busy[static_cast<std::size_t>(slot)][c] += w.class_cycles()[c];
        }
        auto& slot_runs = runs[static_cast<std::size_t>(slot)];
        if (end > start) {
          if (!slot_runs.empty() && slot_runs.back().second == start) {
            slot_runs.back().second = end;
          } else {
            slot_runs.push_back({start, end});
          }
        }
      }
      double makespan = 0;
      int busiest = 0;
      while (!finish.empty()) {
        std::tie(makespan, busiest) = finish.top();
        finish.pop();
      }

      Device device(params);
      device.LaunchKernel(costs.size(), run, "heap");
      ASSERT_EQ(device.critpath().commands().size(), 1u) << label;
      const prof::CommandRecord& rec = device.critpath().commands()[0];
      EXPECT_EQ(rec.makespan, makespan) << label;
      for (int c = 0; c < kNumResourceClasses; ++c) {
        EXPECT_EQ(rec.busy[c], busy[static_cast<std::size_t>(busiest)][c])
            << label << ", class " << c;
      }
      ASSERT_EQ(rec.slot_busy_cycles.size(), static_cast<std::size_t>(slots));
      for (int s = 0; s < slots; ++s) {
        double total = 0;
        for (int c = 0; c < kNumResourceClasses; ++c) {
          total += busy[static_cast<std::size_t>(s)][c];
        }
        EXPECT_EQ(rec.slot_busy_cycles[static_cast<std::size_t>(s)], total)
            << label << ", slot " << s;
      }
      std::vector<std::vector<std::pair<double, double>>> got(
          static_cast<std::size_t>(slots));
      const double work_start = params.kernel_launch_cycles;
      for (const TraceRecorder::Event& e : device.trace().events()) {
        if (e.kind != TraceRecorder::Kind::kWarpSlot) continue;
        got[static_cast<std::size_t>(e.track)].push_back(
            {e.begin_cycles, e.end_cycles});
      }
      for (int s = 0; s < slots; ++s) {
        const auto& want = runs[static_cast<std::size_t>(s)];
        const auto& have = got[static_cast<std::size_t>(s)];
        ASSERT_EQ(have.size(), want.size()) << label << ", slot " << s;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(have[i].first, work_start + want[i].first)
              << label << ", slot " << s << ", run " << i;
          EXPECT_EQ(have[i].second, work_start + want[i].second)
              << label << ", slot " << s << ", run " << i;
        }
      }
    }
  }
}

TEST(DeviceTest, PcieOverlapsWithCompute) {
  Device device(SmallParams());
  // Compute-heavy kernel: PCIe traffic is hidden under the makespan.
  double compute_only = device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1e7);
  });
  double with_traffic = device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1e7);
    w.ZeroCopyRead(1024);
  });
  EXPECT_NEAR(compute_only, with_traffic, compute_only * 0.01);
}

TEST(DeviceTest, ExplicitCopyChargesLink) {
  Device device(SmallParams());
  double cycles = device.CopyHostToDevice(16 << 10);
  EXPECT_GT(cycles, 0);
  EXPECT_EQ(device.stats().explicit_h2d_bytes, 16u << 10);
}

TEST(WarpCtxTest, ZeroCopyCountsTransactions) {
  Device device(SmallParams());
  device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ZeroCopyRead(300);  // 3 x 128B transactions
  });
  EXPECT_EQ(device.stats().zc_transactions, 3u);
  EXPECT_EQ(device.stats().zc_bytes, 384u);
}

TEST(WarpCtxTest, SimtWorkRoundsUpToWarpSteps) {
  Device device(SmallParams());
  double t33 = 0, t1 = 0;
  device.LaunchKernel(1, [&](WarpCtx& w, std::size_t) {
    w.ChargeSimtWork(33);  // 2 steps of 32
    t33 = w.cycles();
  });
  device.LaunchKernel(1, [&](WarpCtx& w, std::size_t) {
    w.ChargeSimtWork(1);  // 1 step
    t1 = w.cycles();
  });
  EXPECT_DOUBLE_EQ(t33, 2.0);
  EXPECT_DOUBLE_EQ(t1, 1.0);
}

// The ordered streaming primitive behind parallel kernel launches. Every
// index is produced exactly once and consumed in ascending order on the
// calling thread, never more than window() indices are produced but not
// consumed, and each consume sees what its produce wrote into the slot
// t % window(), untouched by later produces until the consume returns. A
// slow first task lets the workers run ahead until the window stops them.
void ExpectOrderedFor(int threads, std::size_t n, bool slow_first) {
  const std::string label = std::to_string(threads) + " threads, n=" +
                            std::to_string(n) +
                            (slow_first ? ", slow first task" : "");
  HostExecutor exec(threads);
  const std::size_t window = exec.window();
  ASSERT_EQ(window, HostExecutor::kWindowPerThread * threads) << label;
  constexpr std::size_t kEmpty = std::numeric_limits<std::size_t>::max();
  std::vector<std::atomic<int>> produced(n);
  std::vector<std::size_t> slots(window, kEmpty);
  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> max_live{0};
  std::size_t next = 0;
  std::size_t out_of_order = 0;
  std::size_t off_thread = 0;
  std::size_t torn = 0;
  const std::thread::id caller = std::this_thread::get_id();
  exec.OrderedFor(
      n,
      [&](std::size_t t) {
        const std::size_t now = live.fetch_add(1) + 1;
        std::size_t seen = max_live.load();
        while (now > seen && !max_live.compare_exchange_weak(seen, now)) {
        }
        if (slow_first && t == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        produced[t].fetch_add(1);
        slots[t % window] = t;
      },
      [&](std::size_t t) {
        if (std::this_thread::get_id() != caller) ++off_thread;
        if (t != next) ++out_of_order;
        next = t + 1;
        if (slots[t % window] != t) ++torn;
        // Hold the slot a while: a produce that reuses it too early lands
        // between the two reads.
        if (slow_first) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (slots[t % window] != t) ++torn;
        slots[t % window] = kEmpty;
        live.fetch_sub(1);
      });
  EXPECT_EQ(next, n) << label;
  EXPECT_EQ(out_of_order, 0u) << label;
  EXPECT_EQ(off_thread, 0u) << label;
  EXPECT_EQ(torn, 0u) << label;
  EXPECT_LE(max_live.load(), window) << label;
  std::size_t not_once = 0;
  for (const std::atomic<int>& count : produced) not_once += count != 1;
  EXPECT_EQ(not_once, 0u) << label;
}

TEST(HostExecutorTest, OrderedForKeepsOrderWindowAndSlots) {
  for (int threads = 1; threads <= 4; ++threads) {
    const std::size_t w = HostExecutor::kWindowPerThread * threads;
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15},
                          std::size_t{16}, std::size_t{17}, w - 1, w, w + 1,
                          10 * w}) {
      ExpectOrderedFor(threads, n, /*slow_first=*/false);
    }
    ExpectOrderedFor(threads, 10 * w, /*slow_first=*/true);
  }
}

// One executor serves launch after launch: the slots' ready stamps from an
// earlier call must never pass for a later call's tasks.
TEST(HostExecutorTest, OrderedForReusesSlotsAcrossCalls) {
  HostExecutor exec(3);
  const std::size_t window = exec.window();
  std::vector<std::size_t> slots(window, 0);
  for (std::size_t call = 1; call <= 50; ++call) {
    const std::size_t n = (call * 37) % (3 * window) + 1;
    std::size_t mismatched = 0;
    exec.OrderedFor(
        n, [&](std::size_t t) { slots[t % window] = call * 100000 + t; },
        [&](std::size_t t) {
          mismatched += slots[t % window] != call * 100000 + t;
        });
    EXPECT_EQ(mismatched, 0u) << "call " << call << ", n=" << n;
  }
}

TEST(HostArrayTest, TracksHostMemory) {
  Device device(SmallParams());
  {
    HostArray<uint32_t> arr(&device);
    arr.Assign(std::vector<uint32_t>(1000, 7));
    EXPECT_EQ(device.host_tracker().current_bytes(), 4000u);
  }
  EXPECT_EQ(device.host_tracker().current_bytes(), 0u);
  EXPECT_EQ(device.host_tracker().peak_bytes(), 4000u);
}

// The kernel trace is a view over the command log's kernel records.
TEST(DeviceTest, TraceRecordsNamedKernels) {
  Device device(SmallParams());
  device.critpath().set_enabled(true);
  const double alpha_cycles = device.LaunchKernel(3, [](WarpCtx& w,
                                                        std::size_t) {
    w.ChargeCompute(100);
  }, "alpha");
  device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ZeroCopyRead(1024);
  }, "beta");
  const auto& cmds = device.critpath().commands();
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].kind, prof::CommandRecord::Kind::kKernel);
  EXPECT_EQ(cmds[0].name, "alpha");
  EXPECT_EQ(cmds[0].tasks, 3u);
  EXPECT_GT(alpha_cycles, 0.0);
  EXPECT_EQ(cmds[0].end - cmds[0].start, alpha_cycles);
  EXPECT_EQ(cmds[1].name, "beta");
  EXPECT_GT(cmds[1].link_transfer, 0.0);
  device.ResetClock();
  EXPECT_TRUE(device.critpath().commands().empty());
}

TEST(DeviceTest, TraceOffByDefault) {
  Device device(SmallParams());
  device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
    w.ChargeCompute(1);
  });
  EXPECT_FALSE(device.critpath().enabled());
  EXPECT_TRUE(device.critpath().commands().empty());
}

TEST(SimParamsTest, PresetsAreConsistent) {
  SimParams v100 = SimParams::V100();
  EXPECT_EQ(v100.device_memory_bytes, 16ull << 30);
  EXPECT_GT(v100.num_warp_slots, SimParams().num_warp_slots);
  SimParams bench = SimParams::BenchScale();
  EXPECT_LT(bench.device_memory_bytes, v100.device_memory_bytes);
  // Both presets keep the page buffer inside device memory.
  EXPECT_LT(bench.um_device_buffer_bytes, bench.device_memory_bytes);
  EXPECT_LT(v100.um_device_buffer_bytes, v100.device_memory_bytes);
  // A device can actually be built from each preset.
  Device d1(bench);
  Device d2(v100);
  EXPECT_GT(d1.memory().available_bytes(), 0u);
  EXPECT_GT(d2.memory().available_bytes(), 0u);
}

TEST(StatsTest, ToStringMentionsCounters) {
  DeviceStats stats;
  stats.um_page_faults = 5;
  std::string s = stats.ToString();
  EXPECT_NE(s.find("um_faults=5"), std::string::npos);
}

TEST(StatsTest, FieldsEnumerateEveryCounterOnce) {
  // Setting each field through its member pointer to a distinct value and
  // summing the struct proves the table hits every counter exactly once
  // (a missing or duplicated entry changes the sum).
  DeviceStats stats;
  uint64_t expected_sum = 0;
  uint64_t v = 1;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    stats.*f.member = v;
    expected_sum += v;
    ++v;
  }
  uint64_t sum = 0;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    sum += stats.*f.member;
  }
  EXPECT_EQ(sum, expected_sum);
  EXPECT_EQ(DeviceStats::Fields().size(), 16u);
}

TEST(StatsTest, SnapshotDiffRoundTrip) {
  DeviceStats before;
  uint64_t v = 10;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    before.*f.member = v++;
  }
  DeviceStats after = before.Snapshot();
  uint64_t inc = 1;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    after.*f.member += inc++;
  }
  DeviceStats delta = after.Diff(before);
  inc = 1;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    EXPECT_EQ(delta.*f.member, inc) << f.name;
    EXPECT_EQ(before.*f.member + delta.*f.member, after.*f.member)
        << f.name;
    ++inc;
  }
  // Diff saturates rather than wrapping when counters ran backwards.
  DeviceStats negative = before.Diff(after);
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    EXPECT_EQ(negative.*f.member, 0u) << f.name;
  }
}

TEST(StatsTest, JsonListsEveryCounter) {
  DeviceStats stats;
  uint64_t v = 100;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    stats.*f.member = v++;
  }
  std::string json = StatsJson(stats);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  v = 100;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    std::string entry =
        std::string("\"") + f.name + "\": " + std::to_string(v++);
    EXPECT_NE(json.find(entry), std::string::npos) << entry;
  }
}

TEST(ProfileTest, PhaseScopeAttributesDeltasByName) {
  Device device(SmallParams());
  for (int i = 0; i < 2; ++i) {
    PhaseScope scope(&device, "zc-phase");
    device.LaunchKernel(1, [](WarpCtx& w, std::size_t) {
      w.ZeroCopyRead(300);  // 3 x 128B transactions
    });
  }
  {
    PhaseScope scope(&device, "idle-phase");
  }
  const PhaseRecord* zc = device.profile().Find("zc-phase");
  ASSERT_NE(zc, nullptr);
  EXPECT_EQ(zc->invocations, 2u);
  EXPECT_EQ(zc->delta.kernel_launches, 2u);
  EXPECT_EQ(zc->delta.zc_transactions, 6u);
  EXPECT_GT(zc->cycles, 0.0);
  const PhaseRecord* idle = device.profile().Find("idle-phase");
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(idle->invocations, 1u);
  EXPECT_EQ(idle->delta.zc_transactions, 0u);
  EXPECT_EQ(device.profile().Find("never-ran"), nullptr);
}

TEST(ProfileTest, ToJsonCarriesTotalsPhasesAndTrace) {
  Device device(SmallParams());
  device.critpath().set_enabled(true);
  {
    PhaseScope scope(&device, "alpha");
    device.LaunchKernel(2, [](WarpCtx& w, std::size_t) {
      w.ZeroCopyRead(128);
    }, "alpha-kernel");
  }
  std::string json = device.profile().ToJson(device);
  EXPECT_NE(json.find("\"schema\": \"gamma.profile.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha-kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"invocations\": 1"), std::string::npos);
  // The counters object inside each section lists every field by name.
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    EXPECT_NE(json.find(std::string("\"") + f.name + "\""),
              std::string::npos)
        << f.name;
  }
}

}  // namespace
}  // namespace gpm::gpusim
