// Tests for the timeline recorder: ring-buffer bounds and drop
// accounting, Chrome trace-event export well-formedness (balanced B/E
// pairs per track, monotonic timestamps), and the acceptance property
// that on a quickstart-style workload every kernel span is covered by an
// engine phase span.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/generators.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "gpusim/trace.h"
#include "minijson.h"

namespace gpm::gpusim {
namespace {

using Kind = TraceRecorder::Kind;

SimParams SmallParams() {
  SimParams p;
  p.device_memory_bytes = 1 << 20;      // 1 MiB
  p.um_device_buffer_bytes = 64 << 10;  // 16 pages
  return p;
}

// One reconstructed span (or instant) from the exported Chrome JSON.
struct JsonSpan {
  double begin = 0;
  double end = 0;
  std::string name;
  std::string cat;
};

using SpanMap = std::map<std::pair<int, int>, std::vector<JsonSpan>>;

// Per-track validation of a parsed Chrome trace document: timestamps are
// monotonic (non-decreasing), every "E" closes an open "B", and every "B"
// is eventually closed. Fills `*spans` with the completed spans per track.
// (void return so ASSERT_* can bail out on malformed documents.)
void ValidateTracks(const minijson::Value& doc, SpanMap* spans) {
  SpanMap open;
  std::map<std::pair<int, int>, double> last_ts;
  const minijson::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->type, minijson::Value::kArray);
  for (const minijson::Value& ev : events->array) {
    const minijson::Value* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") continue;  // metadata carries no timestamp
    const minijson::Value* pid = ev.Find("pid");
    const minijson::Value* tid = ev.Find("tid");
    const minijson::Value* ts = ev.Find("ts");
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    std::pair<int, int> track{static_cast<int>(pid->number),
                              static_cast<int>(tid->number)};
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->number, it->second)
          << "timestamps ran backwards on track " << track.first << "/"
          << track.second;
    }
    last_ts[track] = ts->number;
    if (ph->str == "B") {
      JsonSpan s;
      s.begin = ts->number;
      const minijson::Value* name = ev.Find("name");
      ASSERT_NE(name, nullptr) << "B event without a name";
      s.name = name->str;
      if (const minijson::Value* cat = ev.Find("cat")) s.cat = cat->str;
      open[track].push_back(std::move(s));
    } else if (ph->str == "E") {
      auto& stack = open[track];
      ASSERT_FALSE(stack.empty())
          << "unbalanced E on track " << track.first << "/" << track.second;
      JsonSpan s = std::move(stack.back());
      stack.pop_back();
      s.end = ts->number;
      EXPECT_GE(s.end, s.begin);
      (*spans)[track].push_back(std::move(s));
    } else {
      EXPECT_EQ(ph->str, "i") << "unexpected event phase " << ph->str;
      const minijson::Value* args = ev.Find("args");
      ASSERT_NE(args, nullptr) << "instant without page args";
      EXPECT_NE(args->Find("region"), nullptr);
      EXPECT_NE(args->Find("page"), nullptr);
    }
  }
  for (const auto& [track, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed B events on track "
                               << track.first << "/" << track.second;
  }
}

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder rec;
  rec.RecordSpan(Kind::kKernel, "k", 0, 10);
  rec.RecordUmEvent(Kind::kUmFault, 5, 1, 0);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped_events(), 0u);  // disabled != dropped
}

TEST(TraceRecorderTest, CapacityDropsAndCountsExactly) {
  TraceRecorder rec(4);
  rec.set_enabled(true);
  for (int i = 0; i < 7; ++i) {
    rec.RecordSpan(Kind::kKernel, "k", i * 10.0, i * 10.0 + 5.0);
  }
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped_events(), 3u);
  // The earliest events win, so a truncated trace still starts at t=0.
  EXPECT_DOUBLE_EQ(rec.events().front().begin_cycles, 0.0);

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(rec.ToChromeTraceJson(SimParams()), &doc));
  const minijson::Value* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("schema")->str, "gamma.trace.v1");
  EXPECT_DOUBLE_EQ(other->Find("dropped_events")->number, 3.0);
  EXPECT_DOUBLE_EQ(other->Find("capacity")->number, 4.0);

  rec.Clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(TraceRecorderTest, ChromeJsonBalancedWithAwkwardSpans) {
  TraceRecorder rec;
  rec.set_enabled(true);
  // Adjacent spans sharing a boundary, a nested span, a zero-length span,
  // and instants at coinciding timestamps — the awkward cases for B/E
  // ordering at equal ts.
  rec.RecordSpan(Kind::kKernel, "inner", 2, 6);
  rec.RecordSpan(Kind::kPhase, "outer", 0, 10);
  rec.RecordSpan(Kind::kKernel, "adjacent", 6, 10);
  rec.RecordSpan(Kind::kKernel, "zero", 10, 10);
  rec.RecordUmEvent(Kind::kUmFault, 6, 1, 42);
  rec.RecordUmEvent(Kind::kUmHit, 6, 1, 42);

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(rec.ToChromeTraceJson(SimParams()), &doc));
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(doc, &spans));
  std::size_t total = 0;
  for (const auto& [track, list] : spans) total += list.size();
  EXPECT_EQ(total, 4u);  // all four spans closed exactly once
}

// The profile's kernel trace is rendered from the command log, so the
// log's capacity bounds it and the log's drop count is its drop count.
TEST(DeviceTraceTest, KernelTraceIsBoundedByCommandLog) {
  Device device(SmallParams());
  device.critpath().set_enabled(true);
  device.critpath().set_capacity(2);
  std::vector<double> kernel_cycles;
  for (int i = 0; i < 5; ++i) {
    kernel_cycles.push_back(device.LaunchKernel(1, [i](WarpCtx& w,
                                                       std::size_t) {
      w.ChargeCompute(10.0 * (i + 1));
    }));
  }
  EXPECT_EQ(device.critpath().commands().size(), 2u);
  EXPECT_EQ(device.critpath().dropped(), 3u);

  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(device.profile().ToJson(device), &doc));
  EXPECT_DOUBLE_EQ(doc.Find("kernel_trace_dropped")->number, 3.0);
  const minijson::Value* trace = doc.Find("kernel_trace");
  ASSERT_EQ(trace->array.size(), 2u);
  for (std::size_t i = 0; i < trace->array.size(); ++i) {
    EXPECT_EQ(trace->array[i].Find("total_cycles")->number,
              kernel_cycles[i]);
    EXPECT_EQ(trace->array[i].Find("tasks")->number, 1.0);
  }

  device.ResetClock();
  EXPECT_EQ(device.critpath().dropped(), 0u);
}

TEST(DeviceTraceTest, KernelSlotAndUmEventsLandOnTracks) {
  SimParams params = SmallParams();
  params.num_warp_slots = 2;
  Device device(params);
  device.trace().set_enabled(true);
  auto region = device.unified().Register(1 << 18);
  device.LaunchKernel(
      3,
      [&](WarpCtx& w, std::size_t t) {
        w.ChargeCompute(1000);
        w.UnifiedRead(region, t * params.um_page_bytes, 64);
      },
      "traced-kernel");

  int kernels = 0, slots = 0, faults = 0;
  for (const TraceRecorder::Event& ev : device.trace().events()) {
    switch (ev.kind) {
      case Kind::kKernel:
        ++kernels;
        EXPECT_EQ(ev.name, "traced-kernel");
        EXPECT_LT(ev.begin_cycles, ev.end_cycles);
        break;
      case Kind::kWarpSlot:
        ++slots;
        EXPECT_GE(ev.track, 0);
        EXPECT_LT(ev.track, 2);
        break;
      case Kind::kUmFault:
        ++faults;
        EXPECT_EQ(ev.region, region);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(kernels, 1);
  EXPECT_EQ(slots, 2);  // 3 tasks over 2 slots: both slots busy
  EXPECT_EQ(faults, 3);
  EXPECT_EQ(static_cast<uint64_t>(faults), device.stats().um_page_faults);
}

TEST(DeviceTraceTest, EvictionEventsCarryVictimPage) {
  SimParams params = SmallParams();  // 16-page buffer
  Device device(params);
  device.trace().set_enabled(true);
  auto region = device.unified().Register(1 << 20);
  device.LaunchKernel(1, [&](WarpCtx& w, std::size_t) {
    for (int p = 0; p < 17; ++p) {
      w.UnifiedRead(region, p * params.um_page_bytes, 8);
    }
  });
  bool saw_eviction = false;
  for (const TraceRecorder::Event& ev : device.trace().events()) {
    if (ev.kind == Kind::kUmEviction) {
      saw_eviction = true;
      EXPECT_EQ(ev.region, region);
      EXPECT_EQ(ev.page, 0u);  // LRU victim is the first page touched
    }
  }
  EXPECT_TRUE(saw_eviction);
}

// The acceptance property: a quickstart-style workload (triangle counting
// through the engine) exports a parseable Chrome trace where every track
// is balanced and every kernel span is covered by an engine phase span.
TEST(EngineTraceTest, QuickstartTimelinePhasesCoverKernels) {
  Rng rng(42);
  graph::Graph g = graph::Rmat(10, 6000, &rng);
  gpusim::SimParams params;
  params.device_memory_bytes = 16ull << 20;
  Device device(params);
  device.trace().set_enabled(true);
  device.trace().set_capacity(1u << 20);

  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto result = core::CompiledEngine(&engine).Run(
      core::PatternCompiler(&g).CompileKClique(3, false).value());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(device.trace().dropped_events(), 0u)
      << "raise the capacity: this test requires a complete trace";

  std::string json = device.trace().ToChromeTraceJson(device.params());
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(json, &doc));
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(doc, &spans));

  std::vector<JsonSpan> kernels, phases;
  for (const auto& [track, list] : spans) {
    for (const JsonSpan& s : list) {
      if (s.cat == "kernel") kernels.push_back(s);
      if (s.cat == "phase") phases.push_back(s);
    }
  }
  ASSERT_FALSE(kernels.empty());
  ASSERT_FALSE(phases.empty());
  for (const JsonSpan& k : kernels) {
    bool covered = false;
    for (const JsonSpan& p : phases) {
      if (p.begin <= k.begin && k.end <= p.end) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "kernel '" << k.name << "' [" << k.begin << ", "
                         << k.end << "] outside every phase span";
  }

  // Page-event instants agree with the hardware counters.
  int fault_events = 0;
  for (const TraceRecorder::Event& ev : device.trace().events()) {
    if (ev.kind == Kind::kUmFault) ++fault_events;
  }
  EXPECT_EQ(static_cast<uint64_t>(fault_events),
            device.stats().um_page_faults);
}

}  // namespace
}  // namespace gpm::gpusim
