// Tests for the timeline: spans drawn from hand-built and recorded command
// logs, the instant buffer's bounds and drop accounting, Chrome
// trace-event export well-formedness (balanced B/E pairs per track,
// monotonic timestamps), and the acceptance property that on a
// quickstart-style workload every kernel span is covered by an engine
// phase span.
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
#include "gpusim/critpath.h"
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

// A hand-built command record: the log is plain data, so the timeline's
// span rules can be checked on exact values.
prof::CommandRecord Command(prof::CommandRecord::Kind kind, std::string name,
                            double start, double end, StreamId stream = 0) {
  prof::CommandRecord rec;
  rec.kind = kind;
  rec.name = std::move(name);
  rec.start = start;
  rec.end = end;
  rec.stream = stream;
  return rec;
}

prof::CommandRecord Kernel(std::string name, double start, double end,
                           double launch, std::vector<double> slots) {
  prof::CommandRecord rec = Command(prof::CommandRecord::Kind::kKernel,
                                    std::move(name), start, end);
  rec.launch_cycles = launch;
  rec.slot_busy_cycles = std::move(slots);
  return rec;
}

prof::CommandRecord PhaseBegin(std::string name, double at) {
  return Command(prof::CommandRecord::Kind::kPhaseBegin, std::move(name), at,
                 at);
}

prof::CommandRecord PhaseEnd(std::string name, double at) {
  return Command(prof::CommandRecord::Kind::kPhaseEnd, std::move(name), at,
                 at);
}

// Parses `rec`'s export and validates every track.
void RenderTracks(const TraceRecorder& rec, const SimParams& params,
                  minijson::Value* doc, SpanMap* spans) {
  ASSERT_TRUE(minijson::Parse(rec.ToChromeTraceJson(params), doc));
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(*doc, spans));
}

// The spans of category `cat`, track by track.
std::vector<JsonSpan> SpansOf(const SpanMap& spans, const std::string& cat) {
  std::vector<JsonSpan> out;
  for (const auto& [track, list] : spans) {
    for (const JsonSpan& s : list) {
      if (s.cat == cat) out.push_back(s);
    }
  }
  return out;
}

double Us(double cycles) { return SimParams().CyclesToSeconds(cycles) * 1e6; }

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder rec;
  rec.RecordUmEvent(Kind::kUmFault, 5, 1, 0);
  rec.RecordAdaptivity(5, 1, 3);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped_events(), 0u);  // disabled != dropped
}

// The capacity bounds the stored instants and nothing else: every span
// of the log is drawn, and the export's drop count adds the log's own.
TEST(TraceRecorderTest, CapacityBoundsInstantsOnly) {
  prof::CommandLog log;
  log.set_enabled(true);
  log.set_capacity(6);
  TraceRecorder rec(4);
  rec.BindLog(&log);
  rec.set_enabled(true);
  for (int i = 0; i < 7; ++i) {
    log.Append(Kernel("k", i * 10.0, i * 10.0 + 5.0, 1.0, {4.0}));
    rec.RecordUmEvent(Kind::kUmFault, i * 10.0, 1, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped_events(), 3u);
  EXPECT_EQ(log.dropped(), 1u);
  // The earliest instants win, so the stored ones are a prefix of the run.
  EXPECT_EQ(rec.events().front().ts, 0.0);
  EXPECT_EQ(rec.events().back().page, 3u);

  minijson::Value doc;
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(RenderTracks(rec, SimParams(), &doc, &spans));
  const minijson::Value* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("schema")->str, "gamma.trace.v1");
  EXPECT_DOUBLE_EQ(other->Find("dropped_events")->number, 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(other->Find("capacity")->number, 4.0);
  EXPECT_EQ(SpansOf(spans, "kernel").size(), 6u);
  EXPECT_EQ(SpansOf(spans, "warp-slot").size(), 6u);

  rec.Clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped_events(), 0u);
}

// Adjacent, nested and zero-length spans, and instants at coinciding
// timestamps: the awkward cases for B/E ordering at equal ts.
TEST(TraceRecorderTest, ChromeJsonBalancedWithAwkwardSpans) {
  prof::CommandLog log;
  TraceRecorder rec;
  rec.BindLog(&log);
  rec.set_enabled(true);
  ASSERT_TRUE(log.enabled());
  log.Append(PhaseBegin("outer", 0));
  log.Append(PhaseBegin("mid", 2));
  log.Append(Kernel("inner", 2, 6, 1, {3, 0, 1.5}));
  log.Append(PhaseEnd("mid", 6));
  log.Append(Kernel("adjacent", 6, 10, 1, {3}));
  log.Append(Kernel("zero", 10, 10, 0, {0}));
  log.Append(Command(prof::CommandRecord::Kind::kCopy, "copy-h2d", 10, 10));
  log.Append(Command(prof::CommandRecord::Kind::kCopy, "copy-d2h", 4, 9, 2));
  log.Append(PhaseEnd("outer", 10));
  log.Append(PhaseBegin("empty", 10));
  log.Append(PhaseEnd("empty", 10));
  rec.RecordUmEvent(Kind::kUmFault, 6, 1, 42);
  rec.RecordUmEvent(Kind::kUmHit, 6, 1, 42);

  minijson::Value doc;
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(RenderTracks(rec, SimParams(), &doc, &spans));
  EXPECT_EQ(SpansOf(spans, "kernel").size(), 3u);
  EXPECT_EQ(SpansOf(spans, "copy").size(), 2u);
  EXPECT_EQ(SpansOf(spans, "phase").size(), 3u);
  // The second stream's copy lands on its own track.
  ASSERT_EQ(spans.count({1, 3 + 2}), 1u);
  EXPECT_EQ(spans.at({1, 3 + 2}).front().name, "copy-d2h");
  // Phases close innermost first.
  const std::vector<JsonSpan>& phases = spans.at({1, 2});
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].name, "mid");
  EXPECT_EQ(phases[0].begin, Us(2));
  EXPECT_EQ(phases[0].end, Us(6));
  EXPECT_EQ(phases[1].name, "outer");
  EXPECT_EQ(phases[2].name, "empty");
  // A busy slot spans [start + launch, start + launch + busy]; an idle
  // one draws nothing.
  const std::vector<JsonSpan> slots = SpansOf(spans, "warp-slot");
  ASSERT_EQ(slots.size(), 3u);
  ASSERT_EQ(spans.count({2, 0}), 1u);
  ASSERT_EQ(spans.count({2, 1}), 0u);
  ASSERT_EQ(spans.count({2, 2}), 1u);
  const std::vector<JsonSpan>& slot0 = spans.at({2, 0});
  ASSERT_EQ(slot0.size(), 2u);
  EXPECT_EQ(slot0[0].name, "inner");
  EXPECT_EQ(slot0[0].begin, Us(3));
  EXPECT_EQ(slot0[0].end, Us(6));
  EXPECT_EQ(slot0[1].name, "adjacent");
  EXPECT_EQ(slot0[1].begin, Us(7));
  EXPECT_EQ(slot0[1].end, Us(10));
  EXPECT_EQ(spans.at({2, 2}).front().end, Us(4.5));
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

  minijson::Value doc;
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(
      RenderTracks(device.trace(), params, &doc, &spans));
  const std::vector<JsonSpan> kernels = SpansOf(spans, "kernel");
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].name, "traced-kernel");
  EXPECT_LT(kernels[0].begin, kernels[0].end);
  // 3 tasks over 2 slots: both slots busy, one span each.
  EXPECT_EQ(spans.at({2, 0}).size(), 1u);
  EXPECT_EQ(spans.at({2, 1}).size(), 1u);
  EXPECT_EQ(SpansOf(spans, "warp-slot").size(), 2u);

  int faults = 0;
  for (const TraceRecorder::Event& ev : device.trace().events()) {
    if (ev.kind != Kind::kUmFault) continue;
    ++faults;
    EXPECT_EQ(ev.region, region);
  }
  EXPECT_EQ(faults, 3);
  EXPECT_EQ(static_cast<uint64_t>(faults), device.stats().um_page_faults);
}

// The timeline alone, with no other observer asking for the command log,
// still draws every span: enabling it (by call or by SimParams) enables
// the log its spans come from.
TEST(DeviceTraceTest, SetEnabledAloneDrawsSpans) {
  for (bool by_params : {false, true}) {
    SimParams params = SmallParams();
    params.num_warp_slots = 4;
    params.record_timeline = by_params;
    Device device(params);
    if (!by_params) device.trace().set_enabled(true);
    EXPECT_TRUE(device.critpath().enabled()) << by_params;
    {
      PhaseScope phase(&device, "alpha");
      device.LaunchKernel(4, [](WarpCtx& w, std::size_t) {
        w.ChargeCompute(100);
      });
      device.CopyHostToDevice(4096);
    }
    minijson::Value doc;
    SpanMap spans;
    ASSERT_NO_FATAL_FAILURE(
        RenderTracks(device.trace(), params, &doc, &spans));
    EXPECT_EQ(SpansOf(spans, "kernel").size(), 1u) << by_params;
    EXPECT_EQ(SpansOf(spans, "copy").size(), 1u) << by_params;
    EXPECT_EQ(SpansOf(spans, "warp-slot").size(), 4u) << by_params;
    const std::vector<JsonSpan> phases = SpansOf(spans, "phase");
    ASSERT_EQ(phases.size(), 1u) << by_params;
    EXPECT_EQ(phases[0].name, "alpha");
  }
}

// A full instant buffer leaves the spans alone: they are bounded by the
// command log, not by the instants that used to crowd them out.
TEST(DeviceTraceTest, OverflowingTraceKeepsEverySpan) {
  SimParams params = SmallParams();  // 16-page buffer
  params.num_warp_slots = 2;
  Device device(params);
  device.trace().set_enabled(true);
  device.trace().set_capacity(8);
  auto region = device.unified().Register(1 << 20);
  constexpr int kKernels = 6;
  for (int k = 0; k < kKernels; ++k) {
    PhaseScope phase(&device, "scan");
    device.LaunchKernel(4, [&](WarpCtx& w, std::size_t t) {
      for (int p = 0; p < 8; ++p) {
        w.UnifiedRead(region, (t * 8 + p) * params.um_page_bytes, 8);
      }
    });
    device.CopyDeviceToHost(512);
  }
  EXPECT_EQ(device.trace().events().size(), 8u);
  EXPECT_GT(device.trace().dropped_events(), 0u);
  EXPECT_EQ(device.critpath().dropped(), 0u);

  minijson::Value doc;
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(
      RenderTracks(device.trace(), params, &doc, &spans));
  EXPECT_EQ(SpansOf(spans, "kernel").size(),
            static_cast<std::size_t>(kKernels));
  EXPECT_EQ(SpansOf(spans, "copy").size(), static_cast<std::size_t>(kKernels));
  EXPECT_EQ(SpansOf(spans, "phase").size(),
            static_cast<std::size_t>(kKernels));
  EXPECT_EQ(SpansOf(spans, "warp-slot").size(),
            static_cast<std::size_t>(2 * kKernels));
  EXPECT_DOUBLE_EQ(doc.Find("otherData")->Find("dropped_events")->number,
                   static_cast<double>(device.trace().dropped_events()));
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
// The capacity drops most page instants, which must cost no span. The
// plan profiler reads the log without writing into it, so every phase
// marker is a PhaseScope's and every begin marker is drawn.
TEST(EngineTraceTest, QuickstartTimelinePhasesCoverKernels) {
  Rng rng(42);
  graph::Graph g = graph::Rmat(10, 6000, &rng);
  gpusim::SimParams params;
  params.device_memory_bytes = 16ull << 20;
  Device device(params);
  device.trace().set_enabled(true);
  device.trace().set_capacity(256);

  core::GammaOptions options;
  options.plan_profile = true;
  core::GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto result = core::CompiledEngine(&engine).Run(
      core::PatternCompiler(&g).CompileKClique(3, false).value());
  ASSERT_TRUE(result.ok());
  ASSERT_GT(device.trace().dropped_events(), 0u)
      << "lower the capacity: this test needs a trace that drops instants";
  ASSERT_EQ(device.critpath().dropped(), 0u);

  std::string json = device.trace().ToChromeTraceJson(device.params());
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(json, &doc));
  SpanMap spans;
  ASSERT_NO_FATAL_FAILURE(ValidateTracks(doc, &spans));

  std::vector<JsonSpan> kernels = SpansOf(spans, "kernel");
  std::vector<JsonSpan> phases = SpansOf(spans, "phase");
  ASSERT_FALSE(kernels.empty());
  ASSERT_FALSE(phases.empty());
  ASSERT_TRUE(engine.plan_profiler()->has_run());
  std::size_t kernel_records = 0;
  std::size_t begin_markers = 0;
  for (const prof::CommandRecord& rec : device.critpath().commands()) {
    if (rec.kind == prof::CommandRecord::Kind::kKernel) ++kernel_records;
    if (rec.kind == prof::CommandRecord::Kind::kPhaseBegin ||
        rec.kind == prof::CommandRecord::Kind::kPhaseEnd) {
      EXPECT_NE(rec.name.rfind("planprof/", 0), 0u) << rec.name;
    }
    if (rec.kind == prof::CommandRecord::Kind::kPhaseBegin) ++begin_markers;
  }
  EXPECT_EQ(kernels.size(), kernel_records);
  EXPECT_EQ(phases.size(), begin_markers);
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

  // The stored page instants are a prefix of the run's.
  EXPECT_EQ(device.trace().events().size(), 256u);
  uint64_t fault_events = 0;
  for (const TraceRecorder::Event& ev : device.trace().events()) {
    if (ev.kind == Kind::kUmFault) ++fault_events;
  }
  EXPECT_LE(fault_events, device.stats().um_page_faults);
}

}  // namespace
}  // namespace gpm::gpusim
