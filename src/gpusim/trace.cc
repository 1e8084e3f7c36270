#include "gpusim/trace.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace gpm::gpusim {

namespace {

// Track layout of the exported trace. Device-level tracks share one
// "process"; warp slots get their own so Perfetto collapses them together.
// Kernel/copy spans from the default stream keep the classic "kernels"
// thread; each additional stream renders as its own thread starting at
// kStreamTidBase + stream, so overlapped streams appear as parallel lanes.
constexpr int kDevicePid = 1;
constexpr int kKernelTid = 1;
constexpr int kPhaseTid = 2;
constexpr int kUmTid = 3;
constexpr int kStreamTidBase = 3;  // stream s >= 1 -> tid kStreamTidBase + s
constexpr int kWarpSlotPid = 2;
// Adaptivity decisions get their own process: stream tids are unbounded
// within kDevicePid, so a fixed device-side tid could collide with one.
constexpr int kAdaptivityPid = 3;
constexpr int kAdaptivityTid = 1;

int StreamTid(int stream) {
  return stream == 0 ? kKernelTid : kStreamTidBase + stream;
}

bool IsSpan(TraceRecorder::Kind kind) {
  return kind == TraceRecorder::Kind::kKernel ||
         kind == TraceRecorder::Kind::kCopy ||
         kind == TraceRecorder::Kind::kPhase ||
         kind == TraceRecorder::Kind::kWarpSlot;
}

const char* Category(TraceRecorder::Kind kind) {
  switch (kind) {
    case TraceRecorder::Kind::kKernel:
      return "kernel";
    case TraceRecorder::Kind::kCopy:
      return "copy";
    case TraceRecorder::Kind::kPhase:
      return "phase";
    case TraceRecorder::Kind::kWarpSlot:
      return "warp-slot";
    case TraceRecorder::Kind::kAdaptivity:
      return "adaptivity";
    default:
      return "um";
  }
}

// One emitted Chrome event ("B", "E", or "i") awaiting per-track ordering.
struct EmitEvent {
  double ts;
  // Order among equal timestamps: a closing "E" precedes the "B" that
  // starts the next span (adjacent kernels share a boundary), except that
  // a zero-length span keeps its own "B" first so pairs stay balanced.
  int rank;
  // Tie-break among same-ts "B"s (enclosing span first) and "E"s
  // (innermost span first).
  double tie;
  char ph;
  const TraceRecorder::Event* event;
};

bool EmitOrder(const EmitEvent& a, const EmitEvent& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.tie < b.tie;
}

}  // namespace

const char* TraceKindName(TraceRecorder::Kind kind) {
  switch (kind) {
    case TraceRecorder::Kind::kKernel:
      return "kernel";
    case TraceRecorder::Kind::kCopy:
      return "copy";
    case TraceRecorder::Kind::kPhase:
      return "phase";
    case TraceRecorder::Kind::kWarpSlot:
      return "warp-slot";
    case TraceRecorder::Kind::kUmFault:
      return "um-fault";
    case TraceRecorder::Kind::kUmHit:
      return "um-hit";
    case TraceRecorder::Kind::kUmEviction:
      return "um-evict";
    case TraceRecorder::Kind::kUmPrefetch:
      return "um-prefetch";
    case TraceRecorder::Kind::kAdaptivity:
      return "adaptivity-plan";
  }
  return "?";
}

bool TraceRecorder::Admit() {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  return true;
}

void TraceRecorder::RecordSpan(Kind kind, std::string_view name,
                               double begin_cycles, double end_cycles,
                               int track) {
  if (!enabled_ || !Admit()) return;
  events_.push_back(Event{kind, std::string(name), begin_cycles,
                          end_cycles, track, 0, 0});
}

void TraceRecorder::RecordUmEvent(Kind kind, double ts_cycles,
                                  uint32_t region, uint64_t page) {
  if (!enabled_ || !Admit()) return;
  events_.push_back(Event{kind, std::string(), ts_cycles, ts_cycles, 0,
                          region, page});
}

std::string TraceRecorder::ToChromeTraceJson(const SimParams& params) const {
  auto to_us = [&params](double cycles) {
    return params.CyclesToSeconds(cycles) * 1e6;
  };

  // Bucket events per (pid, tid) track, splitting spans into B/E pairs.
  std::map<std::pair<int, int>, std::vector<EmitEvent>> tracks;
  std::set<int> slot_tids;
  std::set<int> stream_tids;  // non-default streams needing a thread name
  bool has_adaptivity = false;
  for (const Event& ev : events_) {
    std::pair<int, int> track;
    switch (ev.kind) {
      case Kind::kKernel:
      case Kind::kCopy:
        track = {kDevicePid, StreamTid(ev.track)};
        if (ev.track != 0) stream_tids.insert(ev.track);
        break;
      case Kind::kPhase:
        track = {kDevicePid, kPhaseTid};
        break;
      case Kind::kWarpSlot:
        track = {kWarpSlotPid, ev.track};
        slot_tids.insert(ev.track);
        break;
      case Kind::kAdaptivity:
        track = {kAdaptivityPid, kAdaptivityTid};
        has_adaptivity = true;
        break;
      default:
        track = {kDevicePid, kUmTid};
        break;
    }
    std::vector<EmitEvent>& out = tracks[track];
    if (IsSpan(ev.kind)) {
      const bool zero_length = ev.end_cycles <= ev.begin_cycles;
      out.push_back({ev.begin_cycles, 2, -ev.end_cycles, 'B', &ev});
      out.push_back(
          {ev.end_cycles, zero_length ? 3 : 0, -ev.begin_cycles, 'E', &ev});
    } else {
      out.push_back({ev.begin_cycles, 1, 0.0, 'i', &ev});
    }
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("otherData").BeginObject();
  w.Key("schema").Value("gamma.trace.v1");
  w.Key("clock_ghz").Value(params.clock_ghz);
  w.Key("capacity").Value(capacity_);
  w.Key("dropped_events").Value(dropped_);
  w.EndObject();

  w.Key("traceEvents").BeginArray();

  auto meta = [&w](const char* what, int pid, int tid,
                   const std::string& name) {
    w.BeginObject();
    w.Key("ph").Value("M");
    w.Key("name").Value(what);
    w.Key("pid").Value(pid);
    w.Key("tid").Value(tid);
    w.Key("args").BeginObject().Key("name").Value(name).EndObject();
    w.EndObject();
  };
  meta("process_name", kDevicePid, 0, "gamma-sim");
  meta("thread_name", kDevicePid, kKernelTid, "kernels");
  meta("thread_name", kDevicePid, kPhaseTid, "phases");
  meta("thread_name", kDevicePid, kUmTid, "um-pages");
  for (int stream : stream_tids) {
    meta("thread_name", kDevicePid, StreamTid(stream),
         "stream " + std::to_string(stream));
  }
  if (!slot_tids.empty()) {
    meta("process_name", kWarpSlotPid, 0, "warp-slots");
    for (int slot : slot_tids) {
      meta("thread_name", kWarpSlotPid, slot,
           "slot " + std::to_string(slot));
    }
  }
  if (has_adaptivity) {
    meta("process_name", kAdaptivityPid, 0, "adaptivity");
    meta("thread_name", kAdaptivityPid, kAdaptivityTid, "decisions");
  }

  for (auto& [track, emits] : tracks) {
    std::stable_sort(emits.begin(), emits.end(), EmitOrder);
    for (const EmitEvent& e : emits) {
      const Event& ev = *e.event;
      w.BeginObject();
      w.Key("ph").Value(std::string_view(&e.ph, 1));
      w.Key("ts").Value(to_us(e.ts));
      w.Key("pid").Value(track.first);
      w.Key("tid").Value(track.second);
      if (e.ph != 'E') {
        w.Key("name").Value(e.ph == 'i' ? TraceKindName(ev.kind)
                                        : std::string_view(ev.name));
        w.Key("cat").Value(Category(ev.kind));
      }
      if (e.ph == 'i') {
        w.Key("s").Value("t");
        w.Key("args").BeginObject();
        if (ev.kind == Kind::kAdaptivity) {
          // The region/page slots carry the decision payload instead.
          w.Key("extension").Value(ev.region);
          w.Key("unified_pages").Value(ev.page);
        } else {
          w.Key("region").Value(ev.region);
          w.Key("page").Value(ev.page);
        }
        w.EndObject();
      }
      w.EndObject();
    }
  }

  w.EndArray();
  w.EndObject();
  os << '\n';
  return std::move(os).str();
}

}  // namespace gpm::gpusim
