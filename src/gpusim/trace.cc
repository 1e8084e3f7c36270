#include "gpusim/trace.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
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

const char* Category(TraceRecorder::Kind kind) {
  return kind == TraceRecorder::Kind::kAdaptivity ? "adaptivity" : "um";
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
  const char* cat;                       // "B" and "i"
  std::string_view name;                 // "B" and "i"
  const TraceRecorder::Event* instant;   // "i" only
};

bool EmitOrder(const EmitEvent& a, const EmitEvent& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.tie < b.tie;
}

}  // namespace

const char* TraceKindName(TraceRecorder::Kind kind) {
  switch (kind) {
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

void TraceRecorder::RecordUmEvent(Kind kind, double ts_cycles,
                                  uint32_t region, uint64_t page) {
  if (!enabled_) return;
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{kind, ts_cycles, region, page});
}

std::string TraceRecorder::ToChromeTraceJson(const SimParams& params) const {
  auto to_us = [&params](double cycles) {
    return params.CyclesToSeconds(cycles) * 1e6;
  };

  // Bucket events per (pid, tid) track, splitting spans into B/E pairs.
  std::map<std::pair<int, int>, std::vector<EmitEvent>> tracks;
  std::set<int> slot_tids;
  std::set<int> stream_tids;  // non-default streams needing a thread name
  auto span = [&tracks](std::pair<int, int> track, const char* cat,
                        std::string_view name, double begin, double end) {
    std::vector<EmitEvent>& out = tracks[track];
    const bool zero_length = end <= begin;
    out.push_back({begin, 2, -end, 'B', cat, name, nullptr});
    out.push_back({end, zero_length ? 3 : 0, -begin, 'E', cat, name, nullptr});
  };
  auto stream_track = [&stream_tids](StreamId stream) {
    if (stream != 0) stream_tids.insert(stream);
    return std::pair<int, int>{kDevicePid, StreamTid(stream)};
  };

  // Spans, in log order within each track. Phase markers pair up on a
  // stack, as the device's phase stack does. A phase whose end marker
  // fell past the log's capacity is not drawn, nor one whose begin marker
  // predates the log's enabling.
  std::vector<const prof::CommandRecord*> open_phases;
  const std::vector<prof::CommandRecord> no_commands;
  for (const prof::CommandRecord& rec :
       log_ != nullptr ? log_->commands() : no_commands) {
    switch (rec.kind) {
      case prof::CommandRecord::Kind::kKernel: {
        span(stream_track(rec.stream), "kernel", rec.name, rec.start,
             rec.end);
        // A busy slot runs without a gap from the end of the launch
        // overhead to its last task's finish, inside the kernel span.
        const double work_start = rec.start + rec.launch_cycles;
        for (std::size_t s = 0; s < rec.slot_busy_cycles.size(); ++s) {
          if (rec.slot_busy_cycles[s] <= 0) continue;
          const int slot = static_cast<int>(s);
          slot_tids.insert(slot);
          span({kWarpSlotPid, slot}, "warp-slot", rec.name, work_start,
               work_start + rec.slot_busy_cycles[s]);
        }
        break;
      }
      case prof::CommandRecord::Kind::kCopy:
        span(stream_track(rec.stream), "copy", rec.name, rec.start, rec.end);
        break;
      case prof::CommandRecord::Kind::kPhaseBegin:
        open_phases.push_back(&rec);
        break;
      case prof::CommandRecord::Kind::kPhaseEnd:
        if (open_phases.empty()) break;
        span({kDevicePid, kPhaseTid}, "phase", open_phases.back()->name,
             open_phases.back()->start, rec.end);
        open_phases.pop_back();
        break;
      default:
        break;
    }
  }

  bool has_adaptivity = false;
  for (const Event& ev : events_) {
    std::pair<int, int> track{kDevicePid, kUmTid};
    if (ev.kind == Kind::kAdaptivity) {
      track = {kAdaptivityPid, kAdaptivityTid};
      has_adaptivity = true;
    }
    tracks[track].push_back({ev.ts, 1, 0.0, 'i', Category(ev.kind),
                             TraceKindName(ev.kind), &ev});
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("otherData").BeginObject();
  w.Key("schema").Value("gamma.trace.v1");
  w.Key("clock_ghz").Value(params.clock_ghz);
  w.Key("capacity").Value(capacity_);
  w.Key("dropped_events")
      .Value(dropped_ + (log_ != nullptr ? log_->dropped() : 0));
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
      w.BeginObject();
      w.Key("ph").Value(std::string_view(&e.ph, 1));
      w.Key("ts").Value(to_us(e.ts));
      w.Key("pid").Value(track.first);
      w.Key("tid").Value(track.second);
      if (e.ph != 'E') {
        w.Key("name").Value(e.name);
        w.Key("cat").Value(e.cat);
      }
      if (e.ph == 'i') {
        const Event& ev = *e.instant;
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
