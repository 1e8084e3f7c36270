#include "gpusim/critpath.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "gpusim/device.h"

namespace gpm::prof {
namespace {

using gpusim::kNumResourceClasses;
using gpusim::ResourceClass;
using gpusim::ResourceClassName;
using gpusim::ResourceCycles;
using gpusim::StreamId;

constexpr std::size_t Idx(ResourceClass c) {
  return static_cast<std::size_t>(c);
}

using Factors = std::array<double, kNumResourceClasses>;

Factors UnitFactors() {
  Factors f;
  f.fill(1.0);
  return f;
}

/// Left-to-right fold in class order; the canonical summation order every
/// exact-sum check in this file (and the Python validator) uses.
double FoldSum(const ResourceCycles& a) {
  double s = 0.0;
  for (int c = 0; c < kNumResourceClasses; ++c) s += a[static_cast<std::size_t>(c)];
  return s;
}

/// Nudges the sync-idle residual until the fold-sum of `a` equals `total`
/// bit-exactly. One compensation step usually lands it; the loop bounds the
/// rare cases where the first correction itself rounds.
void CloseResidual(ResourceCycles* a, double total) {
  for (int iter = 0; iter < 16; ++iter) {
    const double sum = FoldSum(*a);
    if (sum == total) return;
    (*a)[Idx(ResourceClass::kSyncIdle)] += total - sum;
  }
}

const char* KindName(CommandRecord::Kind kind) {
  switch (kind) {
    case CommandRecord::Kind::kKernel:
      return "kernel";
    case CommandRecord::Kind::kCopy:
      return "copy";
    case CommandRecord::Kind::kHostWork:
      return "host-work";
    case CommandRecord::Kind::kEventWait:
      return "wait-event";
    case CommandRecord::Kind::kSynchronize:
      return "synchronize";
    case CommandRecord::Kind::kFastForward:
      return "fast-forward";
    case CommandRecord::Kind::kCreateStream:
      return "create-stream";
    case CommandRecord::Kind::kPhaseBegin:
      return "phase-begin";
    case CommandRecord::Kind::kPhaseEnd:
      return "phase-end";
  }
  return "?";
}

bool IsJoinKind(CommandRecord::Kind kind) {
  return kind == CommandRecord::Kind::kEventWait ||
         kind == CommandRecord::Kind::kSynchronize ||
         kind == CommandRecord::Kind::kFastForward ||
         kind == CommandRecord::Kind::kCreateStream;
}

bool IsMarker(CommandRecord::Kind kind) {
  return kind == CommandRecord::Kind::kPhaseBegin ||
         kind == CommandRecord::Kind::kPhaseEnd;
}

/// One replayed timeline node. Internal times mirror the simulator's
/// decomposition so the attribution walk and the slack pass can reason
/// about which sub-path (compute, link, dependency) carried the end time.
struct Node {
  bool real = false;  // false for phase markers (no clock edge)
  double start = 0;
  double end = 0;
  // Kernel decomposition.
  double work_start = 0;
  double compute_end = 0;
  // Link window (kernels with traffic, all copies).
  bool has_link = false;
  double ready = 0;
  double link_free_before = 0;  // link head before this window's acquire
  double link_start = 0;
  double link_end = 0;
  // Dependency that determined `end`.
  int32_t binding_pred = -1;
  BindingEdge binding_edge = BindingEdge::kNone;
  // True when the link window started behind the previous window
  // (free > ready): the chain continues through link_pred.
  bool link_from_pred = false;
  // First-order slack edges: (pred node, headroom before a shift of the
  // pred's end moves this node's end).
  std::vector<std::pair<int32_t, double>> in_edges;
};

struct Replay {
  std::vector<Node> nodes;  // aligned with the command array
  double total = 0;         // join of all replayed stream clocks
  int streams = 0;
};

/// Deterministically replays the command log with per-class cost factors.
///
/// The replay mirrors the simulator's own arithmetic on the recorded
/// charge values — the same `clock + charge`, `max(ready, free) + transfer`
/// and `work_start + makespan` expressions in the same order — so with all
/// factors at 1.0 every node end (and the join) is bit-identical to the
/// recorded run. Kernel makespans rescale via the delta trick
/// `makespan + (fold(busy*f) - fold(busy))`, which is exactly zero at
/// factor 1 because `x * 1.0 == x` bit-exactly.
///
/// `use_recorded_bases` seeds each stream's clock from its first record's
/// recorded start (exact even for logs enabled mid-run); the what-if
/// replays derive every base instead so projections are not anchored to
/// recorded absolute times.
Replay ReplayTimeline(const std::vector<CommandRecord>& cmds,
                      const Factors& f, bool use_recorded_bases,
                      bool collect_edges) {
  Replay r;
  r.nodes.resize(cmds.size());
  std::vector<double> clock;
  std::vector<char> inited;
  std::vector<int32_t> last_node;
  double link_free = 0.0;
  int32_t last_link_node = -1;

  auto ensure = [&](StreamId s) {
    const auto n = static_cast<std::size_t>(s) + 1;
    if (clock.size() < n) {
      clock.resize(n, 0.0);
      inited.resize(n, 0);
      last_node.resize(n, -1);
    }
  };
  auto touch = [&](StreamId s, double fallback) {
    ensure(s);
    const auto si = static_cast<std::size_t>(s);
    if (!inited[si]) {
      // Recorded mode seeds from the record's own start (exact even for
      // logs enabled mid-run). Derived mode starts the default stream at
      // device construction (clock 0); a non-default stream seen without a
      // create record predates the log, so its recorded start is the only
      // available base.
      clock[si] = (use_recorded_bases || s != gpusim::kDefaultStream)
                      ? fallback
                      : 0.0;
      inited[si] = 1;
    }
  };
  auto joined = [&]() {
    double m = 0.0;
    for (std::size_t s = 0; s < clock.size(); ++s) {
      if (inited[s]) m = std::max(m, clock[s]);
    }
    return m;
  };
  auto argmax_stream = [&]() {
    int32_t best = -1;
    double best_clock = -1.0;
    for (std::size_t s = 0; s < clock.size(); ++s) {
      if (inited[s] && clock[s] > best_clock) {
        best_clock = clock[s];
        best = last_node[s];
      }
    }
    return best;
  };

  const double f_compute = f[Idx(ResourceClass::kCompute)];
  const double f_pcie = f[Idx(ResourceClass::kPcie)];

  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const CommandRecord& rec = cmds[i];
    if (IsMarker(rec.kind)) continue;
    Node& n = r.nodes[i];
    n.real = true;
    const int32_t idx = static_cast<int32_t>(i);
    touch(rec.stream, rec.start);
    const auto si = static_cast<std::size_t>(rec.stream);

    switch (rec.kind) {
      case CommandRecord::Kind::kKernel: {
        n.start = clock[si];
        n.work_start = n.start + rec.launch_cycles * f_compute;
        double busy_raw = 0.0, busy_scaled = 0.0;
        for (int c = 0; c < kNumResourceClasses; ++c) {
          const auto ci = static_cast<std::size_t>(c);
          busy_raw += rec.busy[ci];
          busy_scaled += rec.busy[ci] * f[ci];
        }
        n.compute_end = n.work_start +
                        (rec.makespan + (busy_scaled - busy_raw));
        n.end = n.compute_end;
        if (rec.link_transfer > 0) {
          n.has_link = true;
          n.ready = n.work_start;
          n.link_free_before = link_free;
          n.link_start = std::max(n.ready, link_free);
          n.link_end = n.link_start + rec.link_transfer * f_pcie;
          n.link_from_pred = n.link_free_before > n.ready;
          link_free = n.link_end;
          n.end = std::max(n.end, n.link_end);
        }
        const int32_t stream_pred = last_node[si];
        if (n.has_link && n.end == n.link_end && n.end > n.compute_end) {
          if (n.link_from_pred) {
            n.binding_pred = last_link_node;
            n.binding_edge = n.binding_pred >= 0 ? BindingEdge::kLink
                                                 : BindingEdge::kNone;
          } else {
            n.binding_pred = stream_pred;
            n.binding_edge = stream_pred >= 0 ? BindingEdge::kStream
                                              : BindingEdge::kNone;
          }
        } else {
          n.binding_pred = stream_pred;
          n.binding_edge = stream_pred >= 0 ? BindingEdge::kStream
                                            : BindingEdge::kNone;
        }
        if (collect_edges) {
          if (stream_pred >= 0) {
            double h = n.end - n.compute_end;
            if (n.has_link) {
              const double h_link =
                  std::max(0.0, n.link_free_before - n.ready) +
                  (n.end - n.link_end);
              h = std::min(h, h_link);
            }
            n.in_edges.push_back({stream_pred, h});
          }
          if (n.has_link && last_link_node >= 0) {
            n.in_edges.push_back(
                {last_link_node,
                 std::max(0.0, n.ready - n.link_free_before) +
                     (n.end - n.link_end)});
          }
        }
        if (n.has_link) last_link_node = idx;
        clock[si] = n.end;
        last_node[si] = idx;
        break;
      }
      case CommandRecord::Kind::kCopy: {
        n.start = clock[si];
        n.has_link = true;
        n.ready = n.start + rec.latency;
        n.link_free_before = link_free;
        n.link_start = std::max(n.ready, link_free);
        n.link_end = n.link_start + rec.link_transfer * f_pcie;
        n.link_from_pred = n.link_free_before > n.ready;
        link_free = n.link_end;
        n.end = n.link_end;
        const int32_t stream_pred = last_node[si];
        if (n.link_from_pred && last_link_node >= 0) {
          n.binding_pred = last_link_node;
          n.binding_edge = BindingEdge::kLink;
        } else {
          n.binding_pred = stream_pred;
          n.binding_edge = stream_pred >= 0 ? BindingEdge::kStream
                                            : BindingEdge::kNone;
        }
        if (collect_edges) {
          if (stream_pred >= 0) {
            n.in_edges.push_back(
                {stream_pred, std::max(0.0, n.link_free_before - n.ready)});
          }
          if (last_link_node >= 0) {
            n.in_edges.push_back(
                {last_link_node,
                 std::max(0.0, n.ready - n.link_free_before)});
          }
        }
        last_link_node = idx;
        clock[si] = n.end;
        last_node[si] = idx;
        break;
      }
      case CommandRecord::Kind::kHostWork: {
        n.start = clock[si];
        n.end = n.start +
                rec.charge * f[static_cast<std::size_t>(rec.host_class)];
        const int32_t stream_pred = last_node[si];
        n.binding_pred = stream_pred;
        n.binding_edge =
            stream_pred >= 0 ? BindingEdge::kStream : BindingEdge::kNone;
        if (collect_edges && stream_pred >= 0) {
          n.in_edges.push_back({stream_pred, 0.0});
        }
        clock[si] = n.end;
        last_node[si] = idx;
        break;
      }
      case CommandRecord::Kind::kEventWait: {
        n.start = clock[si];
        const double dep = rec.wait_pred >= 0
                               ? r.nodes[static_cast<std::size_t>(
                                             rec.wait_pred)].end
                               : rec.wait_cycles;
        n.end = std::max(n.start, dep);
        const int32_t stream_pred = last_node[si];
        if (dep > n.start) {
          n.binding_pred = rec.wait_pred;
          n.binding_edge = rec.wait_pred >= 0 ? BindingEdge::kWait
                                              : BindingEdge::kNone;
        } else {
          n.binding_pred = stream_pred;
          n.binding_edge = stream_pred >= 0 ? BindingEdge::kStream
                                            : BindingEdge::kNone;
        }
        if (collect_edges) {
          if (stream_pred >= 0) {
            n.in_edges.push_back({stream_pred, n.end - n.start});
          }
          if (rec.wait_pred >= 0) {
            n.in_edges.push_back({rec.wait_pred, n.end - dep});
          }
        }
        clock[si] = n.end;
        last_node[si] = idx;
        break;
      }
      case CommandRecord::Kind::kSynchronize: {
        const double join = joined();
        n.start = n.end = join;
        n.binding_pred = argmax_stream();
        n.binding_edge =
            n.binding_pred >= 0 ? BindingEdge::kWait : BindingEdge::kNone;
        if (collect_edges) {
          for (std::size_t s = 0; s < clock.size(); ++s) {
            if (inited[s] && last_node[s] >= 0) {
              n.in_edges.push_back({last_node[s], join - clock[s]});
            }
          }
        }
        for (std::size_t s = 0; s < clock.size(); ++s) {
          if (inited[s]) {
            clock[s] = join;
            last_node[s] = idx;
          }
        }
        break;
      }
      case CommandRecord::Kind::kFastForward: {
        n.start = clock[si];
        const double join = joined();
        n.end = std::max(n.start, join);
        n.binding_pred = argmax_stream();
        n.binding_edge =
            n.binding_pred >= 0 ? BindingEdge::kWait : BindingEdge::kNone;
        if (collect_edges) {
          for (std::size_t s = 0; s < clock.size(); ++s) {
            if (inited[s] && last_node[s] >= 0) {
              n.in_edges.push_back({last_node[s], n.end - clock[s]});
            }
          }
        }
        clock[si] = n.end;
        last_node[si] = idx;
        break;
      }
      case CommandRecord::Kind::kCreateStream: {
        // touch() already seeded the clock (recorded base); in derived
        // mode the stream is born at the replayed join point, like
        // StreamSet::CreateStream.
        if (!use_recorded_bases) {
          double join = 0.0;
          for (std::size_t s = 0; s < clock.size(); ++s) {
            if (inited[s] && s != si) join = std::max(join, clock[s]);
          }
          clock[si] = join;
        }
        n.start = n.end = clock[si];
        n.binding_pred = -1;
        n.binding_edge = BindingEdge::kNone;
        if (collect_edges) {
          for (std::size_t s = 0; s < clock.size(); ++s) {
            if (s != si && inited[s] && last_node[s] >= 0) {
              n.in_edges.push_back({last_node[s], n.end - clock[s]});
            }
          }
        }
        last_node[si] = idx;
        break;
      }
      case CommandRecord::Kind::kPhaseBegin:
      case CommandRecord::Kind::kPhaseEnd:
        break;
    }
  }

  r.total = joined();
  for (std::size_t s = 0; s < inited.size(); ++s) {
    if (inited[s]) ++r.streams;
  }
  return r;
}

ResourceClass DominantClass(const CommandRecord& rec) {
  switch (rec.kind) {
    case CommandRecord::Kind::kKernel: {
      std::size_t best = Idx(ResourceClass::kCompute);
      for (std::size_t c = 0; c < static_cast<std::size_t>(kNumResourceClasses);
           ++c) {
        if (rec.busy[c] > rec.busy[best]) best = c;
      }
      return static_cast<ResourceClass>(best);
    }
    case CommandRecord::Kind::kCopy:
      return ResourceClass::kPcie;
    case CommandRecord::Kind::kHostWork:
      return static_cast<ResourceClass>(rec.host_class);
    default:
      return ResourceClass::kSyncIdle;
  }
}

/// Walks the binding chain backwards from `sink`, attributing the wall
/// interval [lo, hi] to resource classes. Dependency gaps and stalls land
/// in sync_idle; the caller closes the residual so the fold-sum equals the
/// window exactly. When `chain` is non-null, visited node indices are
/// collected (descending).
void AttributeWindow(const std::vector<CommandRecord>& cmds,
                     const std::vector<Node>& nodes, int32_t sink, double lo,
                     double hi, ResourceCycles* attr,
                     std::vector<int32_t>* chain) {
  auto idle = [&](double amount) {
    if (amount > 0) (*attr)[Idx(ResourceClass::kSyncIdle)] += amount;
  };
  double cursor = hi;
  int32_t node = sink;
  bool via_link = false;
  while (node >= 0 && cursor > lo) {
    const Node& n = nodes[static_cast<std::size_t>(node)];
    const CommandRecord& rec = cmds[static_cast<std::size_t>(node)];
    if (chain != nullptr) chain->push_back(node);

    if (via_link) {
      // Chain entered at this node's link-window end.
      const double w_lo = std::max(lo, n.link_start);
      const double w_hi = std::min(cursor, n.link_end);
      if (w_hi > w_lo) (*attr)[Idx(ResourceClass::kPcie)] += w_hi - w_lo;
      cursor = std::max(lo, n.link_start);
      if (n.link_from_pred) {
        // The window started behind the previous link window: keep
        // following the link chain through the raw predecessor recorded
        // at submission.
        node = rec.link_pred;
        via_link = true;
      } else {
        // The window started at `ready`, which derives from this node's
        // own start: attribute the pre-link lead-in and continue on the
        // node's stream.
        if (rec.kind == CommandRecord::Kind::kCopy) {
          const double l_lo = std::max(lo, n.start);
          const double l_hi = std::min(cursor, n.ready);
          if (l_hi > l_lo) (*attr)[Idx(ResourceClass::kPcie)] += l_hi - l_lo;
        } else {
          const double l_lo = std::max(lo, n.start);
          const double l_hi = std::min(cursor, n.work_start);
          if (l_hi > l_lo) {
            (*attr)[Idx(ResourceClass::kCompute)] += l_hi - l_lo;
          }
        }
        cursor = std::max(lo, n.start);
        // The stream predecessor is not stored for link entries; end the
        // chain here — the remaining window closes to sync_idle below.
        node = -1;
        via_link = false;
      }
      continue;
    }

    // Chain entered at this node's end: close any gap above it first.
    if (cursor > n.end) {
      idle(cursor - n.end);
      cursor = n.end;
    }
    if (cursor <= lo) break;

    if (IsJoinKind(rec.kind)) {
      if (n.binding_edge == BindingEdge::kWait && n.binding_pred >= 0) {
        // The wall interval belongs to the dependency's activity.
        node = n.binding_pred;
        continue;
      }
      const double w_lo = std::max(lo, n.start);
      idle(cursor - w_lo);
      cursor = w_lo;
      node = n.binding_edge == BindingEdge::kStream ? n.binding_pred : -1;
      continue;
    }

    const double w_lo = std::max(lo, n.start);
    const bool full = n.start >= lo && cursor >= n.end;
    switch (rec.kind) {
      case CommandRecord::Kind::kKernel:
        if (full) {
          (*attr)[Idx(ResourceClass::kCompute)] += rec.launch_cycles;
          for (std::size_t c = 0;
               c < static_cast<std::size_t>(kNumResourceClasses); ++c) {
            (*attr)[c] += rec.busy[c];
          }
          if (n.end > n.compute_end) {
            (*attr)[Idx(ResourceClass::kPcie)] += n.end - n.compute_end;
          }
        } else {
          (*attr)[Idx(DominantClass(rec))] += cursor - w_lo;
        }
        break;
      case CommandRecord::Kind::kCopy:
        if (full) {
          (*attr)[Idx(ResourceClass::kPcie)] += rec.latency;
          (*attr)[Idx(ResourceClass::kPcie)] += n.link_end - n.link_start;
          idle(n.link_start - n.ready);
        } else {
          (*attr)[Idx(ResourceClass::kPcie)] += cursor - w_lo;
        }
        break;
      case CommandRecord::Kind::kHostWork:
        if (full) {
          (*attr)[static_cast<std::size_t>(rec.host_class)] += rec.charge;
        } else {
          (*attr)[static_cast<std::size_t>(rec.host_class)] += cursor - w_lo;
        }
        break;
      default:
        idle(cursor - w_lo);
        break;
    }
    cursor = w_lo;
    if (n.binding_edge == BindingEdge::kLink) {
      cursor = std::max(lo, n.link_start);
      node = n.binding_pred;
      via_link = true;
    } else {
      node = n.binding_edge == BindingEdge::kStream ? n.binding_pred : -1;
      via_link = false;
    }
  }
  if (cursor > lo) idle(cursor - lo);
}

int32_t SinkBefore(const std::vector<Node>& nodes, std::size_t limit) {
  int32_t sink = -1;
  double best = -1.0;
  for (std::size_t i = 0; i < std::min(limit, nodes.size()); ++i) {
    if (nodes[i].real && nodes[i].end >= best) {
      best = nodes[i].end;
      sink = static_cast<int32_t>(i);
    }
  }
  return sink;
}

/// Adds one window's attribution to `*attr`: the binding chain is walked
/// back over the window's wall interval from the latest-ending command
/// before its close. The caller closes the residual.
void AttributeLogWindow(const std::vector<CommandRecord>& cmds,
                        const std::vector<Node>& nodes, const LogWindow& win,
                        ResourceCycles* attr) {
  const int32_t sink = SinkBefore(nodes, win.end);
  if (sink >= 0 && win.end_cycles > win.begin_cycles) {
    AttributeWindow(cmds, nodes, sink, win.begin_cycles, win.end_cycles, attr,
                    nullptr);
  }
}

/// Rejects command `i` when a dependency index points forward, which
/// would make the "DAG" cyclic.
Status CheckEdges(const CommandRecord& rec, std::size_t i) {
  const std::pair<const char*, int32_t> preds[] = {
      {"wait_pred", rec.wait_pred}, {"link_pred", rec.link_pred}};
  for (const auto& [field, pred] : preds) {
    if (pred >= static_cast<int32_t>(i)) {
      return Status::InvalidArgument(
          "critpath: command " + std::to_string(i) + " has " + field + " " +
          std::to_string(pred) +
          " pointing forward — dependency edges must reference earlier "
          "commands (a forward edge would make the DAG cyclic)");
    }
  }
  return Status::Ok();
}

ResourceClass ArgmaxClass(const ResourceCycles& a) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < static_cast<std::size_t>(kNumResourceClasses);
       ++c) {
    if (a[c] > a[best]) best = c;
  }
  return static_cast<ResourceClass>(best);
}

void WriteResourceCycles(JsonWriter& w, const ResourceCycles& a) {
  w.BeginObject();
  for (int c = 0; c < kNumResourceClasses; ++c) {
    w.Key(ResourceClassName(static_cast<ResourceClass>(c)))
        .Value(a[static_cast<std::size_t>(c)]);
  }
  w.EndObject();
}

}  // namespace

Result<CritpathReport> Analyze(const CommandLog& log,
                               const AnalyzeOptions& options) {
  const std::vector<CommandRecord>& cmds = log.commands();

  // -- Validation: the recorded structure must be a DAG with balanced
  // phase markers; reject malformed hand-built logs loudly instead of
  // producing a silently wrong report. The same pass pairs the markers
  // into phase instances and finds each command's innermost open phase.
  std::vector<std::size_t> open_phases;  // begin-marker indices
  std::vector<LogWindow> instances;
  std::vector<int32_t> phase_of(cmds.size(), -1);  // begin-marker index
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const CommandRecord& rec = cmds[i];
    if (Status edges = CheckEdges(rec, i); !edges.ok()) return edges;
    if (rec.kind == CommandRecord::Kind::kPhaseBegin) {
      open_phases.push_back(i);
    } else if (rec.kind == CommandRecord::Kind::kPhaseEnd) {
      if (open_phases.empty()) {
        return Status::InvalidArgument(
            "critpath: phase-end marker \"" + rec.name +
            "\" at command " + std::to_string(i) +
            " has no matching phase-begin (unbalanced markers)");
      }
      const CommandRecord& begin = cmds[open_phases.back()];
      if (begin.name != rec.name) {
        return Status::InvalidArgument(
            "critpath: phase-end marker \"" + rec.name +
            "\" at command " + std::to_string(i) + " closes phase \"" +
            begin.name + "\" (markers must nest)");
      }
      instances.push_back(
          {open_phases.back(), i, begin.start, rec.start, true});
      open_phases.pop_back();
    } else if (!open_phases.empty()) {
      phase_of[i] = static_cast<int32_t>(open_phases.back());
    }
  }
  // An overflowed log is a prefix of the run: the cut may fall inside
  // phases, which then get no entry. Only a complete log must balance.
  if (!open_phases.empty() && log.dropped() == 0) {
    return Status::InvalidArgument(
        "critpath: phase-begin marker \"" + cmds[open_phases.back()].name +
        "\" is never closed (unbalanced markers)");
  }

  CritpathReport report;
  report.dropped_commands = log.dropped();
  report.partial = report.dropped_commands > 0;
  report.commands = cmds.size();

  // -- Exact replay: factor 1.0, recorded stream bases, slack edges on.
  Replay replay = ReplayTimeline(cmds, UnitFactors(),
                                 /*use_recorded_bases=*/true,
                                 /*collect_edges=*/true);
  report.critical_path_cycles = replay.total;
  report.streams = replay.streams;
  report.total_cycles =
      options.total_cycles > 0 ? options.total_cycles : replay.total;
  if (report.total_cycles > 0) {
    report.pcie_link_utilization =
        options.link_busy_cycles / report.total_cycles;
  }

  // -- First-order slack: reverse CPM over the collected edges. A node
  // with no successors can slip to the end of the run; everyone else is
  // bounded by the tightest (headroom + successor slack) chain.
  std::vector<double> slack(cmds.size(), 0.0);
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    if (replay.nodes[i].real) slack[i] = replay.total - replay.nodes[i].end;
  }
  for (std::size_t j = cmds.size(); j-- > 0;) {
    if (!replay.nodes[j].real) continue;
    for (const auto& [pred, headroom] : replay.nodes[j].in_edges) {
      const auto pi = static_cast<std::size_t>(pred);
      slack[pi] = std::min(slack[pi], headroom + slack[j]);
    }
  }

  for (std::size_t i = 0; i < cmds.size(); ++i) {
    if (!replay.nodes[i].real) continue;
    SpanInfo info;
    info.index = static_cast<int32_t>(i);
    info.kind = cmds[i].kind;
    info.name = cmds[i].name;
    if (phase_of[i] >= 0) {
      info.phase = cmds[static_cast<std::size_t>(phase_of[i])].name;
    }
    info.stream = cmds[i].stream;
    info.start = replay.nodes[i].start;
    info.end = replay.nodes[i].end;
    info.binding_pred = replay.nodes[i].binding_pred;
    info.binding_edge = replay.nodes[i].binding_edge;
    info.slack = slack[i];
    report.spans.push_back(info);
  }

  // -- Whole-run attribution along the binding chain, closed to the
  // replayed end-to-end time.
  const int32_t sink = SinkBefore(replay.nodes, replay.nodes.size());
  if (sink >= 0) {
    std::vector<int32_t> chain;
    AttributeWindow(cmds, replay.nodes, sink, 0.0, replay.total,
                    &report.resource_cycles, &chain);
    std::reverse(chain.begin(), chain.end());
    report.critical_path = std::move(chain);
  }
  CloseResidual(&report.resource_cycles, report.critical_path_cycles);
  report.binding = ArgmaxClass(report.resource_cycles);

  // -- Per-phase attribution: each instance window walked independently;
  // same-named instances accumulate (RunProfile semantics). The phase
  // wall is accumulated with the same `end - begin` additions in the same
  // order as RunProfile::Record, and the residual closes attribution to
  // it bit-exactly.
  for (const LogWindow& inst : instances) {
    const std::string& name = cmds[inst.begin].name;
    PhaseBottleneck* ph = nullptr;
    for (PhaseBottleneck& existing : report.phases) {
      if (existing.name == name) {
        ph = &existing;
        break;
      }
    }
    if (ph == nullptr) {
      report.phases.emplace_back();
      ph = &report.phases.back();
      ph->name = name;
    }
    ++ph->invocations;
    ph->cycles += inst.end_cycles - inst.begin_cycles;
    AttributeLogWindow(cmds, replay.nodes, inst, &ph->attribution);
  }
  for (PhaseBottleneck& ph : report.phases) {
    CloseResidual(&ph.attribution, ph.cycles);
    ph.binding = ArgmaxClass(ph.attribution);
  }

  // -- What-if panel: suppressed on partial logs (projecting from a
  // truncated DAG would silently understate everything). The identity row
  // (factor 1.0) doubles as the calibration proof: its projection must
  // equal the actual total bit-exactly.
  if (!report.partial) {
    std::vector<WhatIf> panel = options.whatifs;
    if (panel.empty()) {
      for (ResourceClass cls :
           {ResourceClass::kCompute, ResourceClass::kDram,
            ResourceClass::kPcie, ResourceClass::kUm, ResourceClass::kSort}) {
        WhatIf wi;
        wi.resource = cls;
        wi.cost_factor = 0.5;
        panel.push_back(wi);
      }
    }
    WhatIf identity;
    identity.resource = ResourceClass::kCompute;
    identity.cost_factor = 1.0;
    panel.insert(panel.begin(), identity);
    for (WhatIf wi : panel) {
      Factors f = UnitFactors();
      f[Idx(wi.resource)] = wi.cost_factor;
      Replay projected = ReplayTimeline(cmds, f, /*use_recorded_bases=*/false,
                                        /*collect_edges=*/false);
      wi.projected_cycles = projected.total;
      wi.speedup = projected.total > 0
                       ? report.critical_path_cycles / projected.total
                       : 1.0;
      report.whatifs.push_back(wi);
    }
  }

  return report;
}

Result<CritpathReport> Analyze(const gpusim::Device& device) {
  AnalyzeOptions options;
  options.total_cycles = device.now_cycles();
  options.link_busy_cycles = device.streams().link_busy_cycles();
  return Analyze(device.critpath(), options);
}

Result<std::vector<PhaseBottleneck>> AttributeWindows(
    const CommandLog& log, const std::vector<LogWindow>& windows) {
  const std::vector<CommandRecord>& cmds = log.commands();
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    if (Status edges = CheckEdges(cmds[i], i); !edges.ok()) return edges;
  }
  // Analyze's exact replay; slack edges are only read by its slack pass.
  const Replay replay = ReplayTimeline(cmds, UnitFactors(),
                                       /*use_recorded_bases=*/true,
                                       /*collect_edges=*/false);
  std::vector<PhaseBottleneck> out(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const LogWindow& win = windows[i];
    if (!win.complete || win.end > cmds.size()) continue;
    PhaseBottleneck& ph = out[i];
    ph.invocations = 1;
    ph.cycles = win.end_cycles - win.begin_cycles;
    AttributeLogWindow(cmds, replay.nodes, win, &ph.attribution);
    CloseResidual(&ph.attribution, ph.cycles);
    ph.binding = ArgmaxClass(ph.attribution);
  }
  return out;
}

std::string CritpathReport::ToJson() const {
  // How many critical-path entries the export keeps; deep chains are
  // elided from the middle (the report flags the truncation) so the
  // document stays reviewable.
  constexpr std::size_t kMaxPathEntries = 500;
  constexpr std::size_t kTopSlack = 20;

  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.critpath.v1");
  w.Key("partial").Value(partial);
  w.Key("dropped_commands").Value(dropped_commands);
  w.Key("total_cycles").Value(total_cycles);
  w.Key("critical_path_cycles").Value(critical_path_cycles);
  w.Key("commands").Value(commands);
  w.Key("streams").Value(streams);
  w.Key("pcie_link_utilization").Value(pcie_link_utilization);
  w.Key("binding").Value(ResourceClassName(binding));
  w.Key("resource_cycles");
  WriteResourceCycles(w, resource_cycles);

  w.Key("phases").BeginArray();
  for (const PhaseBottleneck& ph : phases) {
    w.BeginObject();
    w.Key("name").Value(ph.name);
    w.Key("invocations").Value(ph.invocations);
    w.Key("cycles").Value(ph.cycles);
    w.Key("binding").Value(ResourceClassName(ph.binding));
    w.Key("attribution");
    WriteResourceCycles(w, ph.attribution);
    w.EndObject();
  }
  w.EndArray();

  // Spans indexed by command id; the critical path lists ids into it.
  std::vector<const SpanInfo*> by_index(commands, nullptr);
  for (const SpanInfo& s : spans) {
    if (s.index >= 0 && static_cast<std::size_t>(s.index) < by_index.size()) {
      by_index[static_cast<std::size_t>(s.index)] = &s;
    }
  }
  auto write_span = [&](const SpanInfo& s) {
    w.BeginObject();
    w.Key("index").Value(s.index);
    w.Key("kind").Value(KindName(s.kind));
    w.Key("name").Value(s.name);
    w.Key("phase").Value(s.phase);
    w.Key("stream").Value(s.stream);
    w.Key("start").Value(s.start);
    w.Key("end").Value(s.end);
    w.Key("slack").Value(s.slack);
    w.EndObject();
  };
  auto write_path_entry = [&](int32_t idx) {
    const SpanInfo* info =
        idx >= 0 && static_cast<std::size_t>(idx) < by_index.size()
            ? by_index[static_cast<std::size_t>(idx)]
            : nullptr;
    if (info != nullptr) {
      write_span(*info);
    } else {
      w.BeginObject();
      w.Key("index").Value(idx);
      w.EndObject();
    }
  };
  const bool truncated = critical_path.size() > kMaxPathEntries;
  w.Key("critical_path_truncated").Value(truncated);
  w.Key("critical_path").BeginArray();
  if (truncated) {
    for (std::size_t i = 0; i < kMaxPathEntries / 2; ++i) {
      write_path_entry(critical_path[i]);
    }
    for (std::size_t i = critical_path.size() - kMaxPathEntries / 2;
         i < critical_path.size(); ++i) {
      write_path_entry(critical_path[i]);
    }
  } else {
    for (int32_t idx : critical_path) write_path_entry(idx);
  }
  w.EndArray();

  // The spans with the most headroom: candidates for overlapping with the
  // critical chain (or evidence that a stream is underutilized).
  std::vector<const SpanInfo*> by_slack;
  by_slack.reserve(spans.size());
  for (const SpanInfo& s : spans) by_slack.push_back(&s);
  std::stable_sort(by_slack.begin(), by_slack.end(),
                   [](const SpanInfo* a, const SpanInfo* b) {
                     return a->slack > b->slack;
                   });
  w.Key("top_slack").BeginArray();
  for (std::size_t i = 0; i < std::min(kTopSlack, by_slack.size()); ++i) {
    write_span(*by_slack[i]);
  }
  w.EndArray();

  w.Key("whatif").BeginArray();
  for (const WhatIf& wi : whatifs) {
    w.BeginObject();
    w.Key("resource").Value(ResourceClassName(wi.resource));
    w.Key("cost_factor").Value(wi.cost_factor);
    w.Key("projected_cycles").Value(wi.projected_cycles);
    w.Key("speedup").Value(wi.speedup);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  os << '\n';
  return std::move(os).str();
}

}  // namespace gpm::prof
