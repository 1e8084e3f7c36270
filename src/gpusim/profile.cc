#include "gpusim/profile.h"

#include <sstream>
#include <utility>

#include "common/json.h"
#include "gpusim/device.h"

namespace gpm::gpusim {
namespace {

void WriteCounters(JsonWriter& w, const DeviceStats& stats) {
  w.Key("counters").BeginObject();
  WriteStatsFields(w, stats);
  w.EndObject();
}

}  // namespace

void RunProfile::Record(std::string_view name, double cycles,
                        const DeviceStats& delta) {
  PhaseRecord* rec = nullptr;
  for (PhaseRecord& ph : phases_) {
    if (ph.name == name) {
      rec = &ph;
      break;
    }
  }
  if (rec == nullptr) {
    phases_.emplace_back();
    rec = &phases_.back();
    rec->name = std::string(name);
  }
  ++rec->invocations;
  rec->cycles += cycles;
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    rec->delta.*f.member += delta.*f.member;
  }
}

const PhaseRecord* RunProfile::Find(std::string_view name) const {
  for (const PhaseRecord& ph : phases_) {
    if (ph.name == name) return &ph;
  }
  return nullptr;
}

std::string RunProfile::ToJson(const Device& device) const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.profile.v1");

  w.Key("totals").BeginObject();
  w.Key("cycles").Value(device.now_cycles());
  w.Key("millis").Value(device.ElapsedMillis());
  w.Key("peak_device_bytes").Value(device.PeakDeviceBytes());
  w.Key("peak_host_bytes").Value(device.host_tracker().peak_bytes());
  WriteCounters(w, device.stats());
  w.EndObject();

  w.Key("phases").BeginArray();
  for (const PhaseRecord& ph : phases_) {
    w.BeginObject();
    w.Key("name").Value(ph.name);
    w.Key("invocations").Value(ph.invocations);
    w.Key("cycles").Value(ph.cycles);
    w.Key("millis").Value(device.params().CyclesToMillis(ph.cycles));
    WriteCounters(w, ph.delta);
    w.EndObject();
  }
  w.EndArray();

  // The kernel trace is a view over the command log's kernel records.
  w.Key("kernel_trace").BeginArray();
  for (const prof::CommandRecord& k : device.critpath().commands()) {
    if (k.kind != prof::CommandRecord::Kind::kKernel) continue;
    w.BeginObject();
    w.Key("name").Value(k.name);
    w.Key("tasks").Value(k.tasks);
    w.Key("compute_makespan_cycles").Value(k.makespan);
    w.Key("pcie_cycles").Value(k.link_transfer);
    w.Key("total_cycles").Value(k.end - k.start);
    w.EndObject();
  }
  w.EndArray();
  // The log is bounded; its overflow is counted, not silently truncated.
  w.Key("kernel_trace_dropped").Value(device.critpath().dropped());

  w.EndObject();
  os << '\n';
  return std::move(os).str();
}

PhaseScope::PhaseScope(Device* device, std::string name)
    : device_(device),
      name_(std::move(name)),
      start_cycles_(device->now_cycles()),
      start_stats_(device->stats().Snapshot()) {
  // The device's phase stack names the phase for the sanitizer; its log
  // markers let the critpath analyzer rebuild the phase windows and the
  // timeline draw the phase.
  device_->BeginPhaseMark(name_);
}

PhaseScope::~PhaseScope() {
  device_->EndPhaseMark();
  device_->profile().Record(name_, device_->now_cycles() - start_cycles_,
                            device_->stats().Diff(start_stats_));
}

}  // namespace gpm::gpusim
