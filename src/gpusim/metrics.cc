#include "gpusim/metrics.h"

#include <sstream>
#include <utility>

#include "common/json.h"
#include "gpusim/device.h"

namespace gpm::gpusim {

namespace {

// Gauge columns preceding the DeviceStats counters in every sample row.
constexpr const char* kGaugeColumns[] = {
    "cycles",            "device_used_bytes",  "device_peak_bytes",
    "um_resident_pages", "um_capacity_pages",  "host_bytes",
    "streams",           "link_busy_cycles",   "unified_page_count",
    "adaptivity_regret_cycles",
};

}  // namespace

void MetricsSampler::MaybeSample(const Device& device) {
  if (!enabled()) return;
  if (device.now_cycles() < next_sample_cycles_) return;
  Take(device);
  next_sample_cycles_ = device.now_cycles() + interval_cycles_;
}

void MetricsSampler::ForceSample(const Device& device) {
  Take(device);
  if (enabled()) {
    next_sample_cycles_ = device.now_cycles() + interval_cycles_;
  }
}

void MetricsSampler::Take(const Device& device) {
  Sample s;
  s.cycles = device.now_cycles();
  s.device_used_bytes = device.memory().used_bytes();
  s.device_peak_bytes = device.memory().peak_used_bytes();
  s.um_resident_pages = device.unified().resident_pages();
  s.um_capacity_pages = device.unified().capacity_pages();
  s.host_bytes = device.host_tracker().current_bytes();
  s.streams = device.streams().num_streams();
  s.link_busy_cycles = device.streams().link_busy_cycles();
  s.unified_page_count = device.adaptivity_gauges().unified_page_count;
  s.adaptivity_regret_cycles = device.adaptivity_gauges().regret_cycles;
  s.counters = device.stats().Snapshot();
  samples_.push_back(std::move(s));
}

std::string MetricsSampler::ToJson(const Device& device) const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.metrics.v1");
  w.Key("interval_cycles").Value(interval_cycles_);
  w.Key("clock_ghz").Value(device.params().clock_ghz);

  w.Key("columns").BeginArray();
  for (const char* name : kGaugeColumns) w.Value(name);
  for (const DeviceStats::Field& f : DeviceStats::Fields()) w.Value(f.name);
  w.EndArray();

  w.Key("samples").BeginArray();
  for (const Sample& s : samples_) {
    w.BeginArray();
    w.Value(s.cycles);
    w.Value(s.device_used_bytes);
    w.Value(s.device_peak_bytes);
    w.Value(s.um_resident_pages);
    w.Value(s.um_capacity_pages);
    w.Value(s.host_bytes);
    w.Value(s.streams);
    w.Value(s.link_busy_cycles);
    w.Value(s.unified_page_count);
    w.Value(s.adaptivity_regret_cycles);
    for (const DeviceStats::Field& f : DeviceStats::Fields()) {
      w.Value(s.counters.*f.member);
    }
    w.EndArray();
  }
  w.EndArray();

  w.EndObject();
  os << '\n';
  return std::move(os).str();
}

}  // namespace gpm::gpusim
