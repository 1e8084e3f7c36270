#include "gpusim/device.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace gpm::gpusim {

Device::Device(SimParams params)
    : params_(params),
      memory_(params.device_memory_bytes),
      unified_(params_, &stats_) {
  // Page-level fault/hit/eviction events land on the timeline recorder,
  // stamped with the device clock (kernel-boundary resolution).
  unified_.BindTrace(&trace_recorder_, &clock_cycles_);
  // The timeline's spans are a view of the command log.
  trace_recorder_.BindLog(&critpath_);
  // Observability armed from params so harnesses that construct the
  // Device behind a helper (benches) can opt in without plumbing calls.
  if (params_.record_commands) critpath_.set_enabled(true);
  if (params_.record_timeline) trace_recorder_.set_enabled(true);
  // host_threads is a wall-clock knob only: the pool records warp tasks
  // into a window of log slots while this thread replays them in task
  // order, which keeps results bit-identical to serial.
  if (params_.host_threads > 1) {
    executor_ = std::make_unique<HostExecutor>(params_.host_threads);
    task_logs_.resize(executor_->window());
  }
  // The unified-memory page buffer is carved out of device memory so that
  // in-core data structures compete with it for space, like on real
  // hardware.
  if (params_.um_device_buffer_bytes > 0) {
    auto buf = DeviceBuffer::Make(&memory_, params_.um_device_buffer_bytes);
    GAMMA_CHECK(buf.ok())
        << "UM page buffer does not fit in device memory: "
        << buf.status().ToString();
    um_buffer_reservation_ = std::move(buf).value();
  }
  // GPUSIM_CHECK=1 (or a memcheck,initcheck,racecheck subset) arms the
  // sanitizer on every Device, with abort-on-finding so whole test suites
  // fail loudly under it. Enabled last so the UM page-buffer reservation is
  // baseline state, not a reportable leak.
  if (const char* env = std::getenv("GPUSIM_CHECK");
      env != nullptr && env[0] != '\0') {
    Sanitizer::Options opts;
    if (Sanitizer::ParseCheckList(env, &opts)) {
      opts.abort_on_finding = true;
      EnableSanitizer(opts);
    } else {
      std::fprintf(stderr,
                   "gpusim-check: ignoring unparsable GPUSIM_CHECK=\"%s\"\n",
                   env);
    }
  }
}

Device::~Device() {
  if (sanitizer_ == nullptr) return;
  // Last chance to sweep for leaks (idempotent if the CLI already ran it).
  // Whatever this Device still owns itself is baseline, so only buffers the
  // engine/user code failed to release are reported.
  sanitizer_->FinalizeLeakCheck();
  if (!sanitizer_->findings().empty() &&
      sanitizer_->options().abort_on_finding) {
    std::fputs(sanitizer_->ReportText().c_str(), stderr);
    std::abort();
  }
  // Detach before members are destroyed: the UM reservation frees itself
  // through memory_ after this body runs.
  memory_.set_sanitizer(nullptr);
  unified_.set_sanitizer(nullptr);
  sanitizer_.reset();
}

void Device::EnableSanitizer(Sanitizer::Options options) {
  sanitizer_ = std::make_unique<Sanitizer>(options);
  sanitizer_->BindClock(&clock_cycles_);
  sanitizer_->BindPhases(&phase_stack_);
  memory_.set_sanitizer(sanitizer_.get());
  unified_.set_sanitizer(sanitizer_.get());
  // Everything that predates the sanitizer is baseline: treated as
  // initialized (we never saw the writes) and exempt from the leak sweep
  // (we cannot tell who owns it).
  for (const auto& [id, bytes] : memory_.allocations()) {
    sanitizer_->OnAlloc(id, bytes, /*baseline=*/true);
  }
  for (const auto& [region, bytes] : unified_.region_sizes()) {
    sanitizer_->OnRegionRegister(region, bytes, /*baseline=*/true);
  }
  if (um_buffer_reservation_.valid()) {
    sanitizer_->LabelObject(um_buffer_reservation_.id(), "um-page-buffer");
  }
}

StreamId Device::WorkerStream(int i) {
  GAMMA_CHECK(i >= 0) << "negative worker stream index";
  while (static_cast<int>(worker_streams_.size()) <= i) {
    // Route through Device::CreateStream so the command log sees the
    // stream's birth (its clock base) like any explicitly created stream.
    worker_streams_.push_back(CreateStream());
  }
  return worker_streams_[static_cast<std::size_t>(i)];
}

double Device::CopyHostToDeviceAsync(StreamId stream, std::size_t bytes) {
  stats_.explicit_h2d_bytes += bytes;
  return CopyAsync(stream, bytes, "copy-h2d");
}

double Device::CopyDeviceToHostAsync(StreamId stream, std::size_t bytes) {
  stats_.explicit_d2h_bytes += bytes;
  return CopyAsync(stream, bytes, "copy-d2h");
}

double Device::CopyAsync(StreamId stream, std::size_t bytes,
                         const char* name) {
  if (sanitizer_ != nullptr) sanitizer_->OnCommand(stream);
  const double start = streams_.cycles(stream);
  const double ready = start + params_.pcie_latency_cycles;
  const double transfer =
      static_cast<double>(bytes) / params_.pcie_bytes_per_cycle;
  // Snapshot link state before acquiring so the command record carries the
  // exact window-start arithmetic (max(ready, free) + transfer).
  const bool record_cmds = critpath_.enabled();
  const double link_free_before =
      record_cmds ? streams_.link_free_cycles() : 0.0;
  const int32_t link_pred = record_cmds ? critpath_.last_link() : -1;
  const double end = streams_.AcquireLink(ready, transfer);
  streams_.set_cycles(stream, end);
  clock_cycles_ = streams_.now_cycles();
  if (record_cmds) {
    prof::CommandRecord rec =
        MakeCommand(prof::CommandRecord::Kind::kCopy, stream, name, start, end);
    rec.latency = params_.pcie_latency_cycles;
    rec.link_transfer = transfer;
    rec.link_ready = ready;
    rec.link_start = std::max(ready, link_free_before);
    rec.link_end = end;
    rec.link_pred = link_pred;
    critpath_.Append(std::move(rec));
  }
  metrics_.MaybeSample(*this);
  return end - start;
}

}  // namespace gpm::gpusim
