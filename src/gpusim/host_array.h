#ifndef GAMMA_GPUSIM_HOST_ARRAY_H_
#define GAMMA_GPUSIM_HOST_ARRAY_H_

#include <cstddef>
#include <vector>

#include "gpusim/device.h"

namespace gpm::gpusim {

/// A typed host-resident array addressable from simulated device code.
///
/// The payload lives in an ordinary std::vector (the functional truth);
/// kernels read it through the host data and charge the traffic with
/// WarpCtx::UnifiedRead or WarpCtx::ZeroCopyRead against `region()`. A
/// HostArray registers itself as a unified-memory region, so unified reads
/// share the device-wide page buffer, and reports its footprint to the
/// host-memory tracker for peak memory accounting (Fig. 10).
template <typename T>
class HostArray {
 public:
  /// Creates an empty array bound to `device`.
  explicit HostArray(Device* device)
      : device_(device), region_(device->unified().Register(0)) {}

  HostArray(const HostArray&) = delete;
  HostArray& operator=(const HostArray&) = delete;

  ~HostArray() { device_->host_tracker().Sub(ByteSize()); }

  /// Replaces the contents; updates the UM region and host tracker.
  void Assign(std::vector<T> data) {
    device_->host_tracker().Sub(ByteSize());
    data_ = std::move(data);
    device_->host_tracker().Add(ByteSize());
    device_->unified().ResizeRegion(region_, ByteSize());
    device_->unified().InvalidateRegion(region_);
  }

  void Resize(std::size_t n) {
    device_->host_tracker().Sub(ByteSize());
    data_.resize(n);
    device_->host_tracker().Add(ByteSize());
    device_->unified().ResizeRegion(region_, ByteSize());
  }

  std::size_t size() const { return data_.size(); }
  std::size_t ByteSize() const { return data_.size() * sizeof(T); }
  bool empty() const { return data_.empty(); }

  /// Host-side (un-charged) views, used outside kernels.
  const std::vector<T>& host_data() const { return data_; }
  std::vector<T>& mutable_host_data() { return data_; }

  UnifiedMemory::RegionId region() const { return region_; }

 private:
  Device* device_;
  std::vector<T> data_;
  UnifiedMemory::RegionId region_;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_HOST_ARRAY_H_
