#include "gpusim/stats.h"

#include <sstream>

#include "common/json.h"

namespace gpm::gpusim {

std::span<const DeviceStats::Field> DeviceStats::Fields() {
  static constexpr Field kFields[] = {
      {"kernel_launches", &DeviceStats::kernel_launches},
      {"warp_tasks", &DeviceStats::warp_tasks},
      {"um_page_faults", &DeviceStats::um_page_faults},
      {"um_page_hits", &DeviceStats::um_page_hits},
      {"um_migrated_bytes", &DeviceStats::um_migrated_bytes},
      {"um_evictions", &DeviceStats::um_evictions},
      {"zc_transactions", &DeviceStats::zc_transactions},
      {"zc_bytes", &DeviceStats::zc_bytes},
      {"device_reads", &DeviceStats::device_reads},
      {"device_read_bytes", &DeviceStats::device_read_bytes},
      {"device_writes", &DeviceStats::device_writes},
      {"device_write_bytes", &DeviceStats::device_write_bytes},
      {"explicit_h2d_bytes", &DeviceStats::explicit_h2d_bytes},
      {"explicit_d2h_bytes", &DeviceStats::explicit_d2h_bytes},
      {"pool_block_requests", &DeviceStats::pool_block_requests},
      {"pool_blocks_wasted", &DeviceStats::pool_blocks_wasted},
  };
  return kFields;
}

DeviceStats DeviceStats::Diff(const DeviceStats& since) const {
  DeviceStats d;
  for (const Field& f : Fields()) {
    uint64_t now = this->*f.member;
    uint64_t was = since.*f.member;
    d.*f.member = now >= was ? now - was : 0;
  }
  return d;
}

void WriteStatsFields(JsonWriter& w, const DeviceStats& stats) {
  for (const DeviceStats::Field& f : DeviceStats::Fields()) {
    w.Key(f.name).Value(stats.*f.member);
  }
}

std::string DeviceStats::ToString() const {
  std::ostringstream os;
  os << "kernels=" << kernel_launches << " warp_tasks=" << warp_tasks
     << " um_faults=" << um_page_faults << " um_hits=" << um_page_hits
     << " um_migrated=" << um_migrated_bytes << "B"
     << " um_evictions=" << um_evictions << " zc_tx=" << zc_transactions
     << " zc_bytes=" << zc_bytes << "B"
     << " dev_read=" << device_read_bytes << "B"
     << " dev_write=" << device_write_bytes << "B"
     << " h2d=" << explicit_h2d_bytes << "B d2h=" << explicit_d2h_bytes
     << "B pool_reqs=" << pool_block_requests
     << " pool_wasted=" << pool_blocks_wasted;
  return os.str();
}

}  // namespace gpm::gpusim
